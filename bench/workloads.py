"""The benchmark's workloads: seeded inputs and the operations run on them.

Each workload turns a seed into a fixed list of operations. One round of
a run executes every operation once; a run repeats whole rounds of the
same operations, so the share of failed operations does not depend on
how many rounds fit into the measured time. The program receives only
the generated inputs, through its public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import ttnprep.sim
from ttnprep import (GridSpec, TreeTopology, caterpillar_leaf_tree,
                     make_covariance, random_leaf_tree)

import checks


@dataclass
class Operation:
    """One call into the pipeline, and the check of what it returned."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], "checks.Outcome"]


@dataclass
class Workload:
    name: str
    why: str
    make_operations: Callable[[int], list]
    warm_up: Callable[[], None]
    params: dict


# -- compile-d16 -------------------------------------------------------------

C16 = dict(D=16, n=8, m=4, box=20.0, chi=8, chi_prime=16, sweeps=6,
           sigma_max=0.2, per_round=4)


def _compile_op(name, cov, grid, chi, mode, **kw) -> Operation:
    def run():
        circ, rec = ttnprep.sim.compile_circuit(cov, grid, chi, mode, **kw)
        return {"circuit": circ, "record": rec}

    def check(out):
        return checks.check_circuit(out["circuit"], out["record"], grid, mode)

    return Operation(name, run, check)


def compile_d16(seed: int) -> list:
    p = C16
    grid = GridSpec(p["D"], p["n"], p["box"], p["m"])
    rng = np.random.default_rng(seed)
    ops = []
    for cov_seed in rng.integers(0, 2 ** 31, size=p["per_round"]):
        cov = make_covariance("random", p["D"], sigma_max=p["sigma_max"],
                              seed=int(cov_seed))
        ops.append(_compile_op(
            f"random-{cov_seed}", cov, grid, p["chi"], "qft-gates",
            chi_prime=p["chi_prime"], structure="fixed", sweeps=p["sweeps"],
            seed=int(cov_seed)))
    return ops


def _warm_compile():
    cov = make_covariance("random", 3, sigma_max=0.2, seed=0)
    ttnprep.sim.compile_circuit(cov, GridSpec(3, 3, 20.0, 2), 2, "qft-gates",
                                chi_prime=4, sweeps=1)


# -- auto-d8 -----------------------------------------------------------------

A8 = dict(D=8, n=5, m=3, box=16.0, chi=8, chi_prime=32, sweeps=2, sigma=3.0,
          drawn=9)

# Generator seed whose tree compile_circuit does not recover: the rank
# reveal in tci._update_side cuts at 1e-14 * max_abs, TCI stalls at max
# bond 9, and the search lands on a wrong tree. It counts as failed.
FAILING_SEED = 1

# Generator seeds whose compile holds about twice the working set of any
# other seed in 0..47 (60-65 MB of arrays against 36 MB or less). With
# them in every round, peak_rss_mb does not hinge on the draw.
LARGEST_SEEDS = (14, 36)

# Generator seeds in 0..47 whose tree compile_circuit recovers, less the
# fixed ones. The run's seed draws the rest of the round from these.
# Seeds 29 and 40 also end on a wrong tree and are left out (see
# CHANGES.md, FOUND).
DRAWN_SEEDS = tuple(s for s in range(48)
                    if s not in (FAILING_SEED, 29, 40, *LARGEST_SEEDS))


def hidden_tree(D: int, gen_seed: int):
    """The generator tree, covariance and leaf-shuffled caterpillar start
    of one structure-recovery instance, drawn as scaling.recovery_study
    draws them."""
    rng = np.random.default_rng(1000 + gen_seed)
    tree = random_leaf_tree(D, rng)
    perm = rng.permutation(D)
    cov = make_covariance("tree", D, edges=tree, sigma=A8["sigma"])
    start = [(int(perm[u]) if u < D else u, int(perm[v]) if v < D else v)
             for u, v in caterpillar_leaf_tree(D)]
    return tree, cov, start


def _warm_auto():
    tree, cov, start = hidden_tree(4, 0)
    grid = GridSpec(4, 3, 16.0, 2)
    ttnprep.sim.compile_circuit(
        cov, grid, 2, "qft-gates", chi_prime=4, structure="auto-optimize",
        topology=TreeTopology.from_leaf_tree(start, 4, grid.M), sweeps=1)


def _auto_op(gen_seed: int, grid: GridSpec) -> Operation:
    p = A8
    tree, cov, start = hidden_tree(grid.dim, gen_seed)
    topo = TreeTopology.from_leaf_tree(start, grid.dim, grid.M)
    op = _compile_op(f"tree-{gen_seed}", cov, grid, p["chi"], "qft-gates",
                     chi_prime=p["chi_prime"], structure="auto-optimize",
                     topology=topo, sweeps=p["sweeps"], seed=gen_seed)
    base_check = op.check

    def check(out):
        outcome = base_check(out)
        outcome.failed = not checks.same_tree(out["record"]["tree"], tree,
                                              grid.dim)
        return outcome

    op.check = check
    return op


def auto_d8(seed: int) -> list:
    p = A8
    grid = GridSpec(p["D"], p["n"], p["box"], p["m"])
    rng = np.random.default_rng(seed)
    picks = rng.choice(DRAWN_SEEDS, size=p["drawn"], replace=False)
    fixed = (FAILING_SEED, *LARGEST_SEEDS)
    return [_auto_op(s, grid) for s in (*fixed, *map(int, picks))]


# -- verify-d4 ---------------------------------------------------------------

V4 = dict(D=4, n=6, m=4, box=20.0, chi=4, sweeps=6, sigma_max=0.2,
          per_round=1)


def _verify_op(name, cov, grid, chi, mode, **kw) -> Operation:
    def run():
        # verify_pipeline returns only its record; keep the circuit and the
        # dense target it builds so the checks can read them
        seen = {}
        compile_circuit = ttnprep.sim.compile_circuit
        exact_target = ttnprep.sim.exact_target

        def keep_circuit(*a, **k):
            seen["circuit"], rec = compile_circuit(*a, **k)
            return seen["circuit"], rec

        def keep_target(*a, **k):
            seen["target"] = exact_target(*a, **k)
            return seen["target"]

        ttnprep.sim.compile_circuit = keep_circuit
        ttnprep.sim.exact_target = keep_target
        try:
            rec = ttnprep.sim.verify_pipeline(cov, grid, chi, mode, **kw)
        finally:
            ttnprep.sim.compile_circuit = compile_circuit
            ttnprep.sim.exact_target = exact_target
        return {"record": rec, **seen}

    def check(out):
        outcome = checks.check_circuit(out["circuit"], out["record"], grid,
                                       mode)
        outcome.problems += checks.check_verify(out["record"],
                                                out["target"], grid, cov)
        return outcome

    return Operation(name, run, check)


def verify_d4(seed: int) -> list:
    p = V4
    grid = GridSpec(p["D"], p["n"], p["box"], p["m"])
    rng = np.random.default_rng(seed)
    ops = []
    for cov_seed in rng.integers(0, 2 ** 31, size=p["per_round"]):
        cov = make_covariance("random", p["D"], sigma_max=p["sigma_max"],
                              seed=int(cov_seed))
        ops.append(_verify_op(f"random-{cov_seed}", cov, grid, p["chi"],
                              "qft-ttn", structure="auto-optimize",
                              sweeps=p["sweeps"], seed=int(cov_seed)))
    return ops


def _warm_verify():
    cov = make_covariance("random", 2, sigma_max=0.2, seed=0)
    ttnprep.sim.verify_pipeline(cov, GridSpec(2, 3, 20.0, 2), 2, "qft-ttn",
                                structure="auto-optimize", sweeps=1)


WORKLOADS = {w.name: w for w in (
    Workload("compile-d16",
             "qft-gates compile of a 16-dim normal on 128 qubits, past the "
             "dense cap, where the scaling claim lives; TCI does the work",
             compile_d16, _warm_compile, C16),
    Workload("auto-d8",
             "auto-optimize compile on hidden trees at D=8: the automatic "
             "structure search; structopt, two TCI builds, exact norms",
             auto_d8, _warm_auto, A8),
    Workload("verify-d4",
             "24-qubit verify: compile, dense targets and statevector "
             "simulation; the only workload where sim and dense fourier work",
             verify_d4, _warm_verify, V4),
)}
