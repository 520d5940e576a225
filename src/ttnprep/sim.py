"""Desk-scale statevector simulation and end-to-end verification.

Circuits produced by the synthesizer are replayed placement by placement
on a dense statevector, and the result is compared against the exactly
discretized distribution.  The comparison splits into three factors:
the Fourier-truncation ceiling, the network-truncation fidelity claimed
by the ledger, and whatever the synthesis padding added on top, which
lets a ledger-versus-simulation gap be pinned on the stage that owes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (TRUNC_TOL, QuantumCircuit, build_qft_ttn,
                      compose_and_compress, fsl_baseline_cost, qubitize,
                      synthesize, with_inverse_dft)
from .errors import (MAX_DENSE_QUBITS, CapacityError, CircuitValidityError,
                     ParameterError, ShapeError)
from .fourier import FourierEvaluator, GridSpec, exact_target, fsl_state
from .gaussian import CovarianceMatrix
# not called here: bench/spans.py traces ttnprep.sim.optimize_structure
from .structopt import covariance_tree, optimize_structure  # noqa: F401
from .tci import BlackBoxTensor, tci_build
from .topology import (TreeTopology, canonical_leaf_tree,
                       caterpillar_leaf_tree, enumerate_leaf_trees,
                       normalize_leaf_tree)

NORM_DRIFT_TOL = 1e-10
OVERLAP_BLOCK = 1 << 12
GAP_TOL = 1e-2   # ledger-versus-simulation gap that verification flags

MODES = ("qft-ttn", "qft-gates")

STRUCTURE_POLICIES = ("fixed", "auto-optimize", "exhaustive-optimal",
                      "fixed-worst")
# the scan policies and the end of the scan_trees ranking each one takes
SCAN_ENDS = {"exhaustive-optimal": 0, "fixed-worst": -1}


@dataclass(eq=False)
class StateVector:
    qubits: int
    amplitudes: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def simulate(circ: QuantumCircuit) -> StateVector:
    """Apply the placements in order to the all-zeros state.

    Each placement reads its first in_qubits target wires (big-endian),
    which must hold the entire support of the state on those wires, and
    rewrites all its targets.  Fresh target wires have to be cleared;
    leaked amplitude shows up as norm loss and is rejected.

    The amplitudes live in a block over the written wires only, one axis
    per wire in the order of `wires`; every other wire holds |0>, so the
    block has the state's norm. A placement pads each input wire nothing
    has written yet with a zero half, reads a written wire it treats as
    fresh at 0, moves its input axes to the front and applies one matrix
    product, whose axes are then its targets followed by the untouched
    wires. The block is written into the full register once, at the end.
    """
    Q = circ.qubits
    if Q > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{Q} qubits exceeds the dense cap {MAX_DENSE_QUBITS}")
    circ.validate()
    psi = np.ones((), dtype=complex)
    wires: list = []
    for plc in circ.placements:
        p = plc.in_qubits
        ins = plc.targets[:p]
        for w in plc.targets[p:]:
            if w in wires:
                # read at |0>: whatever it held elsewhere is lost norm
                psi = psi[(slice(None),) * wires.index(w) + (0,)]
                wires.remove(w)
        new = [w for w in ins if w not in wires]
        if new:
            padded = np.zeros((2,) * len(new) + psi.shape, dtype=complex)
            padded[(0,) * len(new)] = psi
            psi, wires = padded, new + wires
        rest = [w for w in wires if w not in ins]
        t = np.moveaxis(psi, [wires.index(w) for w in ins], range(p))
        shape = t.shape[p:]
        t = t.reshape(1 << p, -1)
        # keep at most two blocks alive: the moved copy and the product
        del psi
        psi = (plc.matrix @ t).reshape((2,) * len(plc.targets) + shape)
        del t
        wires = list(plc.targets) + rest
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > NORM_DRIFT_TOL:
            raise CircuitValidityError(
                f"norm drifted by {drift:.3e} after a placement on "
                f"{plc.targets}; a fresh target wire was not cleared")
    full = np.zeros((2,) * Q, dtype=complex)
    full[tuple(slice(None) if w in wires else 0 for w in range(Q))] = \
        psi.transpose(np.argsort(wires))
    return StateVector(Q, full.ravel())


def fidelity(u, v) -> float:
    """|<u|v>|^2 for unit vectors, statevectors, or flattened tensors.

    When one side is real, the complex side is read as (re, im) pairs
    and the real side meets both in one pass: np.vdot would first cast
    the real side to a complex copy, 256 MB at 2^24 amplitudes. The pass
    runs in blocks of OVERLAP_BLOCK whose partial sums are added last,
    which keeps the rounding error below that of one long dot product.
    """
    ua = u.amplitudes if isinstance(u, StateVector) else np.asarray(u)
    va = v.amplitudes if isinstance(v, StateVector) else np.asarray(v)
    ua, va = ua.ravel(), va.ravel()
    if ua.shape != va.shape:
        raise ShapeError(f"dimension mismatch {ua.shape} vs {va.shape}")
    if np.iscomplexobj(ua) == np.iscomplexobj(va):
        return float(abs(np.vdot(ua, va)) ** 2)
    z, x = (ua, va) if np.iscomplexobj(ua) else (va, ua)
    pairs = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)
    x = np.asarray(x, dtype=float)
    cut = x.size - x.size % OVERLAP_BLOCK
    parts = np.matmul(x[:cut].reshape(-1, 1, OVERLAP_BLOCK),
                      pairs[:cut].reshape(-1, OVERLAP_BLOCK, 2))
    re, im = parts.sum(axis=(0, 1)) + x[cut:] @ pairs[cut:]
    return float(re * re + im * im)


# -- pipeline orchestration --------------------------------------------------


def interpolate(ev: FourierEvaluator, topo: TreeTopology, chi_prime: int,
                sweeps: int, seed: int):
    """Cross-interpolate the evaluator's coefficient tensor on topo.

    Returns the network and its TCI record. Each call gets a fresh black
    box, so the evaluation count, the peak magnitude behind the relative
    residual and the pivots belong to this build alone.
    """
    box = BlackBoxTensor.from_fourier(ev)
    net, info = tci_build(box, topo, chi=chi_prime, sweeps=sweeps, seed=seed)
    residual = info["residuals"][-1] / max(box.max_abs, 1e-300)
    return net, {"tci_evals": info["evals"], "tci_residual": residual,
                 "tci_converged": info["converged"]}


def _match_enumeration(D, edges, labels):
    """Map a leaf-labeled tree onto its canonical edge list.

    Up to six leaves the result is the matching entry of the full
    enumeration, so two builds that land on the same shape use the
    same edge list verbatim; larger trees get the normalized form.
    """
    if D == 1:
        return []
    if D <= 6:
        key = canonical_leaf_tree(edges, labels)
        ident = {i: i for i in range(D)}
        for cand in enumerate_leaf_trees(D):
            if canonical_leaf_tree(cand, ident) == key:
                return cand
        raise ParameterError(
            "reshaped network left the binary leaf-tree family")
    return normalize_leaf_tree(edges, labels)


def _emit(coeff_net, grid, chi, mode):
    if mode == "qft-ttn":
        qft = build_qft_ttn(grid.n, grid.m)
        net = compose_and_compress(coeff_net, qft, chi)
        circ, cost = synthesize(net)
        return net, circ, cost
    net = qubitize(coeff_net)
    net.canonicalize(min(net.tensors))
    net.truncate(chi=chi, tol=TRUNC_TOL)
    circ, _ = synthesize(net)
    circ = with_inverse_dft(circ, grid.n)
    return net, circ, circ.cost


def _head(grid, chi, mode, chi_prime, structure, seed) -> dict:
    """Check the mode and start a compile record; the evaluator checks
    that grid and covariance agree."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if chi_prime is None:
        chi_prime = max(2 * chi, 16)
    return {"dim": grid.dim, "n": grid.n, "m": grid.m, "chi": chi,
            "chi_prime": chi_prime, "mode": mode, "structure": structure,
            "seed": seed}


def _compile_on(ev, topo, grid, mode, sweeps, head, extra):
    """Interpolate on topo, compress and synthesize; the record is head,
    the TCI fields, extra (which names the tree), then the cost."""
    coeff, tci_rec = interpolate(ev, topo, head["chi_prime"], sweeps,
                                 head["seed"])
    net, circ, cost = _emit(coeff, grid, head["chi"], mode)
    return circ, {**head, **tci_rec, **extra,
                  "ledger_fidelity": net.ledger.product,
                  "cnot_count": cost.cnot_count, "qft_cnots": cost.qft_cnots,
                  "depth": cost.depth, "qubits": circ.qubits}


def scan_trees(cov: CovarianceMatrix, grid: GridSpec, chi: int,
               mode: str = "qft-ttn", *, chi_prime: int | None = None,
               sweeps: int = 6, seed: int = 0,
               ) -> list[tuple[QuantumCircuit, dict]]:
    """Compile on every leaf tree (D <= 6) and rank the results.

    Returns (circuit, record) pairs, best ledger first, then fewest
    CNOTs, then enumeration order. All builds share one evaluator, so
    one exact norm. The records carry "trees_scanned" and a "structure"
    of None: the first pair serves "exhaustive-optimal" and the last
    "fixed-worst" (SCAN_ENDS).
    """
    head = _head(grid, chi, mode, chi_prime, None, seed)
    D = grid.dim
    if D > 6:
        raise CapacityError(
            f"structure sweep over all trees needs D <= 6, got {D}")
    ev = FourierEvaluator(grid, cov)
    trees = enumerate_leaf_trees(D)
    builds = [_compile_on(ev, TreeTopology.from_leaf_tree(edges, D, grid.M),
                          grid, mode, sweeps, head,
                          {"trees_scanned": len(trees), "tree": edges})
              for edges in trees]
    order = sorted(range(len(builds)), key=lambda i: (
        -builds[i][1]["ledger_fidelity"], builds[i][1]["cnot_count"], i))
    return [builds[i] for i in order]


def compile_circuit(cov: CovarianceMatrix, grid: GridSpec, chi: int,
                    mode: str = "qft-ttn", *, chi_prime: int | None = None,
                    structure: str = "fixed",
                    topology: TreeTopology | None = None,
                    sweeps: int = 6, seed: int = 0,
                    ) -> tuple[QuantumCircuit, dict]:
    """Full compile: tree selection per policy, cross interpolation at
    chi_prime, compression to chi, synthesis.

    Policies: "fixed" builds the explicit topology or the caterpillar.
    "auto-optimize" picks the leaf tree from the covariance alone
    (structopt.covariance_tree): each cut's canonical correlations give
    its exact Schmidt spectrum, so the mass every bond keeps at chi is
    known before any tensor exists. A greedy bottom-up merge and NNI
    moves maximize the product of kept masses; an explicit topology is
    built instead only when it keeps strictly more. One interpolation
    follows, and the record adds "reconnections" (NNI moves taken) and
    "predicted_fidelity". "exhaustive-optimal" and "fixed-worst" return
    the first and the last pair of scan_trees, with "structure" set to
    the policy. One leaf has one tree, which every policy builds as
    "fixed" does.

    Returns the circuit and a build record; no simulation happens here,
    so the instance can be far beyond the dense cap.
    """
    if structure not in STRUCTURE_POLICIES:
        raise ParameterError(f"unknown structure policy {structure!r}")
    if topology is not None and structure in SCAN_ENDS:
        raise ParameterError(
            f"an explicit topology cannot combine with {structure!r}")
    D = grid.dim
    if structure in SCAN_ENDS and D > 1:
        ranked = scan_trees(cov, grid, chi, mode, chi_prime=chi_prime,
                            sweeps=sweeps, seed=seed)
        circ, record = ranked[SCAN_ENDS[structure]]
        return circ, {**record, "structure": structure}
    head = _head(grid, chi, mode, chi_prime, structure, seed)
    ev = FourierEvaluator(grid, cov)
    if structure == "auto-optimize" and D > 1:
        # the tree comes from the covariance's cut spectra at chi, where
        # the circuit pays the truncation, so only that tree interpolates
        edges, extra = covariance_tree(cov, chi, start=topology)
    else:
        edges = None if topology is not None else caterpillar_leaf_tree(D)
        extra = {}
    if edges is not None:
        edges = _match_enumeration(D, edges, {i: i for i in range(D)})
    topo = topology if edges is None else \
        TreeTopology.from_leaf_tree(edges, D, grid.M)
    return _compile_on(ev, topo, grid, mode, sweeps, head,
                       {**extra, "tree": edges})


def reference(grid: GridSpec, cov: CovarianceMatrix
              ) -> tuple[np.ndarray, float]:
    """What every circuit for this covariance is checked against: the
    flattened exact target and the Fourier ceiling, the fidelity of the
    untruncated coefficient state with it. Both are dense, so the grid
    must fit the dense cap."""
    if grid.dim * grid.n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{grid.dim * grid.n} qubits exceeds the dense cap "
            f"{MAX_DENSE_QUBITS}")
    target = exact_target(grid, cov).ravel()
    return target, fidelity(fsl_state(grid, cov).ravel(), target)


def verify_circuit(circ: QuantumCircuit, record: dict,
                   ref: tuple[np.ndarray, float]) -> dict:
    """Simulate a compiled circuit and reconcile its fidelity account.

    The simulated fidelity against the reference target is compared with
    ledger_fidelity * fourier_fidelity; a gap beyond GAP_TOL is flagged,
    not raised, so batch sweeps can keep going. Returns a copy of the
    record with the verification fields added.
    """
    target, ceiling = ref
    sim_f = fidelity(simulate(circ), target)
    stage = sim_f / ceiling if ceiling > 0 else 0.0
    gap = abs(record["ledger_fidelity"] - stage)
    out = {**record, "fourier_fidelity": ceiling, "simulated_fidelity": sim_f,
           "gap": gap, "gap_ok": gap <= GAP_TOL,
           "ceiling_ok": sim_f <= ceiling + 1e-10}
    out["ok"] = bool(out["gap_ok"] and out["ceiling_ok"])
    return out


def verify_pipeline(cov: CovarianceMatrix, grid: GridSpec, chi: int,
                    mode: str = "qft-ttn", *, chi_prime: int | None = None,
                    structure: str = "fixed",
                    topology: TreeTopology | None = None,
                    sweeps: int = 6, seed: int = 0) -> dict:
    """Compile, then check: reference, compile_circuit, verify_circuit.

    A batch that compiles several circuits for one covariance should
    call the three itself and share one reference.
    """
    ref = reference(grid, cov)
    circ, record = compile_circuit(
        cov, grid, chi, mode, chi_prime=chi_prime, structure=structure,
        topology=topology, sweeps=sweeps, seed=seed)
    return verify_circuit(circ, record, ref)


def baseline_comparison(record: dict) -> dict:
    """CNOT and depth ratios of a compile record against the brute-force
    coefficient preparation at the same (D, n, m)."""
    base = fsl_baseline_cost(record["dim"], record["n"], record["m"])
    return {"baseline_cnots": base.cnot_count,
            "baseline_qft_cnots": base.qft_cnots,
            "baseline_depth": base.depth,
            "cnot_ratio": record["cnot_count"] / base.cnot_count,
            "depth_ratio": record["depth"] / base.depth}
