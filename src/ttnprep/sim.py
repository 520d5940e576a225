"""Desk-scale statevector simulation and end-to-end verification.

Circuits produced by the synthesizer are replayed placement by placement
on a dense statevector, and the result is compared against the exactly
discretized distribution.  The comparison splits into three factors:
the Fourier-truncation ceiling, the network-truncation fidelity claimed
by the ledger, and whatever the synthesis padding added on top, which
lets a ledger-versus-simulation gap be pinned on the stage that owes it.
"""

from __future__ import annotations

import functools

import numpy as np

from .circuit import (TRUNC_TOL, QuantumCircuit, build_qft_ttn,
                      compose_and_compress, fsl_baseline_cost, qubitize,
                      synthesize, with_inverse_dft)
from .errors import (MAX_DENSE_QUBITS, CapacityError, CircuitValidityError,
                     ParameterError, ShapeError)
# not called here: bench/spans.py traces ttnprep.sim.fsl_state
from .fourier import fsl_state  # noqa: F401
from .fourier import FourierEvaluator, GridSpec, exact_target, fourier_ceiling
from .gaussian import CovarianceMatrix
# not called here: bench/spans.py traces ttnprep.sim.optimize_structure
from .structopt import covariance_tree, optimize_structure  # noqa: F401
from .tci import BlackBoxTensor, tci_build
from .topology import (TreeTopology, canonical_leaf_tree,
                       caterpillar_leaf_tree, enumerate_leaf_trees,
                       normalize_leaf_tree)

NORM_DRIFT_TOL = 1e-10
OVERLAP_BLOCK = 1 << 12
FUSE_WIDTH = 8   # most wires one fused run of placements may span
PIECE_QUBITS = 16   # a StateVector meets a vector in pieces of 2^16
GAP_TOL = 1e-2   # ledger-versus-simulation gap that verification flags

MODES = ("qft-ttn", "qft-gates")

STRUCTURE_POLICIES = ("fixed", "auto-optimize", "exhaustive-optimal",
                      "fixed-worst")
# the scan policies and the end of the scan_trees ranking each one takes
SCAN_ENDS = {"exhaustive-optimal": 0, "fixed-worst": -1}


class StateVector:
    """A state on `qubits` wires, held as a block over some of them.

    `block` has one axis per wire in `wires`; every other wire is |0>.
    StateVector(qubits, amplitudes) wraps a register-order vector (wire
    0 most significant) as a block over every wire. The register-order
    vector of a partial block is built when `amplitudes` is first read.
    """

    def __init__(self, qubits: int, amplitudes, wires=None):
        self.qubits = qubits
        self.wires = tuple(range(qubits) if wires is None else wires)
        self.block = np.asarray(amplitudes).reshape((2,) * len(self.wires))

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The register-order vector, built from the block on first read."""
        if self.wires == tuple(range(self.qubits)):
            return self.block.ravel()
        full = np.zeros((2,) * self.qubits, dtype=self.block.dtype)
        full[self._written()] = self.block.transpose(np.argsort(self.wires))
        return full.ravel()

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.block))

    def _written(self) -> tuple:
        """Index of the register entries where every unwritten wire is 0."""
        return tuple(slice(None) if w in self.wires else 0
                     for w in range(self.qubits))

    def pieces(self, x):
        """Pairs of flat vectors that together cover the block: a piece of
        the block and the entries of x, a register-order vector, that
        meet it (those where every unwritten wire is 0, in the block's
        wire order). The pieces split the block's leading axes, so each
        piece of x is a copy of at most 2^PIECE_QUBITS entries, or a
        view where the block is in register order."""
        x = np.asarray(x)
        if x.size != 1 << self.qubits:
            raise ShapeError(f"{x.size} amplitudes for {self.qubits} qubits")
        part = x.reshape((2,) * self.qubits)[self._written()].transpose(
            np.argsort(np.argsort(self.wires)))
        for idx in np.ndindex((2,) * max(len(self.wires) - PIECE_QUBITS, 0)):
            yield self.block[idx].ravel(), part[idx].ravel()


def _place(psi, wires: list, plc):
    """One placement on a block with one axis per wire in `wires` and
    trailing axes it leaves alone; returns the new block and wires.

    An input wire nothing has written yet is padded with a zero half, a
    written wire the placement treats as fresh is read at 0 (whatever
    it held elsewhere is lost norm), and the input axes move to the
    front for one matrix product, whose axes are then the targets
    followed by the untouched wires.
    """
    p = plc.in_qubits
    ins = plc.targets[:p]
    for w in plc.targets[p:]:
        if w in wires:
            psi = psi[(slice(None),) * wires.index(w) + (0,)]
            wires = [v for v in wires if v != w]
    new = [w for w in ins if w not in wires]
    if new:
        padded = np.zeros((2,) * len(new) + psi.shape, dtype=complex)
        padded[(0,) * len(new)] = psi
        psi, wires = padded, new + wires
    t = np.moveaxis(psi, [wires.index(w) for w in ins], range(p))
    shape = t.shape[p:]
    psi = (plc.matrix @ t.reshape(1 << p, -1)).reshape(
        (2,) * len(plc.targets) + shape)
    return psi, list(plc.targets) + [w for w in wires if w not in ins]


def _runs(placements):
    """Consecutive placements whose targets together span at most
    FUSE_WIDTH wires; a wider placement is a run of its own."""
    run, span = [], set()
    for plc in placements:
        if run and len(span | set(plc.targets)) > FUSE_WIDTH:
            yield run
            run, span = [], set()
        run.append(plc)
        span |= set(plc.targets)
    if run:
        yield run


def simulate(circ: QuantumCircuit) -> StateVector:
    """Apply the placements in order to the all-zeros state.

    Each placement reads its first in_qubits target wires (big-endian),
    which must hold the entire support of the state on those wires, and
    rewrites all its targets.  Fresh target wires have to be cleared;
    leaked amplitude shows up as norm loss and is rejected.

    The amplitudes live in a block over the written wires only; every
    other wire holds |0>, so the block has the state's norm. Consecutive
    placements that span at most FUSE_WIDTH wires act as one map: each
    runs, as _place, on an identity over the written wires the run
    reads, with one column axis, so padding and fresh-wire reads keep
    their meaning. The block then moves those wires to the front once
    and meets the map in one matrix product, and its norm is checked.
    Returns the block and its wire order; the register-order vector is
    built only if `amplitudes` is read.
    """
    Q = circ.qubits
    if Q > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{Q} qubits exceeds the dense cap {MAX_DENSE_QUBITS}")
    circ.validate()
    psi = np.ones((), dtype=complex)
    wires: list = []
    for run in _runs(circ.placements):
        span = {w for plc in run for w in plc.targets}
        reads = [w for w in wires if w in span]
        fused = np.eye(1 << len(reads), dtype=complex).reshape(
            (2,) * len(reads) + (-1,))
        outs = reads
        for plc in run:
            fused, outs = _place(fused, outs, plc)
        rest = [w for w in wires if w not in reads]
        t = np.moveaxis(psi, [wires.index(w) for w in reads],
                        range(len(reads)))
        shape = t.shape[len(reads):]
        t = t.reshape(1 << len(reads), -1)
        # keep at most two blocks alive: the moved copy and the product
        del psi
        psi = (fused.reshape(-1, t.shape[0]) @ t).reshape(
            (2,) * len(outs) + shape)
        del t
        wires = outs + rest
        # one pass over the block, where np.linalg.norm reads it twice
        drift = abs(np.sqrt(np.vdot(psi, psi).real) - 1.0)
        if drift > NORM_DRIFT_TOL:
            raise CircuitValidityError(
                f"norm drifted by {drift:.3e} after placements on "
                f"{[plc.targets for plc in run]}; a fresh target wire was "
                "not cleared")
    return StateVector(Q, psi, wires)


def _overlap(u: np.ndarray, v: np.ndarray) -> complex:
    """<u|v> of two flat vectors, conjugated when only u is complex, so
    a sum over calls with the same dtypes keeps the overlap's modulus.

    When one side is real, the complex side is read as (re, im) pairs
    and the real side meets both in one pass: np.vdot would first cast
    the real side to a complex copy, 256 MB at 2^24 amplitudes. The pass
    runs in blocks of OVERLAP_BLOCK whose partial sums are added last,
    which keeps the rounding error below that of one long dot product.
    """
    if u.shape != v.shape:
        raise ShapeError(f"dimension mismatch {u.shape} vs {v.shape}")
    if np.iscomplexobj(u) == np.iscomplexobj(v):
        return complex(np.vdot(u, v))
    z, x = (u, v) if np.iscomplexobj(u) else (v, u)
    pairs = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)
    x = np.asarray(x, dtype=float)
    cut = x.size - x.size % OVERLAP_BLOCK
    parts = np.matmul(x[:cut].reshape(-1, 1, OVERLAP_BLOCK),
                      pairs[:cut].reshape(-1, OVERLAP_BLOCK, 2))
    re, im = parts.sum(axis=(0, 1)) + x[cut:] @ pairs[cut:]
    return complex(re, im)


def fidelity(u, v) -> float:
    """|<u|v>|^2 for unit vectors, statevectors, or flattened tensors.

    A StateVector is read on its block, piece by piece (see its
    `pieces`): only the other side's entries where every unwritten wire
    is 0 meet it, so the block is never expanded to the register.
    """
    if isinstance(v, StateVector):
        u, v = v, u   # |<u|v>| = |<v|u>|
    if isinstance(u, StateVector):
        v = v.amplitudes if isinstance(v, StateVector) else v
        total = sum(_overlap(a, b) for a, b in u.pieces(v))
    else:
        total = _overlap(np.ravel(u), np.ravel(v))
    return float(abs(total) ** 2)


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
    untruncated coefficient state with it. The ceiling is taken in
    coefficient space (fourier_ceiling), so the only register-size array
    is the real target; the grid must fit the dense cap."""
    if grid.dim * grid.n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{grid.dim * grid.n} qubits exceeds the dense cap "
            f"{MAX_DENSE_QUBITS}")
    target = exact_target(grid, cov).ravel()
    return target, fourier_ceiling(grid, cov, target)


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
