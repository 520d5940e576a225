"""Desk-scale statevector simulation and end-to-end verification.

Circuits produced by the synthesizer are replayed in fused runs of
placements, the last run held unapplied, and the state meets the exactly
discretized distribution through that run's adjoint. The comparison
splits into three factors: the Fourier-truncation ceiling, the
network-truncation fidelity claimed by the ledger, and whatever the
synthesis padding added on top, which lets a ledger-versus-simulation
gap be pinned on the stage that owes it.
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
from .fourier import (SLAB_ENTRIES, FourierEvaluator, GridSpec, exact_target,
                      fourier_ceiling)
from .gaussian import CovarianceMatrix
# not called here: bench/spans.py traces ttnprep.sim.optimize_structure
from .structopt import covariance_tree, optimize_structure  # noqa: F401
from .tci import BlackBoxTensor, tci_build
from .topology import (TreeTopology, caterpillar_leaf_tree,
                       enumerate_leaf_trees)

NORM_DRIFT_TOL = 1e-10
FUSE_WIDTH = 8   # most wires one fused run of placements may span
GAP_TOL = 1e-2   # ledger-versus-simulation gap that verification flags

MODES = ("qft-ttn", "qft-gates")

STRUCTURE_POLICIES = ("fixed", "auto-optimize", "exhaustive-optimal",
                      "fixed-worst")
# the scan policies and the end of the scan_trees ranking each one takes
SCAN_ENDS = {"exhaustive-optimal": 0, "fixed-worst": -1}


class StateVector:
    """A state on `qubits` wires, held one run early.

    StateVector(qubits, t, wires, F): F is a (2^k, 2^r) map and t, kept
    as `before`, an (A, 2^r, B) array over the first a entries of
    `wires` (A = 2^a), the r wires F reads, and the entries after the
    next k; every wire not in `wires` is |0>. The block, (A, 2^k, B) =
    F t with F over wires[a:a+k], is built when `block` or `amplitudes`
    is first read; `norm` and `overlap` meet F without building it, one
    chunk of t at a time.
    """

    def __init__(self, qubits: int, before, wires, run):
        self.qubits = qubits
        # a complex t, held as given: _hold passes a view of the block
        self.before = np.asarray(before, dtype=complex)
        self.wires = tuple(wires)
        self.run = run

    @functools.cached_property
    def block(self) -> np.ndarray:
        """The block over `wires`, the run applied on first read."""
        return np.matmul(self.run, self.before).reshape(
            (2,) * len(self.wires))

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The register-order vector, built from the block on first read."""
        if self.wires == tuple(range(self.qubits)):
            return self.block.ravel()
        full = np.zeros((2,) * self.qubits, dtype=self.block.dtype)
        full[self._written()] = self.block.transpose(np.argsort(self.wires))
        return full.ravel()

    def _chunks(self, k: int):
        """t in chunks of n = SLAB_ENTRIES / max(k, 2^{r+1}) index pairs
        (a, b), whole rows of B at a time when B is that short.

        Yields (index, P): index picks the chunk's pairs out of an
        (A, ., B) array, and P is the chunk as one real (pairs, 2^{r+1})
        array, Re and Im of t[a, c, b] in columns 2c and 2c+1. So P has
        2^{r+1} n entries and a k-row chunk of x has k n. Every chunk is
        whole, as A, 2^r and B are powers of two, and P is one buffer:
        read it before the next chunk.
        """
        A, R, B = self.before.shape
        n = max(1, SLAB_ENTRIES // max(k, 2 * R))
        na, nb = min(A, max(1, n // B)), min(n, B)
        buf = np.empty((na, nb, R), dtype=complex)
        P = buf.reshape(-1, R).view(float)
        for a in range(0, A, na):
            for b in range(0, B, nb):
                i = np.s_[a:a + na, :, b:b + nb]
                buf[...] = self.before[i].transpose(0, 2, 1)
                yield i, P

    @property
    def norm(self) -> float:
        """sqrt<t|F^dag F|t>, from the 2^r x 2^r Gram matrices of F and of
        t, so nothing of the block's size is built: one real product per
        chunk of t gives the Gram matrix of its Re, Im columns."""
        F = self.run
        g = sum(P.T @ P for _, P in self._chunks(1))
        s = (g[0::2, 0::2] + g[1::2, 1::2]
             + 1j * (g[0::2, 1::2] - g[1::2, 0::2]))
        return float(np.sqrt(max(np.sum(F.conj().T @ F * s).real, 0.0)))

    def _written(self) -> tuple:
        """Index of the register entries where every unwritten wire is 0."""
        return tuple(slice(None) if w in self.wires else 0
                     for w in range(self.qubits))

    def overlap(self, x) -> complex:
        """<state|x> for a register-order vector x, through the run's
        adjoint: <F t|x> = <t|F^dag x>.

        Only the entries of x where every unwritten wire is 0 meet the
        state. They are read as (A, 2^k, B), a view when every wire is
        written and F's wires are one register range. Each chunk of them,
        (2^k, pairs), meets t's chunk P in one matrix product, real for a
        real x, so x is read once and nothing of its size is built; the
        2^k x 2^r sum q of x conj(t) then meets conj(F).
        """
        F, t = self.run, self.before
        K = F.shape[0]
        x = np.asarray(x)
        if x.size != 1 << self.qubits:
            raise ShapeError(f"{x.size} amplitudes for {self.qubits} qubits")
        part = x.reshape((2,) * self.qubits)[self._written()].transpose(
            np.argsort(np.argsort(self.wires))).reshape(
                t.shape[0], K, t.shape[2])
        q = sum(part[i].transpose(1, 0, 2).reshape(K, -1) @ P
                for i, P in self._chunks(K))
        return complex(np.sum(F.conj() * (q[:, 0::2] - 1j * q[:, 1::2])))


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


def _hold(Q: int, psi, wires: list, run) -> StateVector:
    """The state after `run` on the block psi over `wires`, held with the
    run unapplied.

    The run's map: each placement runs, as _place, on an identity over
    the written wires the run reads, with one column axis, so padding
    and fresh-wire reads keep their meaning. Its output wires go in
    register order, between the other written wires below the first of
    them and the rest in register order, so the block is in register
    order unless a written wire the run leaves alone lies between two of
    its outputs. t keeps the reads where they sit in psi, between those
    two groups, so it is a view of psi whenever psi's wires already
    come in that order.
    """
    span = {w for plc in run for w in plc.targets}
    reads = [w for w in wires if w in span]
    fused = np.eye(1 << len(reads), dtype=complex).reshape(
        (2,) * len(reads) + (-1,))
    outs = reads
    for plc in run:
        fused, outs = _place(fused, outs, plc)
    span = sorted(outs)
    rest = [w for w in wires if w not in reads]
    lead = sorted(w for w in rest if w < span[0])
    tail = sorted(w for w in rest if w > span[0])
    t = psi.transpose([wires.index(w) for w in lead + reads + tail]).reshape(
        1 << len(lead), 1 << len(reads), 1 << len(tail))
    F = fused.transpose([outs.index(w) for w in span] + [len(outs)])
    return StateVector(Q, t, lead + span + tail,
                       F.reshape(1 << len(span), -1))


def simulate(circ: QuantumCircuit) -> StateVector:
    """Apply the placements in order to the all-zeros state.

    Each placement reads its first in_qubits target wires (big-endian),
    which must hold the entire support of the state on those wires, and
    rewrites all its targets.  Fresh target wires have to be cleared;
    leaked amplitude shows up as norm loss and is rejected.

    The amplitudes live in a block over the written wires only; every
    other wire holds |0>, so the block has the state's norm. Consecutive
    placements that span at most FUSE_WIDTH wires act as one map. Each
    run is held unapplied with the block before it (see `StateVector`
    and _hold), its norm is checked through the Gram form, and the next
    run reads `block`, which applies it in one matrix product. The last
    run stays unapplied: it is the one that grows the block to its full
    size, so a fidelity against a target never builds it; `block` and
    `amplitudes` do, on first read. The state starts, and an empty
    circuit ends, as a 1x1 identity run held on no wires.
    """
    Q = circ.qubits
    if Q > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"{Q} qubits exceeds the dense cap {MAX_DENSE_QUBITS}")
    circ.validate()
    sv = StateVector(Q, np.ones((1, 1, 1)), [], np.eye(1))
    for run in _runs(circ.placements):
        psi, wires = sv.block, list(sv.wires)
        # one block alive between runs: the next state holds a view of
        # psi when its wires already sit in order, else a moved copy of
        # it, and psi goes
        del sv
        sv = _hold(Q, psi, wires, run)
        del psi
        drift = abs(sv.norm - 1.0)
        if not drift <= NORM_DRIFT_TOL:   # a NaN norm fails too
            raise CircuitValidityError(
                f"norm drifted by {drift:.3e} after placements on "
                f"{[plc.targets for plc in run]}; a fresh target wire was "
                "not cleared")
    return sv


def fidelity(u, v) -> float:
    """|<u|v>|^2 for unit vectors, statevectors, or flattened tensors.

    A StateVector meets the other side through its `overlap`, so the
    state is never expanded to the register; two plain arrays meet in
    one np.vdot.
    """
    if isinstance(v, StateVector):
        u, v = v, u   # |<u|v>| = |<v|u>|
    if isinstance(u, StateVector):
        total = u.overlap(v.amplitudes if isinstance(v, StateVector) else v)
    elif np.size(u) != np.size(v):
        raise ShapeError(f"dimension mismatch {np.shape(u)} vs {np.shape(v)}")
    else:
        total = np.vdot(u, v)
    return float(abs(total) ** 2)


# -- pipeline orchestration --------------------------------------------------


def interpolate(ev: FourierEvaluator, topo: TreeTopology, chi_prime: int,
                sweeps: int, seed: int):
    """Cross-interpolate the evaluator's coefficient tensor on topo.

    Returns the network and its TCI record. Each call gets a fresh black
    box, so the evaluation count, the peak magnitude behind the relative
    residual and the pivots belong to this build alone.
    """
    net, info = tci_build(BlackBoxTensor.from_fourier(ev), topo,
                          chi=chi_prime, sweeps=sweeps, seed=seed)
    return net, {"tci_evals": info["evals"], "tci_residual": info["residual"],
                 "tci_converged": info["converged"],
                 "tci_sweeps": info["sweeps_run"],
                 "tci_growth": info["growth"]}


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


def resolve_chi_prime(chi: int, chi_prime: int | None) -> int:
    """TCI's bond limit: chi_prime when given, else max(2 chi, 16)."""
    return max(2 * chi, 16) if chi_prime is None else chi_prime


def _head(grid, chi, mode, chi_prime, structure, seed) -> dict:
    """Check the mode and start a compile record; the evaluator checks
    that grid and covariance agree."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    return {"dim": grid.dim, "n": grid.n, "m": grid.m, "chi": chi,
            "chi_prime": resolve_chi_prime(chi, chi_prime), "mode": mode,
            "structure": structure, "seed": seed}


def _compile_on(ev, topo, grid, mode, sweeps, head, extra):
    """Interpolate on topo, compress and synthesize; the record is head,
    the TCI fields, extra, the tree (topo's bonds), then the cost."""
    coeff, tci_rec = interpolate(ev, topo, head["chi_prime"], sweeps,
                                 head["seed"])
    net, circ, cost = _emit(coeff, grid, head["chi"], mode)
    return circ, {**head, **tci_rec, **extra, "tree": list(topo.bonds),
                  "ledger_fidelity": net.ledger.product,
                  "cnot_count": cost.cnot_count, "qft_cnots": cost.qft_cnots,
                  "depth": cost.depth, "qubits": circ.qubits}


def scan_trees(cov: CovarianceMatrix, grid: GridSpec, chi: int,
               mode: str = "qft-ttn", *, chi_prime: int | None = None,
               sweeps: int = 6, seed: int = 0,
               ) -> list[tuple[QuantumCircuit, dict]]:
    """Compile on every leaf tree (D <= 6) and rank the results.

    Returns (circuit, record) pairs, best ledger first, then fewest
    CNOTs, then enumeration order. All builds share one evaluator. The
    records carry "trees_scanned" and a "structure" of None: the first
    pair serves "exhaustive-optimal" and the last "fixed-worst"
    (SCAN_ENDS).
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
                          {"trees_scanned": len(trees)})
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
    topo = topology if edges is None else \
        TreeTopology.from_leaf_tree(edges, D, grid.M)
    return _compile_on(ev, topo, grid, mode, sweeps, head, extra)


def reference(grid: GridSpec, cov: CovarianceMatrix
              ) -> tuple[np.ndarray, float]:
    """What every circuit for this covariance is checked against: the
    flattened exact target and the Fourier ceiling, the fidelity of the
    untruncated coefficient state with it. The ceiling is taken in
    coefficient space, one slab of the target at a time (fourier_ceiling),
    so the real target is the only register-size array (the ceiling's
    own working memory is 4% of it at D=4, n=6, m=4); the grid must fit
    the dense cap, which exact_target checks before it builds anything."""
    target = exact_target(grid, cov).ravel()
    return target, fourier_ceiling(grid, cov, target)


def verify_circuit(circ: QuantumCircuit, record: dict,
                   ref: tuple[np.ndarray, float]) -> dict:
    """Simulate a compiled circuit and reconcile its fidelity account.

    The simulated fidelity against the reference target is compared with
    ledger_fidelity * fourier_fidelity; a gap beyond GAP_TOL is flagged,
    not raised, so batch sweeps can keep going. The simulated state meets
    the target with its last run unapplied (see `simulate`), so besides
    the real target nothing of the register's size is held. Returns a
    copy of the record with the verification fields added.
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
