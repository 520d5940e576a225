"""Statevector execution and end-to-end pipeline verification."""

import re
import tracemalloc

import numpy as np
import pytest

from ttnprep import (CapacityError, CircuitValidityError, CostReport,
                     CovarianceMatrix, ParameterError, Placement,
                     QuantumCircuit, ShapeError, baseline_comparison,
                     compile_circuit, fidelity, make_covariance,
                     predict_ttn_fidelity, qubitize, reference, scan_trees,
                     simulate, synthesize, verify_circuit, verify_pipeline,
                     with_inverse_dft)
from ttnprep.fourier import FourierEvaluator, GridSpec, exact_target
from ttnprep.scaling import _shuffled_caterpillar
import ttnprep.sim as simmod
from ttnprep.sim import STRUCTURE_POLICIES, StateVector
from ttnprep.topology import (TreeTopology, caterpillar_leaf_tree,
                              random_leaf_tree)
from ttnprep.ttn import from_dense, random_mps


def _empty_circuit(qubits):
    return QuantumCircuit(qubits, [], tuple(range(qubits)),
                          CostReport(0, 0))


def test_empty_circuit_gives_all_zeros():
    psi = simulate(_empty_circuit(2))
    want = np.zeros(4)
    want[0] = 1.0
    np.testing.assert_allclose(psi.amplitudes, want, atol=1e-15)


def test_every_state_is_held():
    # an empty circuit holds a 1x1 identity run on no wires; every other
    # circuit holds its last run
    for Q in range(4):
        sv = simulate(_empty_circuit(Q))
        assert sv.run is not None and sv.wires == ()
        assert sv.norm == 1.0
        want = np.zeros(1 << Q)
        want[0] = 1.0
        np.testing.assert_array_equal(sv.amplitudes, want)
    rng = np.random.default_rng(11)
    for qubits, layout in (*WIRE_LAYOUTS.values(), TWO_BRANCHES):
        assert simulate(_circuit(qubits, layout, rng)).run is not None


def test_single_qubit_prep():
    h = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    circ = QuantumCircuit(1, [Placement((0,), 0, h, "prep")], (0,),
                          CostReport(2, 2))
    psi = simulate(circ)
    np.testing.assert_allclose(psi.amplitudes,
                               np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-14)
    assert abs(psi.norm - 1.0) < 1e-12


def test_simulate_matches_contraction():
    # synthesized circuits and direct contraction agree on random nets
    for seed in range(4):
        net = random_mps(5, 2, 4, np.random.default_rng(seed))
        vec = net.contract_to_vector()
        circ, _ = synthesize(net)
        psi = simulate(circ)
        assert fidelity(psi.amplitudes, vec) >= 1 - 1e-8


def test_simulate_respects_qubit_cap():
    with pytest.raises(CapacityError):
        simulate(_empty_circuit(25))


def test_simulate_rejects_dirty_fresh_wire():
    # second placement claims wire 0 as fresh output while it holds amplitude
    h = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    circ = QuantumCircuit(
        2, [Placement((0,), 0, h, "prep"), Placement((1, 0), 0,
            np.array([[1.0], [0.0], [0.0], [0.0]]), "prep")],
        (0, 1), CostReport(6, 6))
    with pytest.raises(CircuitValidityError):
        simulate(circ)


def test_simulate_rejects_a_nan_norm(monkeypatch):
    # with placement validation out of the way, the drift check alone
    # must refuse a run whose norm is NaN, and name the run
    nan = Placement((0,), 0, np.array([[np.nan], [1.0]]), "prep")
    circ = QuantumCircuit(1, [nan], (0,), CostReport(2, 2))
    with pytest.raises(CircuitValidityError, match=r"\(0,\)"):
        simulate(circ)
    monkeypatch.setattr(Placement, "validate", lambda self: None)
    with pytest.raises(CircuitValidityError, match=r"drifted by nan .*\(0,\)"):
        simulate(circ)


def _reference_simulate(circ):
    # from the definition: each placement is a dense operator on its
    # targets that reads the input wires and projects the fresh ones on
    # |0>, applied to the full (2,)*Q state
    Q = circ.qubits
    psi = np.zeros((2,) * Q, dtype=complex)
    psi[(0,) * Q] = 1.0
    letters = "abcdefghijklmnopqrstuvwxyz"
    for plc in circ.placements:
        q, p = plc.out_qubits, plc.in_qubits
        op = np.zeros((1 << q, 1 << q), dtype=complex)
        op[:, ::1 << (q - p)] = plc.matrix
        state = letters[:Q]
        outs = letters[Q:Q + q]
        ins = "".join(state[w] for w in plc.targets)
        result = list(state)
        for w, o in zip(plc.targets, outs):
            result[w] = o
        psi = np.einsum(f"{outs}{ins},{state}->{''.join(result)}",
                        op.reshape((2,) * 2 * q), psi)
    return psi.ravel()


def test_simulate_mixes_real_and_complex_placements():
    # a real coefficient network gives float64 placements, the inverse
    # DFT complex ones; together they match the dense reference
    topo = TreeTopology.mps([0, 1], 4)
    dense = np.random.default_rng(53).normal(size=(4, 4))
    net = from_dense(dense / np.linalg.norm(dense), topo)
    circ, _ = synthesize(qubitize(net))
    circ = with_inverse_dft(circ, 3)
    assert {plc.matrix.dtype for plc in circ.placements} == {
        np.dtype(float), np.dtype(complex)}
    np.testing.assert_allclose(simulate(circ).amplitudes,
                               _reference_simulate(circ), rtol=0, atol=1e-12)


def _isometry(rng, q, p):
    shape = (1 << q, 1 << p)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.linalg.qr(z)[0]


def _circuit(qubits, layout, rng):
    pls = [Placement(tuple(t), p, _isometry(rng, len(t), p), "isometry")
           for t, p in layout]
    return QuantumCircuit(qubits, pls, tuple(range(qubits)),
                          CostReport(0, 0))


# (targets, in_qubits); inputs first, then fresh wires
WIRE_LAYOUTS = {
    # descending targets, then a read of wires written two steps back
    # from behind the newer ones; wire 0 is never touched
    "descending": (6, [((5, 4, 3), 0), ((3, 2), 1), ((2, 1), 1),
                       ((5, 4), 2)]),
    # mixed order, and inputs that sit behind other written wires
    "mixed": (7, [((2, 6, 0), 0), ((0, 4), 1), ((6, 2, 5), 2),
                  ((4, 5, 0, 1), 3), ((6,), 1)]),
    # input wires nothing has written: 3 at the start, 1 and 7 later;
    # wires 0 and 5 are never touched
    "unwritten-inputs": (8, [((3, 2), 1), ((2, 1, 6), 2), ((7, 4), 1),
                             ((6, 7, 3), 3)]),
    # at a fusion width of 2, the last run reads the wire that leads the
    # block and leaves the one behind it alone
    "leading-read": (3, [((1, 0), 0), ((1, 2), 1)]),
    # one wire, and every wire at once
    "single": (1, [((0,), 0), ((0,), 1)]),
    "all": (4, [((3, 1, 0, 2), 0), ((2, 0, 3, 1), 4)]),
}


@pytest.mark.parametrize("name", sorted(WIRE_LAYOUTS))
def test_simulate_matches_dense_reference(name):
    qubits, layout = WIRE_LAYOUTS[name]
    for seed in range(3):
        circ = _circuit(qubits, layout, np.random.default_rng(seed))
        np.testing.assert_allclose(simulate(circ).amplitudes,
                                   _reference_simulate(circ), rtol=0,
                                   atol=1e-12)


def test_simulate_matches_dense_reference_on_random_layouts():
    rng = np.random.default_rng(7)
    for _ in range(40):
        qubits = int(rng.integers(2, 9))
        used = rng.permutation(qubits)[:int(rng.integers(1, qubits + 1))]
        written, layout = set(), []
        for _ in range(int(rng.integers(1, 7))):
            p = int(rng.integers(0, min(3, len(used)) + 1))
            ins = [int(w) for w in rng.permutation(used)[:p]]
            clean = [int(w) for w in rng.permutation(used)
                     if w not in written and w not in ins]
            fresh = clean[:int(rng.integers(0, min(2, len(clean)) + 1))]
            if not ins + fresh:
                continue
            layout.append((ins + fresh, p))
            written.update(ins + fresh)
        circ = _circuit(qubits, layout, rng)
        np.testing.assert_allclose(simulate(circ).amplitudes,
                                   _reference_simulate(circ), rtol=0,
                                   atol=1e-12)


def test_simulate_reads_a_clean_written_wire_as_fresh():
    # the first placement writes wire 1 but leaves it at |0>; the second
    # treats it as fresh, which loses no norm
    rng = np.random.default_rng(3)
    keep0 = np.kron(_isometry(rng, 1, 1), np.array([[1.0], [0.0]]))
    circ = QuantumCircuit(3, [Placement((0,), 0, _isometry(rng, 1, 0)),
                              Placement((0, 1), 1, keep0),
                              Placement((2, 0, 1), 2, _isometry(rng, 3, 2))],
                          (0, 1, 2), CostReport(0, 0))
    np.testing.assert_allclose(simulate(circ).amplitudes,
                               _reference_simulate(circ), rtol=0, atol=1e-12)


def test_simulate_peak_memory_two_state_sizes():
    # a 20-qubit chain: each placement reads one wire and writes one more
    rng = np.random.default_rng(0)
    layout = [((0,), 0)] + [((k, k + 1), 1) for k in range(19)]
    circ = _circuit(20, layout, rng)
    state = 16 << 20
    tracemalloc.start()
    try:
        psi = simulate(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.amplitudes.nbytes == state
    assert peak <= 2 * state + (1 << 20)


# a root on wires 0 and 7, then two branches, 0..6 and 7..13, whose steps
# alternate, so a run of FUSE_WIDTH = 8 wires ends inside both branches
TWO_BRANCHES = (14, [((0, 7), 0), ((0, 1, 2), 1), ((7, 8, 9), 1),
                     ((2, 3, 4), 1), ((9, 10, 11), 1), ((4, 5, 6), 1),
                     ((11, 12, 13), 1), ((1, 2), 2), ((12, 13), 2)])


def _run_lengths(circ):
    return [len(run) for run in simmod._runs(circ.placements)]


def test_simulate_fuses_across_a_branch():
    qubits, layout = TWO_BRANCHES
    for seed in range(3):
        circ = _circuit(qubits, layout, np.random.default_rng(seed))
        assert _run_lengths(circ) == [4, 3, 2]
        np.testing.assert_allclose(simulate(circ).amplitudes,
                                   _reference_simulate(circ), rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_simulate_matches_dense_reference_at_any_fusion_width(
        width, monkeypatch):
    # narrow runs put run boundaries everywhere in the layouts above
    monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
    rng = np.random.default_rng(width)
    for qubits, layout in (*WIRE_LAYOUTS.values(), TWO_BRANCHES):
        circ = _circuit(qubits, layout, rng)
        np.testing.assert_allclose(simulate(circ).amplitudes,
                                   _reference_simulate(circ), rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("width,runs", [(8, [2]), (1, [1, 1])])
def test_dirty_fresh_wire_rejected_inside_and_across_runs(
        width, runs, monkeypatch):
    # wire 0 holds amplitude when the second placement claims it as fresh,
    # with both placements in one run and in two; the dirty run is the
    # last, which is held unapplied, and the error names its targets
    monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
    h = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    circ = QuantumCircuit(
        2, [Placement((0,), 0, h, "prep"), Placement((1, 0), 0,
            np.array([[1.0], [0.0], [0.0], [0.0]]), "prep")],
        (0, 1), CostReport(6, 6))
    assert _run_lengths(circ) == runs
    dirty = str([plc.targets for plc in circ.placements[-runs[-1]:]])
    with pytest.raises(CircuitValidityError, match=re.escape(dirty)):
        simulate(circ)


def _pending_cases():
    # every layout above at each fusion width: the last runs include
    # outputs that are not one register range, unwritten wires and a
    # single wire
    for width in (1, 2, 3, 5, 8):
        for qubits, layout in (*WIRE_LAYOUTS.values(), TWO_BRANCHES):
            yield width, qubits, layout


def test_pending_cases_cover_every_kind_of_last_run(monkeypatch):
    kinds = set()
    for width, qubits, layout in _pending_cases():
        monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
        circ = _circuit(qubits, layout, np.random.default_rng(0))
        last = list(simmod._runs(circ.placements))[-1]
        span = sorted({w for plc in last for w in plc.targets})
        kinds.add(("one range", span == list(range(span[0], span[-1] + 1))))
        kinds.add(("all written", len(simulate(circ).wires) == qubits))
        kinds.add(("one wire", len(span) == 1))
        t = simulate(circ).before
        kinds.add(("more lead than tail", t.shape[0] > t.shape[2]))
    assert kinds == {(k, b) for k in ("one range", "all written", "one wire",
                                      "more lead than tail")
                     for b in (False, True)}


@pytest.mark.parametrize("draw", [16, 2])
@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_fidelity_with_a_pending_run_equals_register_order(
        width, draw, monkeypatch):
    # the last run meets x through its adjoint; the register-order vector
    # it would build gives the same fidelity, on two random draws of the
    # circuits and targets at each fusion width, with t met in chunks of
    # one or two index pairs and in one chunk
    monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
    rng = np.random.default_rng((width, draw))
    for qubits, layout in (*WIRE_LAYOUTS.values(), TWO_BRANCHES):
        sv = simulate(_circuit(qubits, layout, rng))
        assert sv.run is not None
        N = 1 << qubits
        real = rng.normal(size=N)
        cplx = rng.normal(size=N) + 1j * rng.normal(size=N)
        got = []
        for slab in (2 * max(sv.run.shape), simmod.SLAB_ENTRIES):
            monkeypatch.setattr(simmod, "SLAB_ENTRIES", slab)
            got += [fidelity(sv, x / np.linalg.norm(x))
                    for x in (real, cplx)]
        assert "block" not in vars(sv)
        for g, x in zip(got, 2 * (real, cplx)):
            want = fidelity(sv.amplitudes, x / np.linalg.norm(x))
            assert abs(g - want) <= 1e-14
        assert abs(fidelity(sv, sv) - fidelity(sv.amplitudes, sv)) <= 1e-14
        for size in (N // 2, 2 * N):
            with pytest.raises(ShapeError):
                fidelity(sv, np.ones(size))


def test_norm_of_a_pending_run_builds_no_amplitudes(monkeypatch):
    for width, qubits, layout in _pending_cases():
        monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
        sv = simulate(_circuit(qubits, layout, np.random.default_rng(1)))
        norm = sv.norm
        assert "amplitudes" not in vars(sv) and "block" not in vars(sv)
        assert norm == pytest.approx(np.linalg.norm(sv.amplitudes),
                                     abs=1e-14)
    # a map that is no isometry, as a leaking run's is: two it reads and
    # three it writes, between one leading wire and three trailing ones
    # and between three and one, in one chunk, in chunks of whole rows of
    # the trailing wires and in chunks of part of one row
    rng = np.random.default_rng(2)
    F = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    for shape in ((2, 4, 8), (8, 4, 2)):
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x = rng.normal(size=1 << 7)
        z = x + 1j * rng.normal(size=1 << 7)
        want = np.einsum("ic,acb->aib", F, t).ravel()
        for slab in (simmod.SLAB_ENTRIES, 32, 8):
            monkeypatch.setattr(simmod, "SLAB_ENTRIES", slab)
            sv = StateVector(7, t, range(7), run=F)
            assert sv.norm == pytest.approx(np.linalg.norm(want), rel=1e-14)
            for v in (x, z):
                assert sv.overlap(v) == pytest.approx(np.vdot(want, v),
                                                      rel=1e-14)
            np.testing.assert_allclose(sv.amplitudes, want, rtol=0,
                                       atol=1e-14)


@pytest.mark.parametrize("draw", [16, 2])
def test_fidelity_on_the_block_equals_register_order(draw):
    # a held state built by hand: wires 0 and 5 of 8 are never written and
    # the held wires are out of register order; one layout has more
    # leading than trailing entries and one fewer, so overlap contracts
    # over each in turn, on two random draws
    rng = np.random.default_rng((5, draw))
    for wires, lead in (((6, 1, 3, 7, 2, 4), 2), ((4, 3, 7, 2, 6, 1), 1)):
        tail = len(wires) - lead - 3
        t = rng.normal(size=(1 << lead, 4, 1 << tail)) \
            + 1j * rng.normal(size=(1 << lead, 4, 1 << tail))
        t /= np.linalg.norm(t)
        F = _isometry(rng, 3, 2)
        sv = StateVector(8, t, wires, F)
        block = np.einsum("ic,acb->aib", F, t).reshape((2,) * len(wires))
        want = np.zeros((2,) * 8, dtype=complex)
        want[(0,) + (slice(None),) * 4 + (0,) + (slice(None),) * 2] = \
            block.transpose(np.argsort(wires))
        np.testing.assert_allclose(sv.amplitudes, want.ravel(), rtol=0,
                                   atol=1e-15)
        x = rng.normal(size=1 << 8)
        z = x + 1j * rng.normal(size=1 << 8)
        for v in (x / np.linalg.norm(x), z / np.linalg.norm(z),
                  sv.amplitudes[::-1].copy()):
            want = fidelity(sv.amplitudes, v)
            assert abs(fidelity(sv, v) - want) <= 1e-14
            assert abs(fidelity(v, sv) - want) <= 1e-14
        assert abs(fidelity(sv, sv) - 1.0) <= 1e-14


def test_a_real_held_array_meets_like_a_complex_one():
    # a real t is held as complex, and a complex t is held as given
    sv = StateVector(1, np.array([[[0.6], [0.8]]]), [0], np.eye(2))
    assert sv.norm == pytest.approx(1.0, abs=1e-15)
    assert sv.overlap(np.array([1.0, 0.0])) == pytest.approx(0.6, abs=1e-15)
    assert sv.overlap(np.array([0.0, 1j])) == pytest.approx(0.8j, abs=1e-15)
    t = np.ones((2, 2, 1), dtype=complex) / 2
    assert StateVector(2, t, [0, 1], np.eye(2)).before is t


def test_state_norm_reads_the_block():
    # half the wires of a 20-qubit register written: the norm neither
    # builds the register-order vector nor copies the block
    rng = np.random.default_rng(1)
    layout = [((0,), 0)] + [((k, k + 1), 1) for k in range(9)]
    sv = simulate(_circuit(20, layout, rng))
    tracemalloc.start()
    try:
        norm = sv.norm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "amplitudes" not in vars(sv)
    assert peak < sv.block.nbytes
    assert norm == pytest.approx(np.linalg.norm(sv.amplitudes), abs=1e-14)


def test_verify_circuit_peak_memory_below_one_complex_state():
    # the target is the one register-size array: simulating and meeting
    # it builds nothing complex of the register's size, whether the last
    # run is a network placement (qft-ttn) or the inverse DFT of the last
    # axis, whose output wires end the register (qft-gates)
    grid = GridSpec(4, 5, 20.0, 3)
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    ref = reference(grid, cov)
    for mode in ("qft-ttn", "qft-gates"):
        circ, rec = compile_circuit(cov, grid, 3, mode)
        assert circ.qubits == 20
        tracemalloc.start()
        try:
            out = verify_circuit(circ, rec, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["ok"], mode
        assert peak < 16 << circ.qubits, mode


def test_verify_pipeline_at_the_dense_cap_holds_one_block(monkeypatch):
    # on 24 qubits the real target is the one register-size array; above
    # it sits at most the 2^20-entry complex block the last run reads,
    # which that run's held state keeps as a view, not as a copy
    grid = GridSpec(4, 6, 20.0, 4)
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    hold, held = simmod._hold, []

    def spy(Q, psi, wires, run):
        sv = hold(Q, psi, wires, run)
        held.append((psi.size, np.shares_memory(sv.before, psi)))
        return sv

    monkeypatch.setattr(simmod, "_hold", spy)
    tracemalloc.start()
    try:
        rec = verify_pipeline(cov, grid, 4, "qft-ttn",
                              structure="auto-optimize")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["ok"] and rec["qubits"] == 24
    assert held[-1] == (1 << 20, True)
    assert peak <= (8 << 24) + (16 << 20) + (2 << 20)


def test_reference_peak_memory():
    # the dense target is the one register-size array: a complex one of
    # that size would double it, and fourier_ceiling works slab by slab
    grid = GridSpec(4, 5, 20.0, 3)
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    tracemalloc.start()
    try:
        target, ceiling = reference(grid, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.nbytes == 8 << 20
    assert 0.9 < ceiling <= 1.0
    assert peak <= 1.3 * target.nbytes


def test_fidelity_basics():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    e0 = np.zeros(8)
    e0[0] = 1.0
    e1 = np.zeros(8)
    e1[1] = 1.0
    assert fidelity(e0, e1) == 0.0
    assert fidelity(e0, (e0 + e1) / np.sqrt(2)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ShapeError):
        fidelity(e0, np.zeros(4))
    # e0 held as a 1x1 identity run on no wires, as simulate starts
    sv = StateVector(3, np.ones((1, 1, 1), dtype=complex), (), np.eye(1))
    assert fidelity(sv, e0) == 1.0
    assert fidelity(e1, sv) == 0.0


def test_fidelity_of_complex_and_real_makes_no_copy():
    # a real target meets a simulated 20-qubit chain state, whose last run
    # reads one wire behind 14 leading ones, without a register-size copy
    rng = np.random.default_rng(0)
    layout = [((0,), 0)] + [((k, k + 1), 1) for k in range(19)]
    sv = simulate(_circuit(20, layout, rng))
    N = 1 << 20
    x = sv.block.ravel().real + 0.5 * rng.normal(size=N) / np.sqrt(N)
    x /= np.linalg.norm(x)
    del vars(sv)["block"]
    tracemalloc.start()
    try:
        got = fidelity(x, sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "block" not in vars(sv)
    want = abs(np.vdot(sv.amplitudes, x)) ** 2
    assert got == pytest.approx(want, rel=1e-12)
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [1, 4095, 4097, 3 * 4096 + 5])
def test_fidelity_of_complex_and_real_any_length(n):
    # two plain arrays of mixed dtype meet in one vdot, in either order
    rng = np.random.default_rng(n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = z.real + rng.normal(size=n)
    want = abs(np.vdot(z, x.astype(complex))) ** 2
    assert fidelity(z, x) == pytest.approx(want, rel=1e-12)
    assert fidelity(x, z) == pytest.approx(want, rel=1e-12)


# -- pipeline ---------------------------------------------------------------------


def test_pipeline_diagonal_product_state():
    cov = make_covariance("uniform", 2, rho=0.0)
    rec = verify_pipeline(cov, GridSpec(2, 6, 20.0, 4), chi=1)
    assert rec["simulated_fidelity"] >= 1 - 1e-4
    assert rec["ok"]


def test_pipeline_pair_truncation_dominates():
    cov = make_covariance("uniform", 2, rho=0.6)
    rec = verify_pipeline(cov, GridSpec(2, 6, 20.0, 4), chi=2)
    np.testing.assert_allclose(rec["simulated_fidelity"],
                               8.0 / 9.0 + 8.0 / 81.0, atol=2e-2)
    assert rec["ok"]


def test_pipeline_three_dim_chain_regression():
    cov = make_covariance("chain", 3, rho=0.5)
    rec = verify_pipeline(cov, GridSpec(3, 6, 20.0, 4), chi=8)
    assert 1.0 - rec["simulated_fidelity"] <= 1e-3
    assert rec["ok"]


def test_pipeline_fidelity_ceiling():
    for chi in (1, 2, 4):
        cov = make_covariance("uniform", 2, rho=0.4)
        rec = verify_pipeline(cov, GridSpec(2, 5, 20.0, 4), chi=chi)
        assert rec["simulated_fidelity"] <= rec["fourier_fidelity"] + 1e-10
        assert rec["simulated_fidelity"] <= 1 + 1e-10
        assert rec["ceiling_ok"]


def test_pipeline_capacity_guard():
    cov = make_covariance("uniform", 4, rho=0.1)
    with pytest.raises(CapacityError):
        verify_pipeline(cov, GridSpec(4, 7, 20.0, 4), chi=2)


def test_pipeline_qft_gates_mode():
    cov = make_covariance("uniform", 2, rho=0.5)
    rec = verify_pipeline(cov, GridSpec(2, 6, 20.0, 4), chi=4,
                          mode="qft-gates")
    assert rec["simulated_fidelity"] >= 0.99
    assert rec["qft_cnots"] > 0
    assert rec["ok"]


def test_compile_record_fields():
    cov = make_covariance("random", 3, sigma_max=0.2, seed=5)
    circ, rec = compile_circuit(cov, GridSpec(3, 5, 16.0, 3), chi=4)
    for key in ("dim", "n", "m", "chi", "chi_prime", "mode", "structure",
                "seed", "tci_evals", "tci_residual", "tci_converged",
                "tci_sweeps", "tci_growth", "tree",
                "ledger_fidelity", "cnot_count", "qft_cnots", "depth",
                "qubits"):
        assert key in rec, key
    assert rec["qubits"] == circ.qubits == 15
    assert 0 < rec["ledger_fidelity"] <= 1
    assert rec["cnot_count"] == circ.cost.cnot_count
    assert len(rec["tci_growth"]) == rec["tci_sweeps"] >= 1


def test_compile_structure_policies_guarded():
    cov = make_covariance("random", 3, sigma_max=0.2, seed=1)
    grid = GridSpec(3, 5, 16.0, 3)
    with pytest.raises(ParameterError):
        compile_circuit(cov, grid, 4, structure="nonsense")
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(3), 3, 8)
    with pytest.raises(ParameterError):
        compile_circuit(cov, grid, 4, structure="exhaustive-optimal",
                        topology=topo)
    big = make_covariance("random", 7, sigma_max=0.2, seed=1)
    with pytest.raises(CapacityError):
        compile_circuit(big, GridSpec(7, 5, 16.0, 3), 4,
                        structure="exhaustive-optimal")


def test_compile_policies_report_search_metadata():
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    grid = GridSpec(4, 5, 16.0, 3)
    _, fixed = compile_circuit(cov, grid, 3, structure="fixed")
    assert "reconnections" not in fixed
    _, auto = compile_circuit(cov, grid, 3, structure="auto-optimize")
    assert "reconnections" in auto
    _, exh = compile_circuit(cov, grid, 3, structure="exhaustive-optimal")
    assert exh["trees_scanned"] == 3  # distinct 4-leaf shapes
    assert exh["ledger_fidelity"] >= fixed["ledger_fidelity"] - 1e-12
    _, worst = compile_circuit(cov, grid, 3, structure="fixed-worst")
    assert worst["ledger_fidelity"] <= exh["ledger_fidelity"] + 1e-12


def _count_tci_builds(monkeypatch):
    import ttnprep.sim as simmod

    calls = []
    inner = simmod.tci_build

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(simmod, "tci_build", counted)
    return calls


def _caterpillar_start(D, seed, M):
    perm = np.random.default_rng(seed).permutation(D)
    return TreeTopology.from_leaf_tree(_shuffled_caterpillar(D, perm), D, M)


@pytest.mark.parametrize("D,start", [(4, False), (8, True)])
def test_auto_optimize_interpolates_once(D, start, monkeypatch):
    calls = _count_tci_builds(monkeypatch)
    cov = make_covariance("random", D, sigma_max=0.2, seed=2)
    grid = GridSpec(D, 3, 16.0, 2)
    topo = _caterpillar_start(D, 0, grid.M) if start else None
    _, rec = compile_circuit(cov, grid, 2, "qft-gates", chi_prime=4,
                             structure="auto-optimize", topology=topo,
                             sweeps=1)
    assert len(calls) == 1
    assert rec["tree"] is not None
    built = TreeTopology.from_leaf_tree(rec["tree"], D, grid.M)
    assert calls[0].bipartitions() == built.bipartitions()


@pytest.mark.parametrize("seed", [0, 1])
def test_auto_optimize_beats_or_keeps_its_start(seed):
    cov = make_covariance("random", 4, sigma_max=0.2, seed=seed)
    grid = GridSpec(4, 3, 16.0, 2)
    for start in (_caterpillar_start(4, seed, grid.M),
                  TreeTopology.mps(list(range(4)), grid.M)):
        _, rec = compile_circuit(cov, grid, 2, "qft-gates", chi_prime=4,
                                 structure="auto-optimize", topology=start,
                                 sweeps=1)
        # equal up to the order of the product when the start is kept
        assert rec["predicted_fidelity"] >= \
            predict_ttn_fidelity(cov, start, 2) * (1 - 1e-12)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_auto_optimize_small_dims_build_the_base_tree(D, monkeypatch):
    cov = make_covariance("random", D, sigma_max=0.2, seed=0)
    grid = GridSpec(D, 3, 16.0, 2)
    _, fixed = compile_circuit(cov, grid, 2, "qft-gates", chi_prime=4,
                               sweeps=1)
    calls = _count_tci_builds(monkeypatch)
    _, auto = compile_circuit(cov, grid, 2, "qft-gates", chi_prime=4,
                              structure="auto-optimize", sweeps=1)
    assert len(calls) == 1
    assert auto["tree"] == fixed["tree"]


def _scale_invariance_instances():
    rng = np.random.default_rng(1010)
    tree = random_leaf_tree(8, rng)
    perm = rng.permutation(8)
    grid = GridSpec(8, 5, 16.0, 3)
    start = TreeTopology.from_leaf_tree(_shuffled_caterpillar(8, perm), 8,
                                        grid.M)
    auto = (make_covariance("tree", 8, edges=tree, sigma=3.0), grid, 8,
            "qft-gates", dict(chi_prime=32, structure="auto-optimize",
                              topology=start, sweeps=2, seed=10))
    fixed = (make_covariance("random", 6, sigma_max=0.2, seed=3),
             GridSpec(6, 6, 20.0, 4), 6, "qft-ttn", dict(sweeps=4, seed=3))
    return auto, fixed


@pytest.mark.parametrize("case", [0, 1], ids=["auto-d8", "fixed-d6"])
def test_compile_ignores_the_coefficients_scale(case, monkeypatch):
    # every decision is relative to the peak and synthesis normalizes, so
    # a power-of-two scale of the coefficients moves no bit of the record
    cov, grid, chi, mode, kw = _scale_invariance_instances()[case]
    keys = ("cnot_count", "depth", "ledger_fidelity", "tci_evals",
            "tci_residual")
    _, rec = compile_circuit(cov, grid, chi, mode, **kw)
    want = {k: rec[k] for k in keys}
    block, indices = FourierEvaluator.eval_block, FourierEvaluator.eval_indices
    for scale in (2.0 ** -30, 2.0 ** 7):
        monkeypatch.setattr(FourierEvaluator, "eval_block",
                            lambda ev, parts: scale * block(ev, parts))
        monkeypatch.setattr(FourierEvaluator, "eval_indices",
                            lambda ev, s: scale * indices(ev, s))
        _, rec = compile_circuit(cov, grid, chi, mode, **kw)
        assert {k: rec[k] for k in keys} == want, scale


@pytest.mark.parametrize("structure", STRUCTURE_POLICIES)
def test_compile_builds_one_evaluator(structure, monkeypatch):
    import ttnprep.sim as simmod

    built = []

    def counted(*args):
        built.append(args)
        return FourierEvaluator(*args)

    monkeypatch.setattr(simmod, "FourierEvaluator", counted)
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    compile_circuit(cov, GridSpec(4, 4, 16.0, 2), 2, "qft-gates",
                    chi_prime=4, structure=structure, sweeps=1)
    assert len(built) == 1


def test_verify_calls_each_stage_through_the_module(monkeypatch):
    # the benchmark reads the circuit and the target through these names
    import ttnprep.sim as simmod

    calls = []

    def counting(name):
        inner = getattr(simmod, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapped

    for name in ("compile_circuit", "exact_target", "simulate"):
        monkeypatch.setattr(simmod, name, counting(name))
    cov = make_covariance("chain", 2, rho=0.5)
    verify_pipeline(cov, GridSpec(2, 3, 16.0, 2), chi=2, chi_prime=4,
                    sweeps=1)
    assert sorted(calls) == ["compile_circuit", "exact_target", "simulate"]


def _placements(circ):
    return [(p.targets, p.in_qubits, p.kind, p.matrix.tobytes())
            for p in circ.placements]


def test_compile_depends_on_the_tree_not_its_edge_list():
    # one caterpillar written four ways: sorted, reversed, with each pair
    # flipped, and with its internal vertices renumbered
    D = 8
    edges = sorted(caterpillar_leaf_tree(D))
    rename = dict(zip(range(D, 2 * D - 2),
                      np.random.default_rng(5).permutation(range(20, 26))))
    ways = (edges, edges[::-1], [(v, u) for u, v in edges],
            [(rename.get(u, u), rename.get(v, v)) for u, v in edges])
    cov = make_covariance("random", D, sigma_max=0.2, seed=7)
    grid = GridSpec(D, 3, 16.0, 2)
    built = [compile_circuit(cov, grid, 4, "qft-gates", chi_prime=8,
                             topology=TreeTopology.from_leaf_tree(
                                 w, D, grid.M), sweeps=2, seed=7)
             for w in ways]
    (circ, rec), rest = built[0], built[1:]
    for other_circ, other in rest:
        assert other == rec
        assert _placements(other_circ) == _placements(circ)


@pytest.mark.parametrize("mode", ["qft-ttn", "qft-gates"])
def test_scan_ends_are_the_scan_policies(mode):
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    grid = GridSpec(4, 4, 16.0, 3)
    ranked = scan_trees(cov, grid, 3, mode, chi_prime=8, sweeps=2, seed=1)
    assert len(ranked) == 3  # distinct 4-leaf shapes
    for (circ, rec), structure in ((ranked[0], "exhaustive-optimal"),
                                   (ranked[-1], "fixed-worst")):
        want_circ, want = compile_circuit(cov, grid, 3, mode, chi_prime=8,
                                          structure=structure, sweeps=2,
                                          seed=1)
        assert rec["structure"] is None
        assert want["structure"] == structure
        assert list(rec) == list(want)
        assert {k: v for k, v in rec.items() if k != "structure"} == \
            {k: v for k, v in want.items() if k != "structure"}
        assert _placements(circ) == _placements(want_circ)


def test_scan_trees_ranks_best_ledger_then_fewest_cnots():
    cov = make_covariance("random", 5, sigma_max=0.2, seed=4)
    ranked = scan_trees(cov, GridSpec(5, 3, 16.0, 2), 2, "qft-gates",
                        chi_prime=4, sweeps=1)
    keys = [(-r["ledger_fidelity"], r["cnot_count"]) for _, r in ranked]
    assert keys == sorted(keys)
    assert len(ranked) == ranked[0][1]["trees_scanned"] == 15
    trees = [r["tree"] for _, r in ranked]
    assert len({str(t) for t in trees}) == 15


def test_scan_trees_past_six_leaves_builds_nothing(monkeypatch):
    import ttnprep.sim as simmod

    built = []
    monkeypatch.setattr(simmod, "FourierEvaluator",
                        lambda *a: built.append(a))
    cov = make_covariance("random", 7, sigma_max=0.2, seed=1)
    with pytest.raises(CapacityError):
        scan_trees(cov, GridSpec(7, 3, 16.0, 2), 2, "qft-gates")
    assert built == []


def test_verify_pipeline_is_reference_compile_verify():
    cov = make_covariance("random", 2, sigma_max=0.2, seed=2)
    grid = GridSpec(2, 5, 12.0, 3)
    got = verify_pipeline(cov, grid, 2, "qft-gates", sweeps=3, seed=2)
    ref = reference(grid, cov)
    circ, rec = compile_circuit(cov, grid, 2, "qft-gates", sweeps=3, seed=2)
    want = verify_circuit(circ, rec, ref)
    assert got == want and list(got) == list(want)
    assert "simulated_fidelity" not in rec  # the compile record is kept
    target, ceiling = ref
    assert target.shape == (2 ** 10,)
    assert np.linalg.norm(target) == pytest.approx(1.0, abs=1e-12)
    assert 0.99 < ceiling <= 1 + 1e-12


def test_reference_respects_dense_cap(monkeypatch):
    # exact_target owns the cap and checks it before it builds anything
    import ttnprep.sim as simmod

    monkeypatch.setattr(simmod, "fourier_ceiling",
                        lambda *a: pytest.fail("took a Fourier ceiling"))
    with pytest.raises(CapacityError, match="dense target"):
        reference(GridSpec(4, 7, 20.0, 4),
                  make_covariance("uniform", 4, rho=0.1))


def test_structure_policy_names_stable():
    assert STRUCTURE_POLICIES == ("fixed", "auto-optimize",
                                  "exhaustive-optimal", "fixed-worst")


def test_baseline_comparison_ratios():
    cov = make_covariance("random", 3, sigma_max=0.2, seed=7)
    _, rec = compile_circuit(cov, GridSpec(3, 6, 16.0, 4), chi=4,
                             mode="qft-gates")
    cmp = baseline_comparison(rec)
    assert cmp["baseline_cnots"] == 2 ** 12
    assert cmp["cnot_ratio"] == rec["cnot_count"] / 2 ** 12
    assert cmp["baseline_qft_cnots"] == 12 * 11 // 2
    assert 0 < cmp["cnot_ratio"] < 1
    assert cmp["depth_ratio"] < 1
