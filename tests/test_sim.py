"""Statevector execution and end-to-end pipeline verification."""

import tracemalloc

import numpy as np
import pytest

from ttnprep import (CapacityError, CircuitValidityError, CovarianceMatrix,
                     ParameterError, Placement, QuantumCircuit, ShapeError,
                     baseline_comparison, compile_circuit, fidelity,
                     make_covariance, predict_ttn_fidelity, reference,
                     scan_trees, simulate, synthesize, verify_circuit,
                     verify_pipeline)
from ttnprep.fourier import FourierEvaluator, GridSpec, exact_target
from ttnprep.scaling import _shuffled_caterpillar
import ttnprep.sim as simmod
from ttnprep.sim import STRUCTURE_POLICIES, StateVector
from ttnprep.topology import TreeTopology, caterpillar_leaf_tree
from ttnprep.ttn import random_mps


def _empty_circuit(qubits):
    from ttnprep.circuit import CostReport
    return QuantumCircuit(qubits, [], tuple(range(qubits)),
                          CostReport(0, 0, 0, []))


def test_empty_circuit_gives_all_zeros():
    psi = simulate(_empty_circuit(2))
    want = np.zeros(4)
    want[0] = 1.0
    np.testing.assert_allclose(psi.amplitudes, want, atol=1e-15)


def test_single_qubit_prep():
    h = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    from ttnprep.circuit import CostReport
    circ = QuantumCircuit(1, [Placement((0,), 0, h, "prep")], (0,),
                          CostReport(2, 2, 0, []))
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
    from ttnprep.circuit import CostReport
    circ = QuantumCircuit(
        2, [Placement((0,), 0, h, "prep"), Placement((1, 0), 0,
            np.array([[1.0], [0.0], [0.0], [0.0]]), "prep")],
        (0, 1), CostReport(6, 6, 0, []))
    with pytest.raises(CircuitValidityError):
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


def _isometry(rng, q, p):
    shape = (1 << q, 1 << p)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.linalg.qr(z)[0]


def _circuit(qubits, layout, rng):
    from ttnprep.circuit import CostReport
    pls = [Placement(tuple(t), p, _isometry(rng, len(t), p), "isometry")
           for t, p in layout]
    return QuantumCircuit(qubits, pls, tuple(range(qubits)),
                          CostReport(0, 0, 0, []))


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
    from ttnprep.circuit import CostReport
    keep0 = np.kron(_isometry(rng, 1, 1), np.array([[1.0], [0.0]]))
    circ = QuantumCircuit(3, [Placement((0,), 0, _isometry(rng, 1, 0)),
                              Placement((0, 1), 1, keep0),
                              Placement((2, 0, 1), 2, _isometry(rng, 3, 2))],
                          (0, 1, 2), CostReport(0, 0, 0, []))
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
    # with both placements in one run and in two
    monkeypatch.setattr(simmod, "FUSE_WIDTH", width)
    h = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    from ttnprep.circuit import CostReport
    circ = QuantumCircuit(
        2, [Placement((0,), 0, h, "prep"), Placement((1, 0), 0,
            np.array([[1.0], [0.0], [0.0], [0.0]]), "prep")],
        (0, 1), CostReport(6, 6, 0, []))
    assert _run_lengths(circ) == runs
    with pytest.raises(CircuitValidityError):
        simulate(circ)


@pytest.mark.parametrize("pieces", [16, 2])
def test_fidelity_on_the_block_equals_register_order(pieces, monkeypatch):
    # wires 0 and 5 are never written; small pieces split the block
    monkeypatch.setattr(simmod, "PIECE_QUBITS", pieces)
    qubits, layout = WIRE_LAYOUTS["unwritten-inputs"]
    rng = np.random.default_rng(5)
    circ = _circuit(qubits, layout, rng)
    sv = simulate(circ)
    assert len(sv.wires) < qubits
    x = rng.normal(size=1 << qubits)
    for v in (x / np.linalg.norm(x), sv.amplitudes[::-1].copy()):
        want = fidelity(sv.amplitudes, v)
        assert abs(fidelity(sv, v) - want) <= 1e-14
        assert abs(fidelity(v, sv) - want) <= 1e-14
    assert abs(fidelity(sv, sv) - 1.0) <= 1e-14


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


def test_reference_peak_memory():
    # the dense target is the one register-size array: a complex one of
    # that size would double it
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
    assert peak <= 2.5 * target.nbytes


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
    sv = StateVector(3, e0)
    assert fidelity(sv, e0) == 1.0


def test_fidelity_of_complex_and_real_makes_no_copy():
    rng = np.random.default_rng(0)
    N = 1 << 20
    z = rng.normal(size=N) + 1j * rng.normal(size=N)
    z /= np.linalg.norm(z)
    x = z.real + 0.5 * rng.normal(size=N) / np.sqrt(N)
    x /= np.linalg.norm(x)
    want = abs(np.einsum("i,i->", z.conj(), x)) ** 2
    tracemalloc.start()
    try:
        got = (fidelity(z, x), fidelity(x, StateVector(20, z)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == pytest.approx(want, rel=1e-12)
    assert got[1] == pytest.approx(want, rel=1e-12)
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [1, 4095, 4097, 3 * 4096 + 5])
def test_fidelity_of_complex_and_real_any_length(n):
    # lengths around the block size, so the remainder path runs
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
                "seed", "tci_evals", "tci_residual", "tci_converged", "tree",
                "ledger_fidelity", "cnot_count", "qft_cnots", "depth",
                "qubits"):
        assert key in rec, key
    assert rec["qubits"] == circ.qubits == 15
    assert 0 < rec["ledger_fidelity"] <= 1
    assert rec["cnot_count"] == circ.cost.cnot_count


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
    import ttnprep.sim as simmod

    monkeypatch.setattr(simmod, "exact_target",
                        lambda *a: pytest.fail("built a dense target"))
    with pytest.raises(CapacityError):
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
