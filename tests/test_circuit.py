"""Inverse-DFT network, composition, synthesis, and the cost model."""

import json
import tracemalloc

import numpy as np
import pytest

from ttnprep import (BlackBoxTensor, CapacityError, CircuitValidityError,
                     CostReport, ParameterError, Placement, QuantumCircuit,
                     ShapeError, TreeTopology,
                     build_qft_ttn, compose_and_compress, fsl_baseline_cost,
                     make_covariance, qubitize, synthesize, tci_build,
                     with_inverse_dft)
from ttnprep.fourier import (FourierEvaluator, GridSpec, dense_coeff_tensor,
                             exact_target, inverse_dft_embedding_matrix)
from ttnprep.ttn import from_dense, random_mps


# -- inverse-DFT network ---------------------------------------------------------


def test_qft_single_qubit_is_hadamard():
    w = build_qft_ttn(1, 1).matrix()
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(w, want, atol=1e-12)


def test_qft_plane_wave_column():
    w = build_qft_ttn(3, 2).matrix()
    b = np.arange(8)
    np.testing.assert_allclose(w[:, 1], np.exp(2j * np.pi * b / 8) / np.sqrt(8),
                               atol=1e-12)
    # stored index 3 wraps to wavenumber -1
    np.testing.assert_allclose(w[:, 3], np.exp(-2j * np.pi * b / 8) / np.sqrt(8),
                               atol=1e-12)


def test_qft_matches_embedding_matrix():
    for n in range(1, 8):
        for m in {1, (n + 1) // 2, n}:
            got = build_qft_ttn(n, m).matrix()
            np.testing.assert_allclose(
                got, inverse_dft_embedding_matrix(n, m), atol=1e-10,
                err_msg=f"n={n} m={m}")


def test_qft_copy_bond_and_chain_shapes():
    qft = build_qft_ttn(8, 5)
    assert qft.copy_bond == 32
    chain = qft.chain_tensors()
    assert len(chain) == 8
    assert chain[0].shape[0] == 32
    assert max(t.shape[0] for t in chain) == 32
    assert chain[-1].ndim == 2


def test_qft_chain_holds_no_phase_tables():
    # a table of every residue would hold 2**22 complex entries (64 MB)
    tracemalloc.start()
    try:
        build_qft_ttn(20, 3).chain_tensors()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_qft_chain_past_the_dense_cap_is_refused():
    # the first chain tensor at m = n = 14 is (2**14, 2, 2**13) complex,
    # 4 GB; it is refused before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_qft_ttn(14, 14).chain_tensors()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_qft_labels_msb_first():
    labels = build_qft_ttn(3, 2).qubit_labels(7)
    assert labels == [(7, 2), (7, 1), (7, 0)]


# -- composition ------------------------------------------------------------------


def _coeff_net_1d(n=6, m=4):
    cov = make_covariance("uniform", 1, rho=0.0)
    ev = FourierEvaluator(GridSpec(1, n, 20.0, m), cov)
    dense = dense_coeff_tensor(ev)
    net = from_dense(dense, TreeTopology.from_leaf_tree((), 1, 2 ** m))
    return net, cov


def test_compose_one_dim_hits_target():
    net, cov = _coeff_net_1d()
    out = compose_and_compress(net, build_qft_ttn(6, 4), chi=8)
    assert sorted(out.labels()) == [(0, j) for j in range(6)]
    vec = out.contract_to_vector()
    target = exact_target(GridSpec(1, 6, 20.0, 6), cov)
    fid = abs(np.vdot(vec, target)) ** 2 / np.vdot(vec, vec).real
    assert fid >= 0.999


def test_compose_fidelity_monotone_in_chi():
    net, cov = _coeff_net_1d()
    target = exact_target(GridSpec(1, 6, 20.0, 6), cov)
    fids = []
    for chi in (1, 2, 4, 8):
        out = compose_and_compress(net.copy(), build_qft_ttn(6, 4), chi=chi)
        vec = out.contract_to_vector()
        fids.append(abs(np.vdot(vec, target)) ** 2 / np.vdot(vec, vec).real)
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))


def test_compose_product_distribution_has_unit_cross_bond():
    cov = make_covariance("uniform", 2, rho=0.0)
    ev = FourierEvaluator(GridSpec(2, 4, 20.0, 3), cov)
    net = from_dense(dense_coeff_tensor(ev), TreeTopology.mps([0, 1], 8))
    out = compose_and_compress(net, build_qft_ttn(4, 3), chi=4)
    dims0 = {lab for lab in out.labels() if lab[0] == 0}
    # bonds that split the two dimensions cleanly must carry rank 1
    found = False
    for bond, left, right in out.topology().bipartitions():
        if left == frozenset(dims0) or right == frozenset(dims0):
            eid = out.bond_between(*bond)
            assert out.edge_dim(eid) == 1
            found = True
    assert found


def test_qubitize_preserves_state():
    net, _ = _coeff_net_1d(n=4, m=4)
    before = net.contract_to_vector()
    q = qubitize(net)
    assert sorted(q.labels()) == [(0, j) for j in range(4)]
    np.testing.assert_allclose(q.contract_to_vector(), before, atol=1e-12)


# -- placements and cost rules -----------------------------------------------------


def _haar_isometry(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, _ = np.linalg.qr(a)
    return q[:, :cols]


def test_placement_cost_rules():
    iso = _haar_isometry(4, 2, 0)
    p = Placement((0, 1), 1, iso, "isometry")
    assert p.cnots == 8  # 2**(1+2)
    assert p.out_qubits == 2
    prep = Placement((0, 1), 0, _haar_isometry(4, 1, 1), "prep")
    assert prep.cnots == 4
    qft = Placement((0, 1, 2), 3, np.eye(8), "qft")
    assert qft.cnots == 3


def test_placement_rejects_non_isometry():
    bad = np.ones((4, 2))
    with pytest.raises(CircuitValidityError):
        Placement((0, 1), 1, bad, "isometry").validate()


def test_placement_rejects_nan_matrix():
    # a NaN defect compares false with every tolerance
    nan = Placement((3,), 0, np.array([[np.nan], [1.0]]), "prep")
    with pytest.raises(CircuitValidityError, match=r"\(3,\)"):
        nan.validate()


def test_single_node_two_qubit_synthesis():
    t = _haar_isometry(4, 1, 2).reshape(2, 2)
    topo = TreeTopology(bonds=(), leaves=((0, "a", 2), (0, "b", 2)))
    net = from_dense(t, topo)
    circ, cost = synthesize(net)
    assert len(circ.placements) == 1
    assert circ.placements[0].kind == "prep"
    assert cost.cnot_count == 4
    assert cost.depth == 4


def _recompute(placements):
    """Replay the pricing rules: total CNOTs and longest root-to-leaf path."""
    cnots = 0
    depth_at: dict[int, int] = {}
    best = 0
    for plc in placements:
        if plc.kind == "qft":
            continue
        cnots += plc.cnots
        assert plc.cnots == 2 ** (plc.in_qubits + len(plc.targets))
        ins = plc.targets[:plc.in_qubits]
        start = max((depth_at.get(w, 0) for w in ins), default=0)
        total = start + plc.cnots
        for w in plc.targets:
            depth_at[w] = total
        best = max(best, total)
    return cnots, best


def test_cost_recompute_on_path_tree():
    net = random_mps(4, 2, 2, np.random.default_rng(40))
    circ, cost = synthesize(net)
    cnots, depth = _recompute(circ.placements)
    assert cost.cnot_count == cnots
    assert cost.depth == depth
    # a path visits every node, so depth equals the full cnot count
    assert cost.depth == cost.cnot_count


def test_cost_recompute_on_branching_tree():
    rng = np.random.default_rng(41)
    t = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    t /= np.linalg.norm(t)
    topo = TreeTopology.from_leaf_tree(((0, 3), (1, 3), (2, 3)), 3, 2)
    net = from_dense(t, topo)
    circ, cost = synthesize(net)
    cnots, depth = _recompute(circ.placements)
    assert cost.cnot_count == cnots
    assert cost.depth == depth
    assert cost.depth < cost.cnot_count  # siblings run in parallel


def test_synthesis_pads_odd_bonds_to_isometries():
    net = random_mps(5, 2, 8, np.random.default_rng(42))
    net.truncate(chi=3)
    assert 3 in net.bond_dims().values()
    circ, cost = synthesize(net)
    circ.validate()  # every placement isometric despite padding
    cnots, depth = _recompute(circ.placements)
    assert cost.cnot_count == cnots and cost.depth == depth


def test_synthesis_rejects_wide_physical_legs():
    net = random_mps(3, 4, 2, np.random.default_rng(43))
    with pytest.raises(ShapeError):
        synthesize(net)


def test_fsl_baseline_costs():
    assert fsl_baseline_cost(1, 8, 1).cnot_count == 2
    assert fsl_baseline_cost(4, 8, 5).cnot_count == 2 ** 20
    assert fsl_baseline_cost(2, 8, 3).cnot_count == 64
    rep = fsl_baseline_cost(2, 8, 3)
    assert rep.qft_cnots == 6 * 5 // 2
    assert rep.depth == 64 + 8
    assert rep.total_cnots == 64 + 15


def test_with_inverse_dft_pricing():
    net, _ = _coeff_net_1d(n=4, m=2)
    q = qubitize(net)
    circ, cost = synthesize(q)
    full = with_inverse_dft(circ, 4)
    assert full.cost.cnot_count == cost.cnot_count
    assert full.cost.qft_cnots == 4 * 3 // 2
    assert full.cost.depth == cost.depth + 4
    assert full.qubits == 4  # fresh wires for the n - m extra bits
    kinds = [p.kind for p in full.placements]
    assert kinds.count("qft") == 1


def test_with_inverse_dft_shares_one_read_only_matrix():
    circ, _ = synthesize(qubitize(random_mps(3, 4, 3,
                                             np.random.default_rng(47))))
    full = with_inverse_dft(circ, 5)
    mats = [plc.matrix for plc in full.placements if plc.kind == "qft"]
    assert len(mats) == 3 and all(w is mats[0] for w in mats)
    assert not mats[0].flags.writeable
    np.testing.assert_array_equal(mats[0], inverse_dft_embedding_matrix(5, 2))


def test_a_real_box_stays_real_until_the_fourier_stage():
    # the coefficient network is float64 from the TCI assembly through
    # synthesis; complex enters with the inverse-DFT chains or placements
    grid = GridSpec(3, 4, 20.0, 2)
    ev = FourierEvaluator(grid, make_covariance("random", 3, sigma_max=0.2,
                                                seed=5))
    topo = TreeTopology.from_leaf_tree(((0, 3), (1, 3), (2, 3)), 3, grid.M)
    net, _ = tci_build(BlackBoxTensor.from_fourier(ev), topo, chi=4,
                       sweeps=2)
    assert net.dtype == np.float64
    q = qubitize(net)
    assert q.dtype == np.float64
    q.canonicalize(min(q.tensors))
    assert q.dtype == np.float64
    q.truncate(chi=2, tol=1e-12)
    assert {t.dtype for t in q.tensors.values()} == {np.dtype(float)}
    circ, _ = synthesize(q)
    assert {plc.matrix.dtype for plc in circ.placements} == {np.dtype(float)}
    full = with_inverse_dft(circ, grid.n)
    for plc in full.placements:
        assert plc.matrix.dtype == (complex if plc.kind == "qft" else float)
    composed = compose_and_compress(net, build_qft_ttn(grid.n, grid.m), 2)
    assert composed.dtype == np.complex128
    assert net.dtype == np.float64  # composition works on a copy


def test_cost_recompute_with_inverse_dft():
    # one pricing site: the coefficient placements give cnot_count and the
    # qft placements qft_cnots, whatever order the wires end up in
    circ, cost = synthesize(qubitize(random_mps(3, 4, 3,
                                                np.random.default_rng(46))))
    full = with_inverse_dft(circ, 4)
    cnots, depth = _recompute(full.placements)
    assert full.cost.cnot_count == cnots == cost.cnot_count
    assert full.cost.depth == depth + 4 == cost.depth + 4
    assert full.cost.qft_cnots == sum(plc.cnots for plc in full.placements
                                      if plc.kind == "qft") == 3 * 4 * 3 // 2


def test_with_inverse_dft_leaves_its_input_unchanged():
    # two dimensions, so appending fresh bits renumbers the wires
    circ, _ = synthesize(qubitize(random_mps(2, 4, 2,
                                             np.random.default_rng(45))))
    before = [plc.targets for plc in circ.placements]
    full = with_inverse_dft(circ, 3)
    assert [plc.targets for plc in circ.placements] == before
    assert full.qubits == 6
    assert full.placements[0].targets != before[0]


def test_circuit_json_roundtrip(tmp_path):
    net = random_mps(3, 2, 2, np.random.default_rng(44))
    circ, _ = synthesize(net)
    path = tmp_path / "circ.json"
    circ.save(path)
    back = QuantumCircuit.load(path)
    back.validate()
    assert back.qubits == circ.qubits
    assert len(back.placements) == len(circ.placements)
    for a, b in zip(back.placements, circ.placements):
        assert a.targets == b.targets and a.in_qubits == b.in_qubits
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)
    assert back.cost.to_dict() == circ.cost.to_dict()


@pytest.mark.parametrize("dtype", [float, complex])
def test_circuit_json_keeps_the_dtype(tmp_path, dtype):
    # a real circuit is stored as plain floats and loads back float64; a
    # complex one as [re, im] pairs and loads back complex128
    rng = np.random.default_rng(45)
    t = rng.normal(size=(2,) * 5).astype(dtype)
    if dtype is complex:
        t += 1j * rng.normal(size=t.shape)
    net = from_dense(t / np.linalg.norm(t), TreeTopology.mps(range(5), 2))
    circ, _ = synthesize(net)
    assert {plc.matrix.dtype for plc in circ.placements} == {np.dtype(dtype)}
    path = tmp_path / "circ.json"
    circ.save(path)
    d = json.loads(path.read_text())
    for pd in d["placements"]:
        assert pd["dtype"] == np.dtype(dtype).name
        assert isinstance(pd["matrix"][0], float if dtype is float else list)
    back = QuantumCircuit.load(path)
    back.validate()
    for a, b in zip(back.placements, circ.placements):
        assert a.matrix.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_circuit_json_reads_pairs_without_a_dtype_as_complex():
    # the format written before placements recorded their dtype: [re, im]
    # pairs and no dtype field
    mat = np.array([[1.0], [0.0]])
    d = {"qubits": 1, "labels": ["a"], "metrics": CostReport(2, 2).to_dict(),
         "placements": [{"targets": [0], "in_qubits": 0, "kind": "prep",
                         "matrix": [[1.0, 0.0], [0.0, 0.0]]}]}
    back = QuantumCircuit.from_dict(d)
    assert back.placements[0].matrix.dtype == np.complex128
    np.testing.assert_array_equal(back.placements[0].matrix, mat)
    for bad in ("float32", None):
        d["placements"][0]["dtype"] = bad
        with pytest.raises(ParameterError):
            QuantumCircuit.from_dict(d)


def test_cost_report_roundtrip():
    rep = CostReport(10, 6, 3)
    assert CostReport.from_dict(rep.to_dict()).to_dict() == rep.to_dict()
    assert rep.total_cnots == 13


def test_compressed_circuit_beats_baseline_tenfold():
    # random 4-dim instance at production grid parameters
    cov = make_covariance("random", 4, sigma_max=0.2, seed=0)
    grid = GridSpec(4, 8, 20.0, 5)
    from ttnprep import BlackBoxTensor
    f = BlackBoxTensor.from_fourier(FourierEvaluator(grid, cov))
    topo = TreeTopology.mps([0, 1, 2, 3], 32)
    coeff, _ = tci_build(f, topo, chi=8, sweeps=4, seed=0)
    net = compose_and_compress(coeff, build_qft_ttn(8, 5), chi=8)
    _, cost = synthesize(net)
    assert cost.cnot_count * 10 <= fsl_baseline_cost(4, 8, 5).cnot_count
