"""Network mechanics: canonical form, truncation ledger, contraction."""

import json
import math
import struct

import numpy as np
import pytest

from ttnprep import (Edge, FidelityLedger, NormalizationError,
                     ParameterError, TreeTensorNetwork, TreeTopology,
                     entanglement_entropy, frobenius_from_fidelity,
                     make_covariance)
from ttnprep.fourier import FourierEvaluator, GridSpec, dense_coeff_tensor
from ttnprep.sim import fidelity
from ttnprep.topology import enumerate_leaf_trees
from ttnprep import ttn
from ttnprep.ttn import from_dense, random_mps


# -- scalar helpers -------------------------------------------------------------


def test_frobenius_from_fidelity_values():
    assert frobenius_from_fidelity(1.0) == 0.0
    np.testing.assert_allclose(frobenius_from_fidelity(0.0), math.sqrt(2.0))
    np.testing.assert_allclose(frobenius_from_fidelity(0.99), 0.10013, atol=5e-6)
    with pytest.raises(ParameterError):
        frobenius_from_fidelity(1.5)
    with pytest.raises(ParameterError):
        frobenius_from_fidelity(-0.1)


def test_entropy_values():
    assert entanglement_entropy(np.array([1.0])) == 0.0
    np.testing.assert_allclose(
        entanglement_entropy(np.array([1.0, 1.0]) / math.sqrt(2)), math.log(2),
        rtol=1e-12)
    np.testing.assert_allclose(
        entanglement_entropy(np.array([math.sqrt(0.9), math.sqrt(0.1)])),
        0.32508, atol=5e-6)


def test_entropy_permutation_invariant_and_nonnegative():
    rng = np.random.default_rng(4)
    s = rng.uniform(0.1, 1.0, size=6)
    s /= np.linalg.norm(s)
    e = entanglement_entropy(np.sort(s)[::-1])
    np.testing.assert_allclose(entanglement_entropy(s), e, rtol=1e-12)
    assert e >= 0.0
    with pytest.raises(NormalizationError):
        entanglement_entropy(np.array([0.5, 0.5]))


def test_ledger_product_and_bound():
    led = FidelityLedger()
    led.record(0, 0.99)
    led.record(1, 0.98)
    np.testing.assert_allclose(led.product, 0.99 * 0.98, rtol=1e-12)
    np.testing.assert_allclose(led.frobenius_bound,
                               frobenius_from_fidelity(0.99 * 0.98), rtol=1e-12)
    with pytest.raises(ParameterError):
        led.record(2, 1.5)
    other = FidelityLedger()
    other.record(3, 0.9)
    led.extend(other)
    np.testing.assert_allclose(led.product, 0.99 * 0.98 * 0.9, rtol=1e-12)


# -- hand-built nets -------------------------------------------------------------


def _bell_net():
    topo = TreeTopology.mps([0, 1], 2)
    a0 = np.eye(2) / math.sqrt(2.0)  # (bond, phys)
    a1 = np.eye(2)
    return TreeTensorNetwork.from_topology(
        topo, {0: a0, 1: a1},
        {0: [("bond", (0, 1)), ("phys", 0)], 1: [("bond", (0, 1)), ("phys", 1)]},
        center=0)


def _product_zero_net():
    topo = TreeTopology.mps([0, 1, 2], 2)
    e0 = np.array([1.0, 0.0])
    return TreeTensorNetwork.from_topology(
        topo,
        {0: e0.reshape(1, 2), 1: e0.reshape(1, 1, 2), 2: e0.reshape(1, 2)},
        {0: [("bond", (0, 1)), ("phys", 0)],
         1: [("bond", (0, 1)), ("bond", (1, 2)), ("phys", 1)],
         2: [("bond", (1, 2)), ("phys", 2)]},
        center=1)


def test_bell_contraction():
    v = _bell_net().contract_to_vector()
    want = np.zeros(4)
    want[0] = want[3] = 1 / math.sqrt(2.0)
    np.testing.assert_allclose(v, want, atol=1e-14)


def test_product_state_contracts_to_first_basis_vector():
    v = _product_zero_net().contract_to_vector()
    want = np.zeros(8)
    want[0] = 1.0
    np.testing.assert_allclose(v, want, atol=1e-14)


def test_product_state_canonicalize_unit_tensors():
    net = _product_zero_net().canonicalize(0)
    for u, t in net.tensors.items():
        np.testing.assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)


# -- canonical form ---------------------------------------------------------------


def test_random_mps_is_canonical_and_normalized():
    net = random_mps(4, 2, 3, np.random.default_rng(0))
    assert net.center == 0
    np.testing.assert_allclose(net.norm(), 1.0, atol=1e-12)
    assert net.canonical_defect() < 1e-10


def test_canonicalize_isometry_oracle():
    # explicit gram-matrix check, independent of canonical_defect
    net = random_mps(4, 2, 3, np.random.default_rng(1)).canonicalize(2)
    for u in (0, 1, 3):
        toward = 1 if u == 0 else 2 if u == 1 else 3  # BFS parent toward 2
        e = net.bond_between(u, min(toward, u) if u == 3 else toward) \
            if u != 3 else net.bond_between(2, 3)
        pos = net.axes[u].index(e)
        mat = np.moveaxis(net.tensors[u], pos, -1).reshape(-1, net.tensors[u].shape[pos])
        gram = mat.conj().T @ mat
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-10)


def test_canonicalize_idempotent_and_state_preserving():
    net = random_mps(5, 2, 4, np.random.default_rng(2))
    before = net.contract_to_vector()
    net.canonicalize(0)
    np.testing.assert_allclose(net.contract_to_vector(), before, atol=1e-10)


def test_gauge_invariance_between_centers():
    net = random_mps(5, 2, 4, np.random.default_rng(5))
    a = net.copy().canonicalize(1).contract_to_vector()
    b = net.copy().canonicalize(4).contract_to_vector()
    np.testing.assert_allclose(a, b, atol=1e-10)
    c = net.copy().canonicalize(1).move_center(3)
    assert c.canonical_defect() < 1e-10
    np.testing.assert_allclose(c.contract_to_vector(), a, atol=1e-10)


def test_canonicalize_zero_state_rejected():
    net = _product_zero_net()
    net.tensors[1] = np.zeros_like(net.tensors[1])
    with pytest.raises(NormalizationError):
        net.canonicalize(0)


def test_normalize_zero_state_rejected():
    net = _product_zero_net()
    net.tensors[1] = np.zeros_like(net.tensors[1])
    net.center = None
    with pytest.raises(NormalizationError):
        net.normalize()


# -- truncation --------------------------------------------------------------------


def test_truncate_noop_when_chi_large():
    net = random_mps(4, 2, 3, np.random.default_rng(7))
    before = net.contract_to_vector()
    led = net.truncate(chi=5)
    assert led.product == 1.0
    np.testing.assert_allclose(net.contract_to_vector(), before, atol=1e-12)


def test_truncate_separable_state_padded_bonds():
    # product state stored wastefully at bond 4 collapses to chi=1 exactly
    rng = np.random.default_rng(8)
    vecs = [rng.normal(size=2) for _ in range(3)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    topo = TreeTopology.mps([0, 1, 2], 2)
    a0 = np.zeros((4, 2))
    a0[0] = vecs[0]
    a1 = np.zeros((4, 4, 2))
    a1[0, 0] = vecs[1]
    a2 = np.zeros((4, 2))
    a2[0] = vecs[2]
    net = TreeTensorNetwork.from_topology(
        topo, {0: a0, 1: a1, 2: a2},
        {0: [("bond", (0, 1)), ("phys", 0)],
         1: [("bond", (0, 1)), ("bond", (1, 2)), ("phys", 1)],
         2: [("bond", (1, 2)), ("phys", 2)]})
    net.canonicalize(0)
    led = net.truncate(chi=1)
    assert abs(led.product - 1.0) < 1e-10
    assert max(net.bond_dims().values()) == 1


def test_truncate_sweeps_bonds_in_preorder_from_center():
    # each cut sees the cuts before it, so the order is part of the result:
    # depth first from the center, each node's bonds in axes order
    edges = [(6, 7), (6, 8), (6, 9), (0, 7), (1, 7), (2, 8), (3, 8),
             (4, 9), (5, 9)]
    topo = TreeTopology(tuple(edges), tuple((i, i, 2) for i in range(6)))
    net = from_dense(np.random.default_rng(3).normal(size=(2,) * 6), topo)
    net.canonicalize(6)
    led = net.truncate(chi=1)
    assert [set(net.edges[e].nodes) for e, _ in led.steps] == [
        {6, 7}, {0, 7}, {1, 7}, {6, 8}, {2, 8}, {3, 8}, {6, 9}, {4, 9},
        {5, 9}]
    assert net.center == 6


def test_truncate_gaussian_pair_ledger_matches_spectrum():
    # rho = 0.6 coefficient matrix: kept mass at chi=2 is about
    # lambda0 + lambda1 = 8/9 + 8/81
    cov = make_covariance("uniform", 2, rho=0.6)
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 5), cov)
    dense = dense_coeff_tensor(ev)
    net = from_dense(dense, TreeTopology.mps([0, 1], 32))
    led = net.truncate(chi=2)
    np.testing.assert_allclose(led.product, 8.0 / 9.0 + 8.0 / 81.0, atol=2e-3)
    # dense SVD oracle pins the same number exactly
    s2 = np.linalg.svd(dense, compute_uv=False) ** 2
    np.testing.assert_allclose(led.product, s2[:2].sum() / s2.sum(), atol=1e-10)


def test_truncate_parameter_errors():
    net = random_mps(3, 2, 2, np.random.default_rng(9))
    with pytest.raises(ParameterError):
        net.truncate(chi=0)
    with pytest.raises(ParameterError):
        net.truncate()
    net.center = None
    with pytest.raises(ParameterError):
        net.truncate(chi=2)


def _random_tree_net(shape_idx, seed, chi=None):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    t /= np.linalg.norm(t)
    edges = enumerate_leaf_trees(4)[shape_idx]
    topo = TreeTopology.from_leaf_tree(edges, 4, 2)
    return from_dense(t, topo)


def _unrenormalized(net, led):
    # each step rescales the kept mass f to 1, so scaling the truncated
    # unit state by sqrt(product of f) undoes every rescaling
    return math.sqrt(led.product) * net.contract_to_vector()


def test_truncation_bound_property():
    # || psi - psi_trunc ||  <=  sqrt( sum_i eps_i^2 ), discarded mass per
    # step, for the truncation without renormalization
    for seed in range(6):
        net = random_mps(4, 2, 8, np.random.default_rng(100 + seed))
        orig = net.contract_to_vector()
        led = net.truncate(chi=2)
        err = np.linalg.norm(orig - _unrenormalized(net, led))
        bound = math.sqrt(sum(1.0 - f for _, f in led.steps))
        assert err <= bound + 1e-12
    for shape in range(3):
        net = _random_tree_net(shape, 50 + shape)
        orig = net.contract_to_vector()
        led = net.truncate(chi=1)
        err = np.linalg.norm(orig - _unrenormalized(net, led))
        bound = math.sqrt(sum(1.0 - f for _, f in led.steps))
        assert err <= bound + 1e-12


def test_ledger_soundness_against_contraction():
    # renormalizing sweep: ledger product within 1e-2 of the true fidelity
    for seed in range(6):
        net = random_mps(5, 2, 6, np.random.default_rng(200 + seed))
        orig = net.contract_to_vector()
        led = net.truncate(chi=2)
        fid = abs(np.vdot(orig, net.contract_to_vector())) ** 2
        assert abs(fid - led.product) <= 1e-2
        assert net.ledger.product == pytest.approx(led.product, rel=1e-12)


def test_truncate_tol_mode():
    net = random_mps(5, 2, 8, np.random.default_rng(33))
    orig = net.contract_to_vector()
    led = net.truncate(tol=1e-3)
    err = np.linalg.norm(orig - _unrenormalized(net, led))
    assert err <= 1e-3 * math.sqrt(len(led.steps)) + 1e-12


def test_bond_singulars_normalized_descending():
    net = random_mps(4, 2, 5, np.random.default_rng(11))
    for e, edge in net.edges.items():
        if edge.is_phys:
            continue
        s = net.bond_singulars(e)
        assert np.all(np.diff(s) <= 1e-14)
        np.testing.assert_allclose(np.sum(s ** 2), 1.0, atol=1e-10)


# -- evaluation, chains, serialization ----------------------------------------------


def test_evaluate_matches_contraction():
    net = random_mps(5, 2, 3, np.random.default_rng(13))
    v = net.contract_to_vector()
    bits = ((np.arange(32)[:, None] >> np.arange(4, -1, -1)) & 1)
    np.testing.assert_allclose(net.evaluate(bits), v, atol=1e-12)


@pytest.mark.parametrize("center", [0, 4, 5])
def test_evaluate_through_bond_only_nodes(center):
    # leaves 0..3 carry the physical legs; nodes 4 and 5 hold three bonds,
    # and the evaluation walk is rooted at the center
    topo = TreeTopology.from_leaf_tree(
        [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)], 4, 3)
    rng = np.random.default_rng(29)
    dense = rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)
    net = from_dense(dense, topo).canonicalize(center)
    assert [net.tensors[u].ndim for u in range(6)] == [2, 2, 2, 2, 3, 3]
    every = np.stack(np.unravel_index(np.arange(81), (3,) * 4), axis=1)
    np.testing.assert_allclose(net.evaluate(every), net.contract_to_vector(),
                               atol=1e-12)


@pytest.mark.parametrize("center", [0, 1])
def test_evaluate_bond_only_node_without_child_message(center):
    # node 1 has one bond and no physical leg: rooted at 0 it sends a
    # message without receiving one; rooted at 1 it receives one
    rng = np.random.default_rng(31)
    net = TreeTensorNetwork(
        {0: rng.normal(size=(3, 2)), 1: rng.normal(size=(2,))},
        {0: [0, 1], 1: [1]}, {0: Edge((0,), "x"), 1: Edge((0, 1))},
        center=center)
    np.testing.assert_allclose(net.evaluate(np.arange(3)[:, None]),
                               net.contract_to_vector(), atol=1e-12)


@pytest.mark.parametrize("hub_axes", [[0, 1], [1, 0]])
@pytest.mark.parametrize("center", [0, 1, 2])
def test_evaluate_merges_unbatched_and_batched_messages(center, hub_axes):
    # hub 0 holds bonds only, to pendant 1, which has no physical leg, and
    # to leaf 2. Rooted at 0, pendant 1's unbatched message meets the hub
    # while it is unbatched or, with the other axis order, batched
    rng = np.random.default_rng(37)
    dims = {0: 2, 1: 4}  # edge 0 joins nodes 0 and 1, edge 1 nodes 0 and 2

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    net = TreeTensorNetwork(
        {0: draw(*(dims[e] for e in hub_axes)), 1: draw(2), 2: draw(4, 3)},
        {0: hub_axes, 1: [0], 2: [1, 2]},
        {0: Edge((0, 1)), 1: Edge((0, 2)), 2: Edge((2,), "x")},
        center=center)
    np.testing.assert_allclose(net.evaluate(np.arange(3)[:, None]),
                               net.contract_to_vector(), atol=1e-12)


def test_attach_chain_matches_einsum_oracle():
    rng = np.random.default_rng(17)
    net = random_mps(2, 4, 3, rng)
    before = net.contract_to_vector().reshape(4, 4)
    first0 = rng.normal(size=(4, 2, 3))
    last0 = rng.normal(size=(3, 2))
    first1 = rng.normal(size=(4, 2, 2))
    last1 = rng.normal(size=(2, 2))
    net.attach_chain(0, [first0, last0], [(0, 0), (0, 1)])
    net.attach_chain(1, [first1, last1], [(1, 0), (1, 1)])
    got = net.contract_to_tensor()
    want = np.einsum("ad,apc,cq,dre,es->pqrs",
                     before, first0, last0, first1, last1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert set(net.labels()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_save_load_roundtrip(tmp_path):
    net = random_mps(4, 2, 3, np.random.default_rng(19))
    net.ledger.record(0, 0.987)
    path = tmp_path / "net.ttn"
    net.save(path)
    back = TreeTensorNetwork.load(path)
    np.testing.assert_allclose(back.contract_to_vector(),
                               net.contract_to_vector(), atol=1e-14)
    assert back.center == net.center
    np.testing.assert_allclose(back.ledger.product, net.ledger.product,
                               rtol=1e-12)
    with pytest.raises(ParameterError):
        bad = tmp_path / "junk.ttn"
        bad.write_bytes(b"not a container")
        TreeTensorNetwork.load(bad)


def _real_mps(rng):
    """A real bond-2 MPS on 4 qubits, canonical at node 0."""
    topo = TreeTopology.mps(list(range(4)), 2)
    return from_dense(rng.normal(size=(2,) * 4), topo)


@pytest.mark.parametrize("kind", ["float64", "complex128"])
def test_save_load_keeps_the_dtype(tmp_path, kind):
    rng = np.random.default_rng(23)
    net = _real_mps(rng) if kind == "float64" else random_mps(4, 2, 3, rng)
    assert net.dtype == kind
    path = tmp_path / "net.ttn"
    net.save(path)
    back = TreeTensorNetwork.load(path)
    assert back.dtype == kind
    assert all(t.dtype == kind for t in back.tensors.values())
    for u, t in net.tensors.items():
        np.testing.assert_array_equal(back.tensors[u], t)


def _write_container(path, net, dtype, cut=0):
    """A network container as every earlier version wrote it, with the
    header naming `dtype`, the tensors cast to complex128, and the last
    `cut` bytes left off."""
    nodes = sorted(net.tensors)
    header = {"dtype": dtype, "center": net.center,
              "nodes": [{"id": u, "axes": net.axes[u],
                         "shape": list(net.tensors[u].shape)} for u in nodes],
              "edges": [{"id": e, "nodes": list(ed.nodes), "label": ed.label}
                        for e, ed in sorted(net.edges.items())],
              "ledger": []}
    blob = json.dumps(header).encode()
    data = b"".join(np.asarray(net.tensors[u], dtype=complex).tobytes()
                    for u in nodes)
    path.write_bytes(ttn.MAGIC + struct.pack("<Q", len(blob)) + blob
                     + data[:len(data) - cut])


def test_load_reads_a_complex128_container_of_a_real_network(tmp_path):
    # every container written before networks kept their dtype says
    # complex128, whatever the values
    net = _real_mps(np.random.default_rng(29))
    path = tmp_path / "old.ttn"
    _write_container(path, net, "complex128")
    back = TreeTensorNetwork.load(path)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back.contract_to_vector(),
                                  net.contract_to_vector())


@pytest.mark.parametrize("dtype,cut", [("complex128", 1), ("complex128", 16),
                                       ("float32", 0), (None, 0)])
def test_load_rejects_a_short_payload_or_an_unknown_dtype(tmp_path, dtype,
                                                          cut):
    path = tmp_path / "bad.ttn"
    _write_container(path, _real_mps(np.random.default_rng(31)), dtype, cut)
    with pytest.raises(ParameterError):
        TreeTensorNetwork.load(path)


def test_network_dtype_follows_its_inputs():
    rng = np.random.default_rng(37)
    real = {0: rng.normal(size=(3, 2)), 1: np.ones(2, dtype=int)}
    axes = {0: [0, 1], 1: [1]}
    edges = {0: Edge((0,), "x"), 1: Edge((0, 1))}
    net = TreeTensorNetwork(real, axes, edges)
    assert {t.dtype for t in net.tensors.values()} == {np.dtype(float)}
    mixed = TreeTensorNetwork({**real, 1: real[1] + 0j}, axes, edges)
    assert {t.dtype for t in mixed.tensors.values()} == {np.dtype(complex)}
    topo = TreeTopology.mps([0, 1], 2)
    dense = rng.normal(size=(2, 2))
    assert from_dense(dense, topo).dtype == np.float64
    assert from_dense(dense + 0j, topo).dtype == np.complex128
    # a complex chain turns the whole network complex
    net = from_dense(dense, topo)
    net.attach_chain(0, [np.eye(2, dtype=complex)[:, :, None] * 1j,
                         np.ones((1, 2))], [(0, 0), (0, 1)])
    assert {t.dtype for t in net.tensors.values()} == {np.dtype(complex)}


def test_save_load_nested_labels(tmp_path):
    # labels such as ((d, j), k), as qubitize applied twice makes them
    net = random_mps(3, 2, 2, np.random.default_rng(21))
    for e, ed in list(net.edges.items()):
        if ed.is_phys:
            net.edges[e] = Edge(ed.nodes, ((ed.label, 0), 1))
    path = tmp_path / "nested.ttn"
    net.save(path)
    back = TreeTensorNetwork.load(path)
    assert back.labels() == net.labels() == [((i, 0), 1) for i in range(3)]
    np.testing.assert_array_equal(back.contract_to_vector(),
                                  net.contract_to_vector())


def test_from_dense_roundtrip_on_tree():
    rng = np.random.default_rng(23)
    t = rng.normal(size=(2, 3, 2, 2))
    t /= np.linalg.norm(t)
    edges = enumerate_leaf_trees(4)[1]
    topo = TreeTopology.from_leaf_tree(edges, 4, 2)
    # mixed physical dimensions via explicit leaves
    topo = TreeTopology(bonds=topo.bonds,
                        leaves=tuple((nd, lab, t.shape[lab])
                                     for nd, lab, _ in topo.leaves))
    net = from_dense(t, topo)
    assert net.canonical_defect() < 1e-10
    np.testing.assert_allclose(
        net.contract_to_tensor(), t, atol=1e-12)


def test_fidelity_between_nets():
    a = random_mps(4, 2, 3, np.random.default_rng(29))
    va = a.contract_to_vector()
    assert fidelity(va, a.copy().contract_to_vector()) == \
        pytest.approx(1.0, abs=1e-10)
    b = random_mps(4, 2, 3, np.random.default_rng(31))
    f = fidelity(va, b.contract_to_vector())
    want = abs(np.vdot(a.contract_to_vector(), b.contract_to_vector())) ** 2
    np.testing.assert_allclose(f, want, atol=1e-10)
