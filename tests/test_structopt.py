"""Entropy-guided reconnection moves, their sweep, and the tree search
on the covariance's cut spectra."""

import math

import numpy as np
import pytest

import time

from ttnprep import (ParameterError, ReconnectionChoice, TreeTopology,
                     local_reconnect, make_covariance, optimize_structure,
                     predict_ttn_fidelity)
from ttnprep import structopt
from ttnprep.structopt import MAX_SWEEPS, PAIRING_NAMES, covariance_tree
from ttnprep.fourier import FourierEvaluator, GridSpec, dense_coeff_tensor
from ttnprep.topology import caterpillar_leaf_tree, random_leaf_tree
from ttnprep.ttn import from_dense

PAIRED_01_23 = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5))
PAIRED_02_13 = ((0, 4), (2, 4), (1, 5), (3, 5), (4, 5))


def _splits(edges):
    return TreeTopology.from_leaf_tree(edges, 4, 2).splits()


def _bell_pairs_net(edges=PAIRED_01_23):
    # Bell(0,2) x Bell(1,3)
    t = np.zeros((2, 2, 2, 2))
    for p in range(2):
        for q in range(2):
            t[p, q, p, q] = 0.5
    topo = TreeTopology.from_leaf_tree(edges, 4, 2)
    return from_dense(t, topo)


def test_pairing_names_fixed_order():
    assert PAIRING_NAMES == ("ab|cd", "ac|bd", "ad|bc")


def test_reconnection_choice_must_pick_minimum():
    with pytest.raises(ParameterError):
        ReconnectionChoice(edge=0, entropies=(0.5, 0.1, 0.9), chosen=0,
                           accepted=True, step_fidelity=1.0)


def test_bell_pairs_reconnect_to_zero_entropy():
    net = _bell_pairs_net()
    before = net.contract_to_vector()
    e = net.bond_between(4, 5)
    net.canonicalize(4)
    choice = local_reconnect(net, e, chi=4)
    assert choice is not None
    assert choice.accepted
    ent = np.asarray(choice.entropies)
    assert choice.chosen == int(np.argmin(ent))
    np.testing.assert_allclose(ent.min(), 0.0, atol=1e-10)
    np.testing.assert_allclose(ent.max(), 2 * math.log(2), atol=1e-10)
    assert choice.step_fidelity == pytest.approx(1.0, abs=1e-12)
    # the new shape separates the Bell partners
    assert net.topology().splits() == _splits(PAIRED_02_13)
    np.testing.assert_allclose(net.contract_to_vector(), before, atol=1e-8)


def test_product_state_tie_keeps_incumbent():
    rng = np.random.default_rng(6)
    vecs = [rng.normal(size=2) for _ in range(4)]
    t = np.einsum("a,b,c,d->abcd", *vecs)
    t /= np.linalg.norm(t)
    topo = TreeTopology.from_leaf_tree(PAIRED_01_23, 4, 2)
    net = from_dense(t, topo)
    e = net.bond_between(4, 5)
    net.canonicalize(4)
    choice = local_reconnect(net, e, chi=4)
    assert choice is not None
    assert not choice.accepted
    np.testing.assert_allclose(choice.entropies, 0.0, atol=1e-10)
    assert net.topology().splits() == _splits(PAIRED_01_23)


def test_local_reconnect_skips_leaf_bonds():
    net = _bell_pairs_net()
    net.canonicalize(0)
    e = net.bond_between(0, 4)  # leaf side has no second outward leg
    with pytest.raises(ParameterError):
        local_reconnect(net, e, chi=4)


def _chain_coeff_net(edges, dim=4, rho=0.5, m=3, chi=6):
    cov = make_covariance("chain", dim, rho=rho)
    ev = FourierEvaluator(GridSpec(dim, 6, 20.0, m), cov)
    dense = dense_coeff_tensor(ev)
    topo = TreeTopology.from_leaf_tree(edges, dim, 2 ** m)
    net = from_dense(dense, topo)
    net.truncate(chi=chi)
    return net


def test_chain_in_natural_order_accepts_nothing():
    net = _chain_coeff_net(caterpillar_leaf_tree(4))
    net2, report = optimize_structure(net, chi=6)
    assert report["accepted_total"] == 0
    assert net2.topology().splits() == _splits(caterpillar_leaf_tree(4))


def test_chain_recovers_from_bad_pairing():
    net = _chain_coeff_net(PAIRED_02_13)
    net2, report = optimize_structure(net, chi=6)
    assert report["accepted_total"] >= 1
    assert net2.topology().splits() == _splits(caterpillar_leaf_tree(4))


def test_optimize_preserves_state_when_chi_ample():
    rng = np.random.default_rng(21)
    t = rng.normal(size=(2,) * 5) + 1j * rng.normal(size=(2,) * 5)
    t /= np.linalg.norm(t)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(5), 5, 2)
    net = from_dense(t, topo)
    before = net.contract_to_vector()
    net2, report = optimize_structure(net, chi=8)
    np.testing.assert_allclose(net2.contract_to_vector(), before, atol=1e-8)
    assert net2.ledger.product >= 1 - 1e-12


def test_optimize_canonicalizes_uncentered_net_at_smallest_node():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(2,) * 5) + 1j * rng.normal(size=(2,) * 5)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(5), 5, 2)
    net = from_dense(t / np.linalg.norm(t), topo)
    net.center = None
    # the dict order must not pick the node the sweep starts from
    net.tensors = dict(reversed(net.tensors.items()))
    assert next(iter(net.tensors)) != min(net.tensors)
    ref = net.copy().canonicalize(min(net.tensors))
    got, _ = optimize_structure(net, chi=3)
    want, _ = optimize_structure(ref, chi=3)
    assert got.tensors.keys() == want.tensors.keys()
    for u in want.tensors:
        np.testing.assert_array_equal(got.tensors[u], want.tensors[u])


def test_optimize_report_shape():
    net = _chain_coeff_net(PAIRED_02_13)
    _, report = optimize_structure(net, chi=6)
    assert len(report["sweeps"]) <= MAX_SWEEPS
    for row in report["sweeps"]:
        assert set(row) >= {"sweep", "attempts", "accepted"}
    assert report["accepted_total"] == sum(
        r["accepted"] for r in report["sweeps"])
    for choice in report["choices"]:
        assert isinstance(choice, ReconnectionChoice)


def test_sweep_visits_only_movable_bonds(monkeypatch):
    rng = np.random.default_rng(3)
    t = rng.normal(size=(2,) * 6)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(6), 6, 2)
    net = from_dense(t / np.linalg.norm(t), topo)
    calls = []

    def counted(net, e, chi):
        assert all(len(net.axes[x]) == 3 for x in net.edges[e].nodes)
        calls.append(e)
        return local_reconnect(net, e, chi)

    monkeypatch.setattr(structopt, "local_reconnect", counted)
    _, report = optimize_structure(net, chi=2)
    attempts = [row["attempts"] for row in report["sweeps"]]
    assert len(attempts) >= 2 and attempts == [3] * len(attempts)
    assert len(calls) == sum(attempts) == len(report["choices"])
    # every sweep visits the same bonds in id order
    assert calls == sorted(calls[:3]) * len(attempts)


# -- tree search on the covariance ----------------------------------------------


def _leaf_splits(edges, D):
    """Each edge's split of the leaves 0..D-1, as the side without leaf 0."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    splits = set()
    for u, v in edges:
        side, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for y in adj[x] - side - {u}:
                side.add(y)
                todo.append(y)
        leaves = frozenset(x for x in side if x < D)
        splits.add(leaves if 0 not in leaves else frozenset(range(D)) - leaves)
    return splits


def _nni_neighbors(edges, D):
    """Every tree one nearest-neighbor interchange away from edges."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = []
    for u, v in edges:
        if u < D or v < D:
            continue
        b = min(adj[u] - {v})
        for s in adj[v] - {u}:
            swap = {(u, b): (v, b), (b, u): (v, b),
                    (v, s): (u, s), (s, v): (u, s)}
            out.append([swap.get(e, e) for e in edges])
    return out


def test_covariance_tree_recovers_generator_trees():
    # drawn as scaling.recovery_study draws its D=8 instances
    t0 = time.monotonic()
    for g in range(48):
        rng = np.random.default_rng(1000 + g)
        tree = random_leaf_tree(8, rng)
        cov = make_covariance("tree", 8, edges=tree, sigma=3.0)
        edges, _ = covariance_tree(cov, 8)
        assert _leaf_splits(edges, 8) == _leaf_splits(tree, 8), g
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("D,seed,sigma_max,chi", [
    *((D, s, 0.2, chi) for D in (5, 6, 7, 8) for s in range(3)
      for chi in (2, 3)),
    (6, 38, 0.2, 2),  # the merge order leaves one NNI move to take
])
def test_covariance_tree_is_nni_locally_optimal(D, seed, sigma_max, chi):
    cov = make_covariance("random", D, sigma_max=sigma_max, seed=seed)
    edges, info = covariance_tree(cov, chi)
    topo = TreeTopology.from_leaf_tree(edges, D, 2)
    got = predict_ttn_fidelity(cov, topo, chi)
    assert info["predicted_fidelity"] == pytest.approx(got, rel=1e-12)
    assert len(_leaf_splits(edges, D)) == 2 * D - 3
    if (D, seed) == (6, 38):
        assert info["reconnections"] == 1
    for alt in _nni_neighbors(edges, D):
        other = TreeTopology.from_leaf_tree(alt, D, 2)
        assert predict_ttn_fidelity(cov, other, chi) <= got * (1 + 1e-12)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_covariance_tree_small_dims_skip_the_search(D):
    cov = make_covariance("random", D, sigma_max=0.2, seed=0)
    edges, info = covariance_tree(cov, 2)
    assert edges == caterpillar_leaf_tree(D)
    assert info["reconnections"] == 0


def test_covariance_tree_keeps_a_better_start():
    # a path with physical legs on every node truncates no single-leaf cut
    cov = make_covariance("random", 4, sigma_max=0.2, seed=1)
    mps = TreeTopology.mps(list(range(4)), 4)
    edges, info = covariance_tree(cov, 2, start=mps)
    assert edges is None
    assert info["predicted_fidelity"] == pytest.approx(
        predict_ttn_fidelity(cov, mps, 2), rel=1e-12)
    searched, alone = covariance_tree(cov, 2)
    assert searched is not None
    assert alone["predicted_fidelity"] < info["predicted_fidelity"]
