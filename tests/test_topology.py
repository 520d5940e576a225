"""Tree shapes: construction, bipartitions, enumeration, splits."""

import numpy as np
import pytest

from ttnprep import ParameterError, TreeTopology
from ttnprep.topology import (caterpillar_leaf_tree, enumerate_leaf_trees,
                              random_leaf_tree, tree_distances, walk)


def _shape(edges, num_leaves):
    return TreeTopology.from_leaf_tree(edges, num_leaves, 2).splits()


def test_mps_topology_shape():
    topo = TreeTopology.mps([0, 1, 2, 3], 2)
    assert topo.labels() == [0, 1, 2, 3]
    assert len(topo.bonds) == 3
    assert all(d == 2 for d in topo.leaf_dims().values())


def test_bipartition_labels_complementary():
    topo = TreeTopology.mps([0, 1, 2], 2)
    for bond, left, right in topo.bipartitions():
        assert left | right == {0, 1, 2}
        assert not left & right
        assert topo.bipartition(bond) == (left, right)


def test_topology_rejects_cycles_and_forests():
    with pytest.raises(ParameterError):
        TreeTopology(bonds=((0, 1), (1, 2), (2, 0)), leaves=((0, 0, 2),))
    with pytest.raises(ParameterError):
        TreeTopology(bonds=(), leaves=((0, 0, 2), (1, 1, 2)))  # disconnected


def test_from_leaf_tree_star():
    # three leaves joined at one internal node
    edges = ((0, 3), (1, 3), (2, 3))
    topo = TreeTopology.from_leaf_tree(edges, 3, 2)
    assert topo.labels() == [0, 1, 2]
    degrees = {}
    for a, b in topo.bonds:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    assert max(degrees.values()) == 3


def test_from_leaf_tree_numbers_one_tree_one_way():
    # rooted at leaf 0, children by smallest leaf below, internals in
    # preorder, bonds sorted
    want = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5))
    for edges in (((3, 9), (0, 7), (9, 2), (7, 9), (1, 7)),
                  ((7, 0), (7, 1), (7, 9), (9, 2), (9, 3)),
                  ((5, 4), (3, 5), (2, 5), (1, 4), (0, 4))):
        assert TreeTopology.from_leaf_tree(edges, 4, 2).bonds == want
    cases = [(t, 6) for t in enumerate_leaf_trees(6)]
    cases.append((random_leaf_tree(9, np.random.default_rng(1)), 9))
    for edges, L in cases:
        topo = TreeTopology.from_leaf_tree(edges, L, 2)
        assert TreeTopology.from_leaf_tree(topo.bonds, L, 2) == topo
        assert _shape(topo.bonds, L) == _shape(edges, L)


def test_from_leaf_tree_keeps_the_caterpillar_as_written():
    for L in range(1, 17):
        edges = caterpillar_leaf_tree(L)
        assert TreeTopology.from_leaf_tree(edges, L, 2).bonds == \
            tuple(sorted(tuple(sorted(e)) for e in edges))


def test_from_leaf_tree_rejects_an_unlabeled_pendant_vertex():
    # vertex 4 has no leaf below it, so it has no place in the order
    with pytest.raises(ParameterError, match="degree below 2"):
        TreeTopology.from_leaf_tree([(0, 3), (1, 3), (2, 3), (3, 4)], 3, 2)


@pytest.mark.parametrize("edges,num_leaves", [
    ([(0, 3), (1, 3), (2, 3), (0, 1)], 3),   # cycle
    ([(0, 4), (1, 4), (2, 5), (3, 5)], 4),   # forest
    ([(0, 4), (1, 4), (2, 4)], 4),           # leaf 3 on no edge
    ([(0, 3), (1, 3), (2, 3), (2, 3)], 3),   # duplicate edge
], ids=["cycle", "forest", "missing-leaf", "duplicate-edge"])
def test_from_leaf_tree_rejects_malformed_edges(edges, num_leaves):
    with pytest.raises(ParameterError):
        TreeTopology.from_leaf_tree(edges, num_leaves, 2)


def test_from_leaf_tree_single_leaf():
    topo = TreeTopology.from_leaf_tree((), 1, 4)
    assert topo.labels() == [0]
    assert topo.bonds == ()


def test_enumeration_counts_match_double_factorial():
    # unrooted binary trees with L labeled leaves: (2L-5)!!
    for leaves, count in [(2, 1), (3, 1), (4, 3), (5, 15), (6, 105)]:
        trees = enumerate_leaf_trees(leaves)
        assert len(trees) == count
        forms = {_shape(t, leaves) for t in trees}
        assert len(forms) == count  # all distinct shapes


def test_random_leaf_tree_valid_and_seeded():
    edges = random_leaf_tree(6, np.random.default_rng(3))
    # 6 leaves + 4 internal nodes, 9 edges
    assert len(edges) == 9
    assert _shape(edges, 6) in {
        _shape(t, 6) for t in enumerate_leaf_trees(6)}
    again = random_leaf_tree(6, np.random.default_rng(3))
    assert _shape(edges, 6) == _shape(again, 6)


def test_random_leaf_tree_covers_all_shapes():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(400):
        seen.add(_shape(random_leaf_tree(4, rng), 4))
    assert len(seen) == 3


def test_caterpillar_shape():
    got = _shape(caterpillar_leaf_tree(5), 5)
    # hand-built caterpillar: leaves hang off a spine in label order
    spine = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)]
    assert got == _shape(spine, 5)
    # permuting the middle leaves gives a different labeled shape
    swapped = [(0, 5), (2, 5), (5, 6), (1, 6), (6, 7), (3, 7), (4, 7)]
    assert got != _shape(swapped, 5)


def test_canonical_form_invariant_under_relabeling_internals():
    edges = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5))
    shuffled = ((0, 9), (1, 9), (2, 7), (3, 7), (9, 7))
    assert _shape(edges, 4) == _shape(shuffled, 4)


def test_canonical_form_distinguishes_leaf_pairings():
    a = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5))  # (01)(23)
    b = ((0, 4), (2, 4), (1, 5), (3, 5), (4, 5))  # (02)(13)
    assert _shape(a, 4) != _shape(b, 4)


def test_canonical_form_suppresses_degree_two_internals():
    # a redundant pass-through node changes nothing
    plain = ((0, 3), (1, 3), (2, 3))
    padded = ((0, 3), (1, 3), (2, 9), (9, 3))
    assert _shape(plain, 3) == _shape(padded, 3)


def test_splits_ignore_node_ids_and_bond_only_nodes():
    # (01)(23) with leaf 4 on the middle: leaf i on node i, internals 5-7
    leaves = tuple((i, i, 2) for i in range(5))
    bonds = ((0, 5), (1, 5), (5, 7), (4, 7), (7, 6), (2, 6), (3, 6))
    plain = TreeTopology(bonds, leaves).splits()
    assert plain == {frozenset({2, 3}), frozenset({2, 3, 4})}
    # a bond-only pendant node 8 hanging off node 7
    assert TreeTopology(bonds + ((7, 8),), leaves).splits() == plain
    # a pass-through node 8 on the bond between 5 and 7
    through = ((0, 5), (1, 5), (5, 8), (8, 7), (4, 7), (7, 6), (2, 6),
               (3, 6))
    assert TreeTopology(through, leaves).splits() == plain
    # node 5 carrying labels 0 and 1 itself reads as the cherry (01)
    merged = ((5, 0, 2), (5, 1, 2), (2, 2, 2), (3, 3, 2), (4, 4, 2))
    assert TreeTopology(bonds[2:], merged).splits() == plain
    # with three labels or fewer no bond has two on both sides
    for D in (1, 2, 3):
        assert TreeTopology.mps(list(range(D)), 2).splits() == set()
        assert _shape(caterpillar_leaf_tree(D), D) == set()
    star = TreeTopology((), ((0, "a", 2), (0, "b", 2), (0, "c", 2)))
    assert star.splits() == set()


def test_tree_distances_path():
    d = tree_distances(((0, 1), (1, 2), (2, 3)))
    assert d[0, 3] == 3
    assert d[1, 2] == 1
    assert d[0, 0] == 0
    assert d[3, 0] == 3


def test_walk_preorder_in_neighbor_order():
    # 0 has children 2 then 1; 2 has children 3 then 4; 4 has child 5
    adj = {0: [(2, "a"), (1, "b")], 1: [(0, "b")],
           2: [(0, "a"), (3, "c"), (4, "d")], 3: [(2, "c")],
           4: [(2, "d"), (5, "e")], 5: [(4, "e")]}
    assert walk(0, adj.__getitem__) == [
        (0, None, None), (2, 0, "a"), (3, 2, "c"), (4, 2, "d"),
        (5, 4, "e"), (1, 0, "b")]
    assert [u for u, _, _ in walk(4, adj.__getitem__)] == [4, 2, 0, 1, 3, 5]


def test_walk_short_on_forest_and_ends_on_cycle():
    forest = {0: [(1, None)], 1: [(0, None)], 2: [(3, None)], 3: [(2, None)]}
    assert [u for u, _, _ in walk(2, forest.__getitem__)] == [2, 3]
    ring = {i: [((i + 1) % 4, None), ((i - 1) % 4, None)] for i in range(4)}
    assert [u for u, _, _ in walk(0, ring.__getitem__)] == [0, 1, 2, 3]


def test_walk_visits_a_node_once_across_parallel_edges():
    # edges c and d both join 2 to 3
    adj = {0: [(3, "a")], 1: [(3, "b")], 2: [(3, "c"), (3, "d")],
           3: [(0, "a"), (1, "b"), (2, "c"), (2, "d")]}
    assert [u for u, _, _ in walk(0, adj.__getitem__)] == [0, 3, 1, 2]


def test_mps_topology_bipartitions_are_contiguous():
    topo = TreeTopology.mps([0, 1, 2, 3, 4], 2)
    for bond, left, right in topo.bipartitions():
        side = sorted(left if 0 in left else right)
        assert side == list(range(len(side)))
