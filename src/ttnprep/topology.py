"""Tree topologies: the connectivity skeleton of a tree tensor network,
plus utilities for labeled trees (random generation, enumeration,
distances); a tree is compared by its splits.

Node ids are small ints. Physical legs carry hashable labels; the label
set doubles as the variable index set of the distribution being encoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import ParameterError

Label = Hashable


def walk(root, neighbors: Callable[[object], Iterable[tuple]]) -> list[tuple]:
    """Depth-first preorder from root as (node, parent, via) triples.

    neighbors(node) yields (next_node, via) pairs; children are visited in
    that order and via is passed through (None for the root). A node is
    visited once, so the walk covers only root's component and stops on a
    graph with cycles. Reversed, the list is a children-first order.
    """
    order = []
    seen = {root}
    stack = [(root, None, None)]
    while stack:
        node, parent, via = stack.pop()
        order.append((node, parent, via))
        kids = []
        for v, e in neighbors(node):
            if v not in seen:  # marked now, so a parallel edge adds no copy
                seen.add(v)
                kids.append((v, node, e))
        stack.extend(reversed(kids))
    return order


def _adjacency(nodes, edges) -> dict:
    # node -> [(neighbor, edge)], each node's edges in edge-list order
    adj: dict = {u: [] for u in nodes}
    for edge in edges:
        u, v = edge
        adj[u].append((v, edge))
        adj[v].append((u, edge))
    return adj


@dataclass(frozen=True)
class TreeTopology:
    """Connectivity of a tree tensor network.

    bonds  : tuple of (node, node) pairs, the internal edges
    leaves : tuple of (node, label, dim) triples, the physical legs

    The node set is inferred. The bond graph must be a tree (connected,
    acyclic) over the nodes, and labels must be unique.
    """

    bonds: tuple[tuple[int, int], ...]
    leaves: tuple[tuple[int, Label, int], ...]

    def __post_init__(self):
        nodes = self.nodes()
        if not nodes:
            raise ParameterError("topology has no nodes")
        labels = [lab for _, lab, _ in self.leaves]
        if len(set(labels)) != len(labels):
            raise ParameterError("duplicate physical labels")
        for _, _, d in self.leaves:
            if d < 1:
                raise ParameterError("physical dimension must be >= 1")
        if len(self.bonds) != len(nodes) - 1:
            raise ParameterError("bond count != node count - 1: not a tree")
        if len(walk(min(nodes), self.adjacency().__getitem__)) != len(nodes):
            raise ParameterError("bond graph is not connected")

    def nodes(self) -> set[int]:
        ns = set()
        for u, v in self.bonds:
            ns.add(u)
            ns.add(v)
        for u, _, _ in self.leaves:
            ns.add(u)
        return ns

    def adjacency(self) -> dict[int, list[tuple[int, tuple[int, int]]]]:
        """node -> [(neighbor, bond)], with bonds in `bonds` order."""
        return _adjacency(self.nodes(), self.bonds)

    def labels(self) -> list[Label]:
        # labels are homogeneous (all ints, or all (dim, bit) tuples)
        return sorted(lab for _, lab, _ in self.leaves)

    def leaf_dims(self) -> dict[Label, int]:
        return {lab: d for _, lab, d in self.leaves}

    def bipartition(self, bond: tuple[int, int]) -> tuple[frozenset, frozenset]:
        """Labels on each side of an internal bond, (u-side, v-side)."""
        u, v = bond
        adj = self.adjacency()
        side = {w for w, _, _ in walk(
            u, lambda w: [(x, b) for x, b in adj[w] if (w, x) != (u, v)])}
        left = frozenset(lab for nd, lab, _ in self.leaves if nd in side)
        right = frozenset(lab for nd, lab, _ in self.leaves if nd not in side)
        return left, right

    def bipartitions(self) -> list[tuple[tuple[int, int], frozenset, frozenset]]:
        return [(b, *self.bipartition(b)) for b in self.bonds]

    def splits(self) -> frozenset[frozenset]:
        """The leaf-labeled tree as its set of splits: for each bond with
        at least two labels on both sides, the side without the smallest
        label. Over one label set, two topologies have the same splits
        exactly when they realize the same unrooted tree (Buneman, 1971).
        Node ids, bond-only pendant nodes and pass-through nodes do not
        change the set; a node that carries several labels reads as a
        star over them."""
        labels = self.labels()
        return frozenset(right if labels[0] in left else left
                         for _, left, right in self.bipartitions()
                         if min(len(left), len(right)) >= 2)

    @classmethod
    def mps(cls, labels: Sequence[Label], dim: int) -> "TreeTopology":
        """Path topology: node i carries physical label labels[i], of
        dimension dim."""
        bonds = tuple((i, i + 1) for i in range(len(labels) - 1))
        leaves = tuple((i, lab, dim) for i, lab in enumerate(labels))
        return cls(bonds, leaves)

    @classmethod
    def from_leaf_tree(cls, edges: Sequence[tuple[int, int]], num_leaves: int,
                       dim: int) -> "TreeTopology":
        """Tensor topology realizing an unrooted leaf-labeled tree one to
        one: every vertex becomes a tensor node, each labeled leaf
        0..num_leaves-1 carries its own physical leg, and internal
        vertices hold bonds only.

        One leaf-labeled tree gives one topology, however its edge list
        is written: the tree is rooted at leaf 0, each vertex's children
        are ordered by the smallest leaf below them, internal vertices
        are numbered num_leaves, num_leaves+1, ... in that preorder, and
        the bonds are sorted pairs in sorted order. TCI sweeps, tensor
        leg order and synthesis all follow this numbering, so the
        records depend on the tree alone. An unlabeled vertex of degree
        below 2 has no leaf below it and is rejected, as are edges that
        do not form one tree over the leaves.
        """
        if num_leaves < 1:
            raise ParameterError("need at least one leaf")
        leaves = range(num_leaves)
        nodes = set(leaves).union(*edges)
        adj = _adjacency(nodes, edges)
        if any(len(adj[u]) < 2 for u in nodes if u not in leaves):
            raise ParameterError("an unlabeled vertex has degree below 2")
        tree = walk(0, adj.__getitem__)
        if len(tree) != len(nodes) or len(tree) - 1 != len(edges):
            raise ParameterError("edges do not form one tree over the leaves")
        low = {}   # smallest leaf below each vertex
        for u, parent, _ in reversed(tree):
            low[u] = min([low[v] for v, _ in adj[u] if v != parent]
                         + ([u] if u in leaves else []))
        ordered = walk(0, lambda u: sorted(adj[u], key=lambda p: low[p[0]]))
        ids = dict(zip(leaves, leaves))
        for u, _, _ in ordered:
            ids.setdefault(u, len(ids))
        bonds = tuple(sorted(tuple(sorted((ids[u], ids[p])))
                             for u, p, _ in ordered[1:]))
        return cls(bonds, tuple((i, i, dim) for i in leaves))


def random_leaf_tree(num_leaves: int, rng: np.random.Generator,
                     ) -> list[tuple[int, int]]:
    """Uniform random unrooted binary tree with labeled leaves 0..num_leaves-1
    and unlabeled internal nodes num_leaves.., internal degree 3.

    Grown by inserting each new leaf into a uniformly chosen existing edge;
    at step k there are 2k-3 edges, so all (2n-5)!! topologies are equally
    likely.
    """
    if num_leaves < 2:
        raise ParameterError("need at least 2 leaves")
    edges = [(0, 1)]
    next_internal = num_leaves
    for k in range(2, num_leaves):
        i = int(rng.integers(len(edges)))
        u, v = edges.pop(i)
        w = next_internal
        next_internal += 1
        edges.extend([(u, w), (v, w), (k, w)])
    return edges


def enumerate_leaf_trees(num_leaves: int) -> list[list[tuple[int, int]]]:
    """All unrooted binary trees with labeled leaves 0..num_leaves-1.

    Leaf insertion into every edge of every smaller tree; each topology is
    produced exactly once, (2n-5)!! in total.
    """
    if num_leaves < 2:
        raise ParameterError("need at least 2 leaves")
    trees = [[(0, 1)]]
    next_internal = num_leaves
    for k in range(2, num_leaves):
        grown = []
        for tree in trees:
            for i in range(len(tree)):
                u, v = tree[i]
                w = next_internal
                rest = tree[:i] + tree[i + 1:]
                grown.append(rest + [(u, w), (v, w), (k, w)])
        trees = grown
        next_internal += 1
    return trees


def tree_distances(edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """All-pairs path lengths of a tree given as an edge list over 0..V-1."""
    nodes = set()
    for u, v in edges:
        nodes.update((u, v))
    if not nodes or min(nodes) < 0:
        raise ParameterError("edge list is not a tree over nodes 0..V-1")
    V = max(nodes) + 1
    adj = _adjacency(range(V), edges)
    dist = np.full((V, V), -1, dtype=int)
    for s in range(V):
        for u, parent, _ in walk(s, adj.__getitem__):
            dist[s, u] = 0 if parent is None else dist[s, parent] + 1
    if (dist < 0).any():
        raise ParameterError("edge list is not a connected tree")
    return dist


def caterpillar_leaf_tree(num_leaves: int) -> list[tuple[int, int]]:
    """Caterpillar tree with leaves in label order: the default structure
    before any optimization, matching a chain of variables."""
    if num_leaves < 1:
        raise ParameterError("need at least one leaf")
    L = num_leaves
    if L == 1:
        return []
    if L == 2:
        return [(0, 1)]
    edges = [(0, L), (1, L)]
    for i in range(1, L - 2):
        edges.append((L + i - 1, L + i))
        edges.append((i + 1, L + i))
    edges.append((L - 1, 2 * L - 3))
    return edges
