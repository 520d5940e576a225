"""Structural optimization of tree tensor networks.

A local reconnection contracts the two degree-3 tensors adjacent to a
bond into a 4-leg blob, splits the blob along each of the three leg
pairings, and keeps the pairing with the least entanglement entropy
across the new bond (entropy measured after truncating to the working
rank and renormalizing). Ties go to the incumbent pairing. A bond is
movable when both its endpoints have three legs. A reconnection keeps
every node's legs, so the movable bonds are fixed for a run. Sweeping
reconnections over them performs nearest-neighbor-interchange moves on
the underlying leaf-labeled tree, so repeated sweeps can reach any tree
topology on the same leaves.

covariance_tree picks a leaf tree before any tensor exists: the
canonical correlations across a cut give its exact Schmidt spectrum, so
the mass each candidate bond keeps at chi is known from the covariance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gaussian import (Bipartition, CovarianceMatrix, canonical_correlations,
                       cut_spectrum)
from .topology import TreeTopology, caterpillar_leaf_tree, walk
from .ttn import Edge, TreeTensorNetwork

PAIRING_NAMES = ("ab|cd", "ac|bd", "ad|bc")
_PERMS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
TIE_TOL = 1e-10
GAIN_TOL = 1e-12
MAX_SWEEPS = 6


@dataclass(frozen=True)
class ReconnectionChoice:
    """Outcome of one local reconnection attempt."""

    edge: int
    entropies: tuple[float, float, float]
    chosen: int
    accepted: bool
    step_fidelity: float

    def __post_init__(self):
        if self.entropies[self.chosen] > min(self.entropies) + 1e-9:
            raise ParameterError("chosen pairing does not minimize entropy")


def _pairing_entropy(mat: np.ndarray, chi: int) -> float:
    """Entropy of the top-chi squared singular values of mat, renormalized.
    They are the eigenvalues of the smaller Gram matrix, which is cheaper
    than an SVD of the whole blob."""
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    s2 = np.clip(np.linalg.eigvalsh(mat @ mat.conj().T)[::-1][:chi], 0.0, None)
    total = s2.sum()
    if total <= 0.0:
        return 0.0
    p = s2[s2 > 0] / total
    return float(-(p * np.log(p)).sum())


def local_reconnect(net: TreeTensorNetwork, e: int,
                    chi: int) -> ReconnectionChoice:
    """Try the three pairings of the 4 outward legs around bond e.

    Bond e must be movable (both endpoints with three legs) and the
    center must sit on one of its endpoints. On a change of pairing, or
    when the incumbent bond exceeds chi, the blob is re-split with rank
    at most chi, the kept weight renormalized, the center left on the far
    endpoint, and any discarded mass recorded in the ledger.
    """
    if not _movable(net, e):
        raise ParameterError("reconnection needs a bond between two "
                             "3-leg nodes")
    u, v = net.edges[e].nodes
    if net.center not in (u, v):
        raise ParameterError("center must sit on an endpoint of the bond")
    legs_u = [x for x in net.axes[u] if x != e]
    legs_v = [x for x in net.axes[v] if x != e]

    t = np.tensordot(net.tensors[u], net.tensors[v],
                     axes=(net.axes[u].index(e), net.axes[v].index(e)))
    # axes now (a, b, c, d) = u's outward legs then v's
    entropies = []
    for perm in _PERMS:
        tp = np.transpose(t, perm)
        mat = tp.reshape(tp.shape[0] * tp.shape[1], -1)
        entropies.append(_pairing_entropy(mat, chi))
    chosen = int(np.argmin(entropies))
    if entropies[0] <= entropies[chosen] + TIE_TOL:
        chosen = 0
    accepted = chosen != 0
    if not accepted and net.edge_dim(e) <= chi:
        return ReconnectionChoice(e, tuple(entropies), chosen, False, 1.0)

    perm = _PERMS[chosen]
    tp = np.transpose(t, perm)
    d0, d1, d2, d3 = tp.shape
    uu, s, vh = np.linalg.svd(tp.reshape(d0 * d1, d2 * d3),
                              full_matrices=False)
    positive = max(1, int((s > 1e-14 * s[0]).sum()))
    r = min(chi, positive)
    s2 = s * s
    f = float(s2[:r].sum() / s2.sum())
    skeep = s[:r] / math.sqrt(float(s2[:r].sum()))

    legs = legs_u + legs_v
    new_u = [legs[perm[0]], legs[perm[1]]]
    new_v = [legs[perm[2]], legs[perm[3]]]
    net.tensors[u] = uu[:, :r].reshape(d0, d1, r)
    net.tensors[v] = np.transpose(
        (skeep[:, None] * vh[:r]).reshape(r, d2, d3), (1, 2, 0))
    net.axes[u] = new_u + [e]
    net.axes[v] = new_v + [e]
    for leg in new_u:
        _reattach(net, leg, u, (u, v))
    for leg in new_v:
        _reattach(net, leg, v, (u, v))
    net.center = v
    if f < 1.0 - 1e-15:
        net.ledger.record(e, f)
    return ReconnectionChoice(e, tuple(entropies), chosen, accepted, f)


def _movable(net: TreeTensorNetwork, e: int) -> bool:
    ed = net.edges[e]
    return not ed.is_phys and all(len(net.axes[x]) == 3 for x in ed.nodes)


def _reattach(net: TreeTensorNetwork, e: int, node: int,
              pair: tuple[int, int]) -> None:
    """Point leg e at `node`; its far endpoint (outside the reconnected
    pair) is preserved."""
    ed = net.edges[e]
    if ed.is_phys:
        net.edges[e] = Edge((node,), ed.label)
        return
    a, b = ed.nodes
    other = a if a not in pair else b
    net.edges[e] = Edge((node, other))


def optimize_structure(net: TreeTensorNetwork, chi: int,
                       ) -> tuple[TreeTensorNetwork, dict]:
    """Sweep local reconnections over the movable bonds, in id order,
    until a sweep accepts no change (or MAX_SWEEPS). The net is modified
    in place and returned with its report: per-sweep counts and every
    reconnection choice."""
    if net.center is None:
        net.canonicalize(min(net.tensors))
    bond_ids = sorted(e for e in net.edges if _movable(net, e))
    sweeps = []
    choices: list[ReconnectionChoice] = []
    for sweep in range(MAX_SWEEPS):
        accepted = 0
        for e in bond_ids:
            net.move_center(net.edges[e].nodes[0])
            rc = local_reconnect(net, e, chi)
            choices.append(rc)
            accepted += rc.accepted
        sweeps.append({"sweep": sweep, "attempts": len(bond_ids),
                       "accepted": accepted})
        if accepted == 0:
            break
    net.validate()
    report = {"sweeps": sweeps, "accepted_total":
              sum(s["accepted"] for s in sweeps), "choices": choices}
    return net, report


def covariance_tree(cov: CovarianceMatrix, chi: int,
                    start: TreeTopology | None = None,
                    ) -> tuple[list[tuple[int, int]] | None, dict]:
    """The leaf tree whose bonds keep the most Schmidt mass at chi.

    A cut scores the top-chi mass of its spectrum, and the product of
    the scores over a tree's bonds is its predict_ttn_fidelity. The tree
    grows bottom-up from singleton clusters: the two clusters whose union
    keeps the most mass merge (ties to the lowest cluster ids) until
    three remain, which join at one node. Nearest-neighbor-interchange
    moves then polish it. A move changes only its middle cut, so it is
    taken when one of the two other pairings keeps more mass than the
    current one by a relative GAIN_TOL. D <= 3 has one tree and no search.

    The edges run over leaves 0..D-1 and internal vertices D..2D-3. An
    explicit start topology wins, and the edges come back as None, only
    when it keeps strictly more mass. The report holds the accepted
    moves and the predicted fidelity of the winner.
    """
    D = cov.dim
    every = frozenset(range(D))
    memo: dict[frozenset, float] = {}

    def kept(side: frozenset) -> float:
        if side not in memo:
            corrs = canonical_correlations(cov, Bipartition(side, every - side))
            memo[side] = memo[every - side] = min(
                1.0, cut_spectrum(corrs, chi).kept_mass(chi))
        return memo[side]

    def score(topo: TreeTopology) -> float:
        # sorted, so one multiset of cuts gives one product
        return math.prod(sorted(kept(l) for _, l, _ in topo.bipartitions()))

    if D <= 3:
        edges, moves = caterpillar_leaf_tree(D), 0
    else:
        edges, moves = _nni_polish(_agglomerate(D, kept), D, kept)
    best = score(TreeTopology.from_leaf_tree(edges, D, 1))
    if start is not None and score(start) > best:
        edges, best = None, score(start)
    return edges, {"reconnections": moves, "predicted_fidelity": best}


def _agglomerate(D: int, kept) -> list[tuple[int, int]]:
    # cluster id = its vertex id, so merges take ids D, D+1, ... in order
    clusters = {i: frozenset([i]) for i in range(D)}
    edges = []
    for w in itertools.count(D):
        if len(clusters) == 3:
            return edges + [(c, w) for c in sorted(clusters)]
        a, b = max(itertools.combinations(sorted(clusters), 2),
                   key=lambda p: kept(clusters[p[0]] | clusters[p[1]]))
        edges += [(a, w), (b, w)]
        clusters[w] = clusters.pop(a) | clusters.pop(b)


def _nni_polish(edges, D: int, kept) -> tuple[list[tuple[int, int]], int]:
    """Sweep NNI moves over the internal edges until none gains."""
    adj: dict[int, set] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def leaves(x, away):
        return frozenset(w for w, _, _ in walk(
            x, lambda y: [(z, None) for z in adj[y] if z != away]) if w < D)

    moves, improved = 0, True
    while improved:
        improved = False
        for u in range(D, 2 * D - 2):
            for v in sorted(adj[u]):
                if v <= u or v not in adj[u]:
                    continue
                a, b = sorted(adj[u] - {v})
                c, d = sorted(adj[v] - {u})
                A, B = leaves(a, u), leaves(b, u)
                # ab|cd now; ac|bd swaps b with c, ad|bc swaps b with d
                gain, s = max((kept(A | leaves(c, v)), c),
                              (kept(A | leaves(d, v)), d), key=lambda t: t[0])
                if gain > kept(A | B) * (1.0 + GAIN_TOL):
                    adj[u] ^= {b, s}
                    adj[v] ^= {b, s}
                    adj[b] ^= {u, v}
                    adj[s] ^= {u, v}
                    moves += 1
                    improved = True
    return sorted((u, v) for u in adj for v in adj[u] if u < v), moves
