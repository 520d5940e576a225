"""Tree tensor networks with a canonical center and ledgered truncation.

A network is a tree of tensors of one dtype: float64 when every tensor
it was built from is real, complex128 as soon as one is complex, so a
real coefficient network is factored, truncated and evaluated in real
arithmetic. Every tensor axis is attached to an edge: bond edges join
two nodes, physical edges carry a hashable label and one open index.
When a center is set, every other tensor is an isometry toward the
center, so the state's norm and Schmidt data at any bond next to the
center are read off locally.

Truncation moves the center across each bond, keeps the top chi singular
values (or a mass tolerance), renormalizes, and records the kept fraction
f = sum_kept s^2 / sum_all s^2 in a fidelity ledger; the product of the
entries lower-bounds the squared overlap with the untruncated state.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

from .errors import (MAX_DENSE_QUBITS, CapacityError, NormalizationError,
                     ParameterError, ShapeError)
from .topology import TreeTopology, walk

MAGIC = b"TTNET001"
DENSE_CUTOFF = 1e-14
DTYPES = ("float64", "complex128")   # the .ttn header's dtype values


def _common_dtype(arrays) -> np.dtype:
    """complex128 when any of the arrays is complex, else float64."""
    return np.dtype(complex if any(np.iscomplexobj(t) for t in arrays)
                    else float)


def frobenius_from_fidelity(f: float) -> float:
    """Frobenius distance between unit vectors with squared overlap f."""
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise ParameterError("fidelity must lie in [0, 1]")
    return math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(min(f, 1.0)))))


def entanglement_entropy(singulars: np.ndarray) -> float:
    """Von Neumann entropy -sum s^2 ln s^2 of a normalized Schmidt vector."""
    s2 = np.asarray(singulars, dtype=float) ** 2
    total = s2.sum()
    if abs(total - 1.0) > 1e-8:
        raise NormalizationError(f"squared singulars sum to {total}, not 1")
    s2 = s2[s2 > 0]
    return float(-(s2 * np.log(s2)).sum())


@dataclass
class FidelityLedger:
    """Per-truncation kept-mass fractions and their running product."""

    steps: list[tuple[int, float]] = field(default_factory=list)

    def record(self, edge: int, f: float) -> None:
        if not 0.0 <= f <= 1.0 + 1e-12:
            raise ParameterError(f"step fidelity {f} outside [0, 1]")
        self.steps.append((edge, min(f, 1.0)))

    def extend(self, other: "FidelityLedger") -> None:
        self.steps.extend(other.steps)

    @property
    def product(self) -> float:
        return float(np.prod([f for _, f in self.steps])) if self.steps else 1.0

    @property
    def frobenius_bound(self) -> float:
        return frobenius_from_fidelity(self.product)


@dataclass
class Edge:
    """nodes is (u, v) for a bond, (u,) for a physical leg with a label."""

    nodes: tuple[int, ...]
    label: Hashable = None

    @property
    def is_phys(self) -> bool:
        return len(self.nodes) == 1

    def other(self, u: int) -> int:
        a, b = self.nodes
        return b if u == a else a


def _unfold(t: np.ndarray, pos: int) -> tuple[np.ndarray, tuple]:
    tm = np.moveaxis(t, pos, -1)
    others = tm.shape[:-1]
    return tm.reshape(-1, t.shape[pos]), others


def _fold(m: np.ndarray, others: tuple, pos: int) -> np.ndarray:
    t = m.reshape(*others, m.shape[1])
    return np.moveaxis(t, -1, pos)


class TreeTensorNetwork:
    """Mutable tree tensor network.

    tensors : node id -> ndarray, all of one dtype (see `dtype`)
    axes    : node id -> list of edge ids, one per tensor axis
    edges   : edge id -> Edge
    center  : node id of the canonical center, or None
    """

    def __init__(self, tensors: dict[int, np.ndarray],
                 axes: dict[int, list[int]], edges: dict[int, Edge],
                 center: int | None = None,
                 ledger: FidelityLedger | None = None,
                 validate: bool = True):
        dtype = _common_dtype(tensors.values())
        self.tensors = {u: np.asarray(t, dtype=dtype)
                        for u, t in tensors.items()}
        self.axes = {u: list(a) for u, a in axes.items()}
        self.edges = dict(edges)
        self.center = center
        self.ledger = ledger if ledger is not None else FidelityLedger()
        if validate:
            self.validate()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_topology(cls, topo: TreeTopology,
                      tensors: dict[int, np.ndarray],
                      axis_order: dict[int, list], center: int | None = None,
                      ) -> "TreeTensorNetwork":
        """Build from a topology plus per-node tensors whose axes are named
        by descriptors: ("bond", (u, v)) or ("phys", label)."""
        edges: dict[int, Edge] = {}
        bond_id = {}
        eid = 0
        for u, v in topo.bonds:
            edges[eid] = Edge((u, v))
            bond_id[frozenset((u, v))] = eid
            eid += 1
        phys_id = {}
        for u, lab, _ in topo.leaves:
            edges[eid] = Edge((u,), lab)
            phys_id[lab] = eid
            eid += 1
        axes = {}
        for u, order in axis_order.items():
            ids = []
            for kind, key in order:
                if kind == "bond":
                    ids.append(bond_id[frozenset(key)])
                elif kind == "phys":
                    ids.append(phys_id[key])
                else:
                    raise ParameterError(f"unknown axis descriptor {kind!r}")
            axes[u] = ids
        return cls(tensors, axes, edges, center=center)

    def copy(self) -> "TreeTensorNetwork":
        net = TreeTensorNetwork(
            {u: t.copy() for u, t in self.tensors.items()},
            {u: list(a) for u, a in self.axes.items()},
            {e: Edge(ed.nodes, ed.label) for e, ed in self.edges.items()},
            center=self.center,
            ledger=FidelityLedger(list(self.ledger.steps)),
            validate=False)
        return net

    # -- structure queries -----------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real network, complex128 for a complex one."""
        return _common_dtype(self.tensors.values())

    def validate(self) -> None:
        nodes = set(self.tensors)
        if nodes != set(self.axes):
            raise ShapeError("tensor and axis maps disagree on nodes")
        seen_at: dict[int, list[int]] = {e: [] for e in self.edges}
        for u in nodes:
            t = self.tensors[u]
            if t.ndim != len(self.axes[u]):
                raise ShapeError(f"node {u}: {t.ndim} axes vs "
                                 f"{len(self.axes[u])} edge ids")
            for e in self.axes[u]:
                seen_at[e].append(u)
        labels = []
        n_bonds = 0
        for e, ed in self.edges.items():
            if ed.is_phys:
                if seen_at[e] != [ed.nodes[0]]:
                    raise ShapeError(f"physical edge {e} misattached")
                labels.append(ed.label)
            else:
                n_bonds += 1
                if sorted(seen_at[e]) != sorted(ed.nodes):
                    raise ShapeError(f"bond {e} endpoints do not match axes")
                u, v = ed.nodes
                if self.edge_dim(e, u) != self.edge_dim(e, v):
                    raise ShapeError(f"bond {e} dimension mismatch")
        if len(set(labels)) != len(labels):
            raise ShapeError("duplicate physical labels")
        if n_bonds != len(nodes) - 1:
            raise ShapeError("bond count != nodes - 1")
        if nodes and len(walk(min(nodes), self.neighbors)) != len(nodes):
            raise ShapeError("network is not connected")
        if self.center is not None and self.center not in nodes:
            raise ParameterError("center is not a node")

    def edge_dim(self, e: int, u: int | None = None) -> int:
        ed = self.edges[e]
        u = ed.nodes[0] if u is None else u
        return self.tensors[u].shape[self.axes[u].index(e)]

    def neighbors(self, u: int) -> list[tuple[int, int]]:
        """(neighbor, bond) for every bond of u, in axes order."""
        return [(self.edges[e].other(u), e) for e in self.axes[u]
                if not self.edges[e].is_phys]

    def bond_between(self, u: int, v: int) -> int:
        for e in self.axes[u]:
            ed = self.edges[e]
            if not ed.is_phys and ed.other(u) == v:
                return e
        raise ParameterError(f"no bond between {u} and {v}")

    def phys_edges(self) -> dict[Hashable, int]:
        return {ed.label: e for e, ed in self.edges.items() if ed.is_phys}

    def labels(self) -> list:
        return sorted(ed.label for ed in self.edges.values() if ed.is_phys)

    def bond_dims(self) -> dict[int, int]:
        return {e: self.edge_dim(e) for e, ed in self.edges.items()
                if not ed.is_phys}

    def topology(self) -> TreeTopology:
        bonds = tuple(ed.nodes for ed in self.edges.values()
                      if not ed.is_phys)
        leaves = tuple((ed.nodes[0], ed.label, self.edge_dim(e))
                       for e, ed in self.edges.items() if ed.is_phys)
        return TreeTopology(bonds, leaves)

    # -- gauge and truncation ----------------------------------------------

    def _push(self, u: int, e: int) -> None:
        """QR the node u with edge e as columns; absorb R across e."""
        v = self.edges[e].other(u)
        pos = self.axes[u].index(e)
        mat, others = _unfold(self.tensors[u], pos)
        q, r = np.linalg.qr(mat)
        self.tensors[u] = _fold(q, others, pos)
        posv = self.axes[v].index(e)
        self.tensors[v] = np.moveaxis(
            np.tensordot(r, self.tensors[v], axes=(1, posv)), 0, posv)

    def canonicalize(self, center: int) -> "TreeTensorNetwork":
        """Make every non-center tensor an isometry toward center. Pure
        gauge: the encoded state is unchanged (bonds may shrink to their
        exact ranks)."""
        if center not in self.tensors:
            raise ParameterError("center is not a node")
        # children first, so a node absorbs its children's R factors (in
        # reverse axes order) before it is factored itself
        for u, _, e in reversed(walk(center, self.neighbors)[1:]):
            self._push(u, e)
        self.center = center
        if not np.any(self.tensors[center]):
            raise NormalizationError("cannot canonicalize the zero state")
        return self

    def move_center(self, to: int) -> "TreeTensorNetwork":
        if self.center is None:
            raise ParameterError("no center set; canonicalize first")
        self._climb(to, {u: (p, e) for u, p, e in walk(to, self.neighbors)})
        return self

    def _climb(self, to: int, up: dict) -> None:
        """Push the center along up-links, node -> (parent, bond), until
        it reaches `to`, an ancestor of the center in that rooting."""
        while self.center != to:
            parent, e = up[self.center]
            self._push(self.center, e)
            self.center = parent

    def norm(self) -> float:
        if self.center is not None:
            return float(np.linalg.norm(self.tensors[self.center]))
        return self.copy().canonicalize(min(self.tensors)).norm()

    def normalize(self) -> "TreeTensorNetwork":
        nrm = self.norm()
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero state")
        target = self.center if self.center is not None \
            else next(iter(self.tensors))
        self.tensors[target] = self.tensors[target] / nrm
        return self

    def truncate_bond(self, e: int, chi: int | None = None,
                      tol: float | None = None) -> float:
        """SVD the center across bond e, keep the top singular values,
        rescaled to unit total mass, absorb them into the far node (which
        becomes the new center), and record the kept mass fraction in the
        ledger.

        chi caps the rank; tol keeps the smallest rank whose discarded
        squared mass is <= tol^2 relative.
        """
        ed = self.edges[e]
        if ed.is_phys:
            raise ParameterError("cannot truncate a physical edge")
        if self.center not in ed.nodes:
            raise ParameterError("center must sit on an endpoint of the bond")
        u = self.center
        v = ed.other(u)
        pos = self.axes[u].index(e)
        mat, others = _unfold(self.tensors[u], pos)
        uu, s, vh = np.linalg.svd(mat, full_matrices=False)
        s2 = s * s
        total = float(s2.sum())
        if total == 0.0:
            raise NormalizationError("zero state cannot be truncated")
        r = len(s)
        if tol is not None:
            discard = np.append(np.cumsum(s2[::-1])[::-1][1:], 0.0)
            r = int(np.nonzero(discard <= tol * tol * total)[0][0]) + 1
        if chi is not None:
            r = min(r, chi)
        r = max(r, 1)
        kept = float(s2[:r].sum())
        f = kept / total
        snew = s[:r] / math.sqrt(kept)
        self.tensors[u] = _fold(uu[:, :r], others, pos)
        posv = self.axes[v].index(e)
        c = snew[:, None] * vh[:r]
        self.tensors[v] = np.moveaxis(
            np.tensordot(c, self.tensors[v], axes=(1, posv)), 0, posv)
        self.center = v
        self.ledger.record(e, f)
        return f

    def truncate(self, chi: int | None = None, tol: float | None = None
                 ) -> FidelityLedger:
        """Truncate every bond once, sweeping depth-first out from the
        center. Returns the ledger of just this sweep; entries are also
        appended to the network ledger."""
        if self.center is None:
            raise ParameterError("truncation needs a canonical center")
        if chi is None and tol is None:
            raise ParameterError("give chi, tol, or both")
        if chi is not None and chi < 1:
            raise ParameterError("chi must be >= 1")
        start = len(self.ledger.steps)
        # bonds in preorder from the center; before each one the center
        # climbs back, one bond at a time, to the bond's parent end
        root = self.center
        order = walk(root, self.neighbors)
        up = {u: (p, e) for u, p, e in order}
        for _, p, e in order[1:]:
            self._climb(p, up)
            self.truncate_bond(e, chi=chi, tol=tol)
        self._climb(root, up)
        return FidelityLedger(list(self.ledger.steps[start:]))

    def bond_singulars(self, e: int) -> np.ndarray:
        """Singular values across bond e (center is moved to an endpoint)."""
        ed = self.edges[e]
        if ed.is_phys:
            raise ParameterError("physical edges have no Schmidt data")
        if self.center is None:
            self.canonicalize(ed.nodes[0])
        if self.center not in ed.nodes:
            self.move_center(ed.nodes[0])
        pos = self.axes[self.center].index(e)
        mat, _ = _unfold(self.tensors[self.center], pos)
        return np.linalg.svd(mat, compute_uv=False)

    def canonical_defect(self) -> float:
        """Largest deviation of any non-center tensor from isometry toward
        the center."""
        if self.center is None:
            raise ParameterError("no center set")
        worst = 0.0
        for u, _, pe in walk(self.center, self.neighbors)[1:]:
            mat, _ = _unfold(self.tensors[u], self.axes[u].index(pe))
            gram = mat.conj().T @ mat
            worst = max(worst, float(np.max(np.abs(
                gram - np.eye(gram.shape[0])))))
        return worst

    # -- contraction -------------------------------------------------------

    def _contract(self, picks: dict | None = None) -> tuple[np.ndarray, list]:
        """Children first toward the center (or any node): each subtree's
        result waits under its parent bond and folds into the parent in
        axes order. Returns the root's tensor and the edge of each axis.

        Without picks every physical leg stays open. picks maps each label
        to one index per batch row: a node reads its physical legs there,
        which puts a batch axis first. A subtree with no physical leg sends
        an unbatched message, which contracts in as in the dense case."""
        root = self.center if self.center is not None \
            else next(iter(self.tensors))
        subs: dict = {}
        for u, _, pe in reversed(walk(root, self.neighbors)):
            t, legs, batched = self.tensors[u], list(self.axes[u]), False
            phys = [i for i, e in enumerate(legs) if self.edges[e].is_phys]
            if picks is not None and phys:
                # physical axes to the front, then one advanced index over
                # them puts the batch axis first
                t = np.moveaxis(t, phys, range(len(phys)))[tuple(
                    picks[self.edges[legs[i]].label] for i in phys)]
                legs = [x for x in legs if not self.edges[x].is_phys]
                batched = True
            for e in self.axes[u]:
                if e not in subs:
                    continue
                sub, sublegs, sub_batched = subs.pop(e)
                i = legs.index(e)
                legs.remove(e)
                if not sub_batched:
                    t = np.tensordot(t, sub, axes=(i + batched,
                                                   sublegs.index(e)))
                    legs += [x for x in sublegs if x != e]
                elif not batched:
                    # the first batched (batch, d_e) message: one GEMM
                    t = np.tensordot(sub, t, axes=(1, i))
                    batched = True
                else:
                    t = np.einsum(t, [0, *range(1, t.ndim)], sub, [0, i + 1],
                                  [0, *(j for j in range(1, t.ndim)
                                        if j != i + 1)])
                del sub  # a message kept alive slows the next contraction
            subs[pe] = t, legs, batched
        t, legs, _ = subs[None]
        return t, legs

    def contract_to_tensor(self) -> np.ndarray:
        """Full contraction to a dense tensor with one axis per physical
        label, label-sorted axis order. Guarded at 2^24 entries."""
        phys = self.phys_edges()
        size = 1
        for e in phys.values():
            size *= self.edge_dim(e)
        if size > 1 << MAX_DENSE_QUBITS:
            raise CapacityError(
                f"dense contraction above the 2^{MAX_DENSE_QUBITS} guard")
        t, legs = self._contract()
        return np.transpose(t, [legs.index(phys[lab]) for lab in sorted(phys)])

    def contract_to_vector(self) -> np.ndarray:
        return self.contract_to_tensor().ravel()

    def evaluate(self, assignments: np.ndarray) -> np.ndarray:
        """Amplitudes at individual index assignments without dense
        contraction. assignments has shape (batch, L) with columns in
        label-sorted order."""
        assignments = np.atleast_2d(np.asarray(assignments, dtype=int))
        labels = self.labels()
        if assignments.shape[1] != len(labels):
            raise ParameterError("assignment width != number of labels")
        t, _ = self._contract({lab: assignments[:, i]
                               for i, lab in enumerate(labels)})
        return t.reshape(assignments.shape[0])

    # -- editing -----------------------------------------------------------

    def attach_chain(self, label: Hashable, tensors: Sequence[np.ndarray],
                     new_labels: Sequence[Hashable]) -> None:
        """Replace the physical leg `label` by a chain of tensors.

        tensors[0] has axes (old_dim, p_0, b_0), interior tensors
        (b_{i-1}, p_i, b_i), the last (b_last, p_last). The old physical
        edge becomes the bond into the chain; new physical labels are
        new_labels, one per chain tensor. The center is invalidated.
        Complex chain tensors make the whole network complex.
        """
        if len(tensors) != len(new_labels):
            raise ParameterError("one new label per chain tensor")
        phys = self.phys_edges()
        if label not in phys:
            raise ParameterError(f"no physical leg labeled {label!r}")
        e0 = phys[label]
        host = self.edges[e0].nodes[0]
        old_dim = self.edge_dim(e0, host)
        if tensors[0].shape[0] != old_dim:
            raise ShapeError("chain entry dimension != leg dimension")
        dtype = _common_dtype([*self.tensors.values(), *tensors])
        self.tensors = {u: t.astype(dtype, copy=False)
                        for u, t in self.tensors.items()}
        nxt_node = max(self.tensors) + 1
        nxt_edge = max(self.edges) + 1
        prev_edge = e0
        for i, (t, lab) in enumerate(zip(tensors, new_labels)):
            node = nxt_node + i
            pe = nxt_edge
            nxt_edge += 1
            self.edges[pe] = Edge((node,), lab)
            if i == 0:
                self.edges[e0] = Edge((host, node))
            last = i == len(tensors) - 1
            if last:
                if t.ndim != 2:
                    raise ShapeError("last chain tensor must have 2 axes")
                self.tensors[node] = np.asarray(t, dtype=dtype)
                self.axes[node] = [prev_edge, pe]
            else:
                if t.ndim != 3:
                    raise ShapeError("interior chain tensors must have 3 axes")
                be = nxt_edge
                nxt_edge += 1
                self.edges[be] = Edge((node, nxt_node + i + 1))
                self.tensors[node] = np.asarray(t, dtype=dtype)
                self.axes[node] = [prev_edge, pe, be]
                prev_edge = be
        self.center = None
        self.validate()

    # -- serialization -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Binary container: magic, header length, JSON header, row-major
        tensor payloads in the header's dtype (one of DTYPES)."""
        node_order = sorted(self.tensors)
        dtype = self.dtype
        header = {
            "dtype": dtype.name,
            "center": self.center,
            "nodes": [{"id": u, "axes": self.axes[u],
                       "shape": list(self.tensors[u].shape)}
                      for u in node_order],
            "edges": [{"id": e, "nodes": list(ed.nodes),
                       "label": label_to_json(ed.label)}
                      for e, ed in sorted(self.edges.items())],
            "ledger": [[e, f] for e, f in self.ledger.steps],
        }
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for u in node_order:
                fh.write(np.ascontiguousarray(
                    self.tensors[u], dtype=dtype).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "TreeTensorNetwork":
        path = Path(path)
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise ParameterError(f"{path} is not a network container")
            (hlen,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode())
            if header.get("dtype") not in DTYPES:
                raise ParameterError(
                    f"{path}: unknown tensor dtype {header.get('dtype')!r}")
            dtype = np.dtype(header["dtype"])
            tensors = {}
            axes = {}
            for rec in header["nodes"]:
                shape = tuple(rec["shape"])
                size = math.prod(shape) * dtype.itemsize
                buf = fh.read(size)
                if len(buf) != size:
                    raise ParameterError(
                        f"{path}: node {rec['id']} payload has {len(buf)} "
                        f"of {size} bytes")
                tensors[rec["id"]] = np.frombuffer(
                    buf, dtype=dtype).reshape(shape).copy()
                axes[rec["id"]] = list(rec["axes"])
        edges = {rec["id"]: Edge(tuple(rec["nodes"]),
                                 label_from_json(rec["label"]))
                 for rec in header["edges"]}
        ledger = FidelityLedger([(int(e), float(f))
                                 for e, f in header["ledger"]])
        return cls(tensors, axes, edges, center=header["center"],
                   ledger=ledger)


def label_to_json(label):
    """JSON form of a leg or wire label; tuples nest to any depth."""
    if isinstance(label, tuple):
        return {"pair": [label_to_json(x) for x in label]}
    return label


def label_from_json(obj):
    if isinstance(obj, dict):
        return tuple(label_from_json(x) for x in obj["pair"])
    return obj


def from_dense(tensor: np.ndarray,
               topo: TreeTopology) -> TreeTensorNetwork:
    """Exact (up to DENSE_CUTOFF * s_max rank trimming) decomposition of a
    dense tensor into the given topology by recursive SVD splitting. The
    tensor axes follow label-sorted order. The result is canonical with
    the center at the first topology node."""
    labels = topo.labels()
    dims = topo.leaf_dims()
    if tuple(tensor.shape) != tuple(dims[lab] for lab in labels):
        raise ShapeError("tensor shape does not match topology leaf dims")
    adj = topo.adjacency()
    leaves_at: dict[int, list] = {}
    for u, lab, _ in topo.leaves:
        leaves_at.setdefault(u, []).append(lab)
    root = sorted(topo.nodes())[0]

    side_labels = {}
    for bond, left, right in topo.bipartitions():
        u, v = bond
        side_labels[(bond, u)] = left
        side_labels[(bond, v)] = right

    tensors: dict[int, np.ndarray] = {}
    axis_order: dict[int, list] = {}
    # parents first: each node splits off one child at a time and leaves
    # the child's share, with its axis descriptors ("phys", lab) or
    # ("bond", (a, b)), for the child's turn
    todo = {root: (np.asarray(tensor, dtype=_common_dtype([tensor])),
                   [("phys", lab) for lab in labels])}
    for u, parent, _ in walk(root, adj.__getitem__):
        t, legs = todo.pop(u)
        order: list = []
        if parent is not None:
            order.append(("bond", (parent, u)))
        for v, bond in adj[u]:
            if v == parent:
                continue
            child_labs = side_labels[(bond, v)]
            cols = [i for i, d in enumerate(legs)
                    if d[0] == "phys" and d[1] in child_labs]
            rows = [i for i in range(len(legs)) if i not in cols]
            mat = np.transpose(t, rows + cols).reshape(
                int(np.prod([t.shape[i] for i in rows])) or 1, -1)
            uu, s, vh = np.linalg.svd(mat, full_matrices=False)
            r = max(1, int((s > DENSE_CUTOFF * s[0]).sum())) if s.size else 1
            keep = uu[:, :r] * s[:r]
            child_t = vh[:r].reshape((r,) + tuple(t.shape[i] for i in cols))
            todo[v] = child_t, [("bond", (u, v))] + [legs[i] for i in cols]
            t = keep.reshape(tuple(t.shape[i] for i in rows) + (r,))
            legs = [legs[i] for i in rows] + [("bond", (u, v))]
            order.append(("bond", (u, v)))
        for lab in sorted(leaves_at.get(u, [])):
            order.append(("phys", lab))
        perm = [legs.index(d) for d in order]
        tensors[u] = np.transpose(t, perm)
        axis_order[u] = order

    net = TreeTensorNetwork.from_topology(topo, tensors, axis_order)
    return net.canonicalize(root)


def random_mps(num_sites: int, phys_dim: int, chi: int,
               rng: np.random.Generator) -> TreeTensorNetwork:
    """Random complex MPS on a path topology, canonicalized at node 0 and
    normalized. A test and demo helper."""
    topo = TreeTopology.mps(list(range(num_sites)), phys_dim)
    tensors = {}
    axis_order = {}
    for i in range(num_sites):
        dims = []
        order = []
        if i > 0:
            dims.append(chi)
            order.append(("bond", (i - 1, i)))
        dims.append(phys_dim)
        order.append(("phys", i))
        if i < num_sites - 1:
            dims.append(chi)
            order.append(("bond", (i, i + 1)))
        t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        tensors[i] = t
        axis_order[i] = order
    net = TreeTensorNetwork.from_topology(topo, tensors, axis_order)
    return net.canonicalize(0).normalize()
