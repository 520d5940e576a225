"""Tensor cross interpolation on tree topologies.

The interpolation is held as pivot PAIRS per bond: for bond e = (u, v),
J[(e, u)] lists multi-indices of the labels on u's side and J[(e, v)]
equally many on v's side, so every pivot block P_e = f(J_u x J_v) is
square. Node tensors are T_u = f over the product of FAR-side pivots of
each leg, and the network is T with P_e^{-1} inserted on every bond,
which reproduces f exactly on all pivot crosses.

Pivots start at the all-zero multi-index and are refined by alternating
half-sweeps. Each bond update factors its candidate block once: one SVD
gives the rank and the basis from which maxvol re-selects the near-side
rows (and, when the rank drops, the far-side columns). maxvol starts
from the rows that partial-pivot elimination of that basis picks, and
its pivots are the rank check. The update then grows the rank by cross
interpolation: one batch of far-side extension columns is sampled and
evaluated, and full-pivot cross steps on their interpolation residual
add (row, column) pairs while it stays above tolerance. The sweeps stop
after the first one whose largest added residual is at most STOP_TOL of
the peak: such a sweep adds no pivot, or only rounding-level ones.
The network is then assembled once and checked once, against a random
probe set drawn before the first sweep.

Evaluation cost per bond visit is O(M chi^2) black-box entries (M = leg
dimension). Every call but the probe set asks for a Cartesian product
of pivot lists through BlackBoxTensor.block, which a Gaussian
coefficient box answers in product form.

Values keep the box's arithmetic. The Gaussian's Fourier coefficients
are real, so its blocks, SVDs, eliminations, solves and cross updates
all run in real arithmetic, and the assembled network is float64 too:
a network keeps its tensors' dtype, and complex enters only with the
inverse DFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.linalg import solve

from .errors import (ParameterError, PivotDegeneracyError, RankError)
from .topology import TreeTopology, walk
from .ttn import TreeTensorNetwork

MAXVOL_DELTA = 1e-2
MAXVOL_ITERS = 200
TCI_TOL = 1e-10      # residual, relative to the peak |f|, that stops growth
# largest added residual, relative to the peak, of a sweep that ends the
# build: on the compile-d16 shape (D=16, chi'=16) sweeps 1-3 add pivots of
# 5.9e-4 to 0.15, sweeps 4-6 only 1.0e-10 to 1.1e-9, the rounding floor
STOP_TOL = 1e-8
KICK = 4             # extension columns sampled per rank a bond update may add
PROBES = 1000        # random entries behind the final residual


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width bytes key per int64 index row: equal rows give
    equal keys, and the keys sort, hash and compare."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


@dataclass
class BlackBoxTensor:
    """Pointwise tensor access with an evaluation counter.

    fn maps an (batch, L) int64 index array to a (batch,) value array;
    dims are the axis sizes in label-sorted order. evals counts every
    entry computed, repeated rows included, and max_abs tracks the
    largest magnitude seen. Values keep the box's dtype, widened to at
    least float64: float64 for a real box, complex128 for a complex one.

    block(parts) evaluates a Cartesian product of (columns, rows) parts:
    a generic box row by row through fn, a box from_fourier in product
    form (FourierEvaluator.eval_block).
    """

    dims: tuple[int, ...]
    fn: Callable[[np.ndarray], np.ndarray]
    evals: int = 0
    max_abs: float = 0.0
    _upper: np.ndarray = field(init=False, repr=False)
    _axes: np.ndarray = field(init=False, repr=False)
    _product: Callable | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims:
            raise ParameterError("a black box needs at least one axis")
        if any(d < 1 for d in self.dims):
            raise ParameterError("axis dimensions must be >= 1")
        self._upper = np.array([min(d, 2 ** 64 - 1) for d in self.dims],
                               dtype=np.uint64)
        self._axes = np.arange(len(self.dims))

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
        if idx.shape[1] != len(self.dims):
            raise ParameterError("index width does not match arity")
        # negative indices wrap to the top of the unsigned range
        if np.any(idx.view(np.uint64) >= self._upper):
            raise ParameterError("index out of range")
        vals = np.asarray(self.fn(idx))
        if vals.shape != (len(idx),):
            raise ParameterError("black box returned wrong batch shape")
        return self._count(vals)

    def _count(self, vals: np.ndarray) -> np.ndarray:
        """Count a batch of values and track its peak."""
        if vals.size:
            self.evals += vals.size
            self.max_abs = max(self.max_abs, float(np.abs(vals).max()))
        return vals.astype(np.result_type(vals, np.float64), copy=False)

    def block(self, parts) -> np.ndarray:
        """f over the Cartesian product of (columns, rows) parts, flat and
        row-major over the parts: rows is an int64 (count, len(columns))
        array, and the columns of all parts cover every axis once."""
        cols = np.concatenate([c for c, _ in parts] or [[]])
        if (cols.shape != self._axes.shape
                or (np.sort(cols) != self._axes).any()):
            raise ParameterError("block parts must cover every axis once")
        for c, rows in parts:
            if rows.dtype != np.int64 or rows.shape[1:] != (len(c),):
                raise ParameterError("part rows must be int64, one column "
                                     "per part column")
            if (rows.view(np.uint64) >= self._upper[c]).any():
                raise ParameterError("index out of range")
        if self._product is None:
            total = math.prod(len(rows) for _, rows in parts)
            return self(_pick_rows(parts, np.arange(total), self._axes))
        return self._count(self._product(parts))

    @classmethod
    def from_fourier(cls, evaluator) -> "BlackBoxTensor":
        grid = evaluator.grid
        box = cls(dims=(grid.M,) * grid.dim,
                  fn=lambda idx: evaluator.eval_indices(idx))
        box._product = evaluator.eval_block
        return box


def maxvol(a: np.ndarray) -> np.ndarray:
    """Rows of a (tall, full-column-rank) matrix forming a dominant
    square submatrix: all entries of a @ a[rows]^{-1} have magnitude
    <= 1 + MAXVOL_DELTA. Starts from the pivot rows of _lu_rows, which
    breaks an exact magnitude tie toward the earlier row, then swaps
    greedily. Its RankError check assumes well-conditioned columns, such as an
    orthonormal basis: partial pivoting can leave moderate pivots on an
    ill-conditioned matrix, which then passes with inaccurate swaps."""
    a = np.asarray(a)
    r, c = a.shape
    if r < c:
        raise ParameterError("maxvol needs at least as many rows as columns")
    if c == 0:
        return np.array([], dtype=int)
    sel = _lu_rows(a)
    coef = a @ np.linalg.inv(a[sel])
    for _ in range(MAXVOL_ITERS):
        i, j = divmod(int(np.abs(coef).argmax()), c)
        if abs(coef[i, j]) <= 1.0 + MAXVOL_DELTA:
            break
        ej = np.zeros(c)
        ej[j] = 1.0
        coef -= coef[:, j, None] * (coef[i] - ej) / coef[i, j]
        sel[j] = i
    return sel


def _lu_rows(a: np.ndarray) -> np.ndarray:
    """Pivot rows, in order, of partial-pivot elimination of a tall
    matrix. Step k takes the first largest |entry| of column k in the
    current pivoted order (LAPACK getrf's rule), swaps it into row k and
    applies one rank-1 Schur update. Raises RankError when some pivot is
    at most 1e-13 times the largest: a rank deficit."""
    r, c = a.shape
    order = list(range(r))
    pivots = []
    # the Schur complement transposed, so that each column is one array row
    s = np.array(a.T, dtype=np.result_type(a, np.float64))
    for k in range(c):
        col = s[0]
        p = int(np.abs(col).argmax())
        u = s[:, p].copy()  # the pivot row
        if p:
            s[:, p] = s[:, 0]
            order[k], order[k + p] = order[k + p], order[k]
        if u[0] == 0:
            raise RankError("candidate matrix is rank deficient")
        pivots.append(abs(u[0]))
        s = s[1:, 1:] - u[1:, None] * (col[1:] / u[0])
    if min(pivots) <= 1e-13 * max(max(pivots), 1e-300):
        raise RankError("candidate matrix is rank deficient")
    return np.array(order[:c])


def _low_biased(rng: np.random.Generator, d, size) -> np.ndarray:
    """Indices in [0, d) at geometric offsets from 0, either sign, so
    negative offsets wrap to the top of the axis. d broadcasts against
    size, so one draw covers every axis."""
    steps = rng.geometric(0.4, size=size) - 1
    return np.where(rng.random(size) < 0.5, steps, -steps) % d


def _probe_indices(rng: np.random.Generator, dims, count: int) -> np.ndarray:
    """Random full indices, mixing uniform draws with draws biased toward
    low indices (wrapping negatives), where seeded pivots live."""
    d = np.asarray(dims, dtype=np.int64)
    size = (count, len(d))
    uniform = rng.integers(0, d, size=size)
    biased = _low_biased(rng, d, size)
    return np.where(rng.random(size) < 0.5, uniform, biased)


class _PivotState:
    """Per-bond pivot pairs plus the bookkeeping to assemble tensors."""

    def __init__(self, topo: TreeTopology, dims: dict):
        self.topo = topo
        self.labels = topo.labels()
        self.col = {lab: i for i, lab in enumerate(self.labels)}
        self.dims = dims
        adj = topo.adjacency()
        # (parent, child, bond) from the smallest node: a preorder taking
        # children in reverse adjacency order, each node listing its
        # children in forward order. Sweeps and assembly both follow it,
        # and it fixes the order of black-box calls, hence the numerics.
        self.schedule = [
            (u, v, bond)
            for u, parent, _ in walk(min(adj), lambda w: adj[w][::-1])
            for v, bond in adj[u] if v != parent]
        # legs_of[u]: axis descriptors, bonds first (topo order), phys last
        leaves_at: dict[int, list] = {}
        for u, lab, _ in topo.leaves:
            leaves_at.setdefault(u, []).append(lab)
        self.legs_of = {}
        for u in sorted(topo.nodes()):
            legs = [("bond", b) for _, b in adj[u]]
            legs += [("phys", lab) for lab in sorted(leaves_at.get(u, []))]
            self.legs_of[u] = legs
        # side columns per (bond, endpoint): labels on that endpoint's side
        self.side_cols = {}
        for bond, left, right in topo.bipartitions():
            u, v = bond
            self.side_cols[(bond, u)] = np.array(
                [self.col[lab] for lab in sorted(left)], dtype=int)
            self.side_cols[(bond, v)] = np.array(
                [self.col[lab] for lab in sorted(right)], dtype=int)
        # all-zero seed pivot on every side
        self.pivots = {key: np.zeros((1, len(cols)), dtype=np.int64)
                       for key, cols in self.side_cols.items()}

    def rank(self, bond) -> int:
        return len(self.pivots[(bond, bond[0])])

    def far_parts(self, u: int, skip=None):
        """(columns, pivot rows) per leg of u except `skip`, in axis order.
        For a bond leg the far side is the other endpoint's side."""
        parts = []
        for kind, key in self.legs_of[u]:
            if (kind, key) == skip:
                continue
            if kind == "bond":
                v = key[1] if key[0] == u else key[0]
                parts.append((self.side_cols[(key, v)],
                              self.pivots[(key, v)]))
            else:
                d = self.dims[key]
                parts.append((np.array([self.col[key]]),
                              np.arange(d, dtype=np.int64)[:, None]))
        return parts


def _pick_rows(parts, picks: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows `picks` of the row-major Cartesian product of (columns, rows)
    parts, as index rows over cols: the sorted union of their columns."""
    sizes = [len(rows) for _, rows in parts]
    out = np.empty((len(picks), len(cols)), dtype=np.int64)
    for (c, rows), at in zip(parts, np.unravel_index(picks, sizes)):
        out[:, np.searchsorted(cols, c)] = rows[at]
    return out


def tci_build(f: BlackBoxTensor, topo: TreeTopology, chi: int,
              sweeps: int = 8, seed: int = 0,
              ) -> tuple[TreeTensorNetwork, dict]:
    """Interpolate the black box on the given tree topology with bond
    ranks grown adaptively up to chi.

    A pivot grows a bond while its cross residual is above
    TCI_TOL * f.max_abs. Sweeps run until one whose largest added
    residual is at most STOP_TOL * f.max_abs: it added no pivot, or only
    pivots at the rounding floor. That stop is not a fixed point: maxvol
    reselection can still move the pivots, and so the probe residual, in
    a sweep that adds none. The network is then assembled once and its
    residual taken once, as the largest error on the probe set relative
    to f.max_abs.

    Returns the assembled network (exact on all pivot crosses, not yet
    canonical) and an info dict with the evaluation count (f.evals), the
    relative probe residual, whether it is within TCI_TOL, the sweeps run,
    each sweep's largest added residual relative to the peak ("growth")
    and the final pivots.

    f need not be normalized: the rank cut, the growth test, the stop and
    the tolerance are all relative to f.max_abs, so scaling f by a power
    of two scales the network by it and changes no decision.
    """
    if chi < 1:
        raise ParameterError("chi must be >= 1")
    if sweeps < 1:
        raise ParameterError("sweeps must be >= 1")
    labels = topo.labels()
    dims_map = topo.leaf_dims()
    if tuple(dims_map[lab] for lab in labels) != tuple(f.dims):
        raise ParameterError("topology leaf dims do not match the black box")
    rng = np.random.default_rng(seed)
    state = _PivotState(topo, dims_map)
    probe_set = _probe_indices(rng, f.dims, PROBES)
    probe_vals = f(probe_set)

    growth = []
    for sweeps_run in range(1, sweeps + 1):
        # forward updates the root-facing side, backward the far side
        added = [_update_side(f, state, bond, u, v, chi, rng)
                 for u, v, bond in state.schedule]
        added += [_update_side(f, state, bond, v, u, chi, rng)
                  for u, v, bond in reversed(state.schedule)]
        growth.append(max(added, default=0.0))
        if growth[-1] <= STOP_TOL:
            break
    net = _assemble(f, state)
    resid = float(np.max(np.abs(net.evaluate(probe_set) - probe_vals))
                  / max(f.max_abs, 1e-300))
    info = {"evals": f.evals, "residual": resid,
            "converged": resid <= TCI_TOL,
            "sweeps_run": sweeps_run, "growth": growth,
            "pivots": state.pivots,
            "bond_dims": {b: state.rank(b) for b in topo.bonds}}
    return net, info


def _update_side(f: BlackBoxTensor, state: _PivotState, bond, u: int, v: int,
                 chi: int, rng: np.random.Generator) -> float:
    """Re-select the u-side pivots of `bond` by maxvol on the SVD basis of
    the candidate block over u's other legs, then grow the rank by cross
    steps on one batch of sampled far-side extension columns. Returns
    the largest residual added, relative to the peak, or 0.0 when no
    pivot was added."""
    cols_u = state.side_cols[(bond, u)]
    cols_v = state.side_cols[(bond, v)]
    parts = state.far_parts(u, skip=("bond", bond))
    n = math.prod(len(rows) for _, rows in parts)  # candidate u-side rows
    piv_v = state.pivots[(bond, v)]
    r = len(piv_v)
    b = f.block(parts + [(cols_v, piv_v)]).reshape(n, r)

    # one SVD reveals the rank and gives the bases maxvol selects from;
    # a rank below r shrinks the pair
    uu, sv, vh = np.linalg.svd(b, full_matrices=False)
    scale = max(f.max_abs, 1e-300)
    rank = int((sv > max(1e-14 * scale, 1e-300)).sum())
    if rank == 0:
        # degenerate block: keep a single best-magnitude pivot
        i = int(np.argmax(np.abs(b[:, 0])))
        state.pivots[(bond, u)] = _pick_rows(parts, [i], cols_u)
        state.pivots[(bond, v)] = piv_v[:1]
        return 0.0
    rows = list(maxvol(uu[:, :rank]))
    if rank < r:
        colsel = maxvol(vh[:rank].conj().T)
        piv_v, b, r = piv_v[colsel], b[:, colsel], rank

    # growth: one batch of far-side extension columns, then full-pivot
    # cross steps on their interpolation residual while it stays above
    # tolerance; each step zeroes its row and column, so no pivot repeats
    g = min(max(2, chi // 4), chi - r, n - r)
    added = []
    largest = 0.0
    if g > 0:
        ext = _dedupe_against(_sample_side(state, bond, v, KICK * g, rng),
                              piv_v)
        c = f.block(parts + [(cols_v, ext)]).reshape(n, len(ext))
        try:
            resid = c - b @ solve(b[rows], c[rows])
        except np.linalg.LinAlgError as exc:
            raise PivotDegeneracyError("singular pivot block during growth") \
                from exc
        for _ in range(min(g, len(ext))):
            i, j = divmod(int(np.abs(resid).argmax()), len(ext))
            if abs(resid[i, j]) <= TCI_TOL * scale:
                break
            largest = max(largest, float(abs(resid[i, j]) / scale))
            rows.append(i)
            added.append(j)
            resid -= resid[:, j, None] * resid[i] / resid[i, j]
        piv_v = np.vstack([piv_v, ext[added]])
    state.pivots[(bond, u)] = _pick_rows(parts, rows, cols_u)
    state.pivots[(bond, v)] = piv_v
    return largest


def _dedupe_against(ext: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """The rows of ext not in existing, each once, in first-occurrence
    order."""
    seen = set(_row_keys(existing).tolist())
    keep = []
    for i, key in enumerate(_row_keys(ext).tolist()):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return ext[keep]


def _sample_side(state: _PivotState, bond, v: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Random v-side assignments nested in the current far pivots: each
    sample combines one random pivot per far leg of v with random physical
    indices; half the physical entries are redrawn low-biased. Every
    distribution is drawn once for all legs and axes."""
    cols_v = state.side_cols[(bond, v)]
    parts = state.far_parts(v, skip=("bond", bond))
    out = np.zeros((count, len(state.labels)), dtype=np.int64)
    picks = rng.integers(0, [len(piv) for _, piv in parts],
                         size=(count, len(parts)))
    for (cols, piv), pick in zip(parts, picks.T):
        out[:, cols] = piv[pick]
    # low-biased redraw of physical columns on half the entries
    phys = [key for kind, key in state.legs_of[v] if kind == "phys"]
    at = [state.col[key] for key in phys]
    low = _low_biased(rng, [state.dims[key] for key in phys],
                      (count, len(phys)))
    out[:, at] = np.where(rng.random(low.shape) < 0.5, low, out[:, at])
    full = out[:, cols_v]
    # a quarter of the samples leave the nested family entirely; a side
    # whose node carries only bonds could otherwise never grow, since all
    # its nested combinations start out at the shared seed pivot
    wild = rng.random(count) < 0.25
    full[wild] = _probe_indices(
        rng, [state.dims[state.labels[c]] for c in cols_v], int(wild.sum()))
    return full


def _assemble(f: BlackBoxTensor, state: _PivotState) -> TreeTensorNetwork:
    """Evaluate node tensors over far-side pivots and absorb P_e^{-1}
    into the child side of every bond (rooted at the smallest node id)."""
    topo = state.topo
    tensors = {}
    axis_order = {}
    for u in sorted(topo.nodes()):
        if not state.legs_of[u]:
            raise ParameterError("node with no legs")
        parts = state.far_parts(u, skip=None)
        tensors[u] = f.block(parts).reshape([len(rows) for _, rows in parts])
        axis_order[u] = list(state.legs_of[u])

    # child w of parent p via bond: transform w's parent axis by P^{-1}
    # so it enumerates w-side pivots
    for p, w, bond in state.schedule:
        piv_u = state.pivots[(bond, w)]
        piv_v = state.pivots[(bond, p)]
        pmat = f.block([(state.side_cols[(bond, w)], piv_u),
                        (state.side_cols[(bond, p)], piv_v)]).reshape(
            len(piv_u), len(piv_v))
        axis = axis_order[w].index(("bond", bond))
        t = tensors[w]
        tm = np.moveaxis(t, axis, -1)
        shape = tm.shape
        try:
            # rows of tm run over far pivots J_v; right-multiply by
            # P^{-1} so the axis pairs with the parent's J_u axis
            tm = solve(pmat.T, tm.reshape(-1, shape[-1]).T).T
        except np.linalg.LinAlgError as exc:
            raise PivotDegeneracyError(
                "singular pivot block in assembly") from exc
        tensors[w] = np.moveaxis(tm.reshape(shape), -1, axis)

    return TreeTensorNetwork.from_topology(topo, tensors, axis_order)
