"""Entanglement analytics of multivariate normal amplitudes.

A normalized Gaussian amplitude on D variables factorizes across any
bipartition into a product of two-variable Gaussian pairs after a
canonical-correlation transform on each side. Each pair with correlation
rho contributes a geometric Schmidt spectrum

    lambda_k = lam0 * q**k,   lam0 = 2/(K+1),  q = (K-1)/(K+1),
    K = 1/sqrt(1-rho^2),

and the spectrum of the cut is the product lattice of the pair spectra.
Everything here is exact linear algebra on the covariance matrix; no
tensors are built.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import eigh, svd

from .errors import (DegenerateDistributionError, GenerationError,
                     IllConditionedError, ParameterError, PrecisionError)
from .topology import TreeTopology, tree_distances

SYMMETRY_TOL = 1e-12
RANK_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-13
RESAMPLE_BUDGET = 1000
PAIR_CUTOFF = 1e-16   # tail mass at which a pair spectrum stops ...
PAIR_TERMS = 100000   # ... or its length, whichever comes first
BOND_TERMS = 2 ** 20  # lattice terms required_bond may enumerate

COVARIANCE_KINDS = ("uniform", "chain", "tree", "exp-decay-chain",
                    "stacked-chain", "random")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive definite covariance, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"covariance must be square, got {m.shape}")
        if not np.all(np.abs(m - m.T) <= SYMMETRY_TOL):
            raise ParameterError("covariance is not symmetric within 1e-12")
        w = np.linalg.eigvalsh(m)
        if w[0] <= 0:
            raise ParameterError(
                f"covariance is not positive definite (min eigenvalue {w[0]:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, rows, cols) -> np.ndarray:
        return self.matrix[np.ix_(list(rows), list(cols))]

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "entries": [float(x) for x in self.matrix.ravel()]}

    @classmethod
    def from_dict(cls, d: dict) -> "CovarianceMatrix":
        dim = int(d["dim"])
        entries = np.asarray(d["entries"], dtype=float)
        if entries.size != dim * dim:
            raise ParameterError("entry count does not match dim^2")
        return cls(entries.reshape(dim, dim))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "CovarianceMatrix":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Bipartition:
    """Disjoint split of the variable indices 0..D-1 into two sides."""

    left: frozenset
    right: frozenset

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        if not self.left or not self.right:
            raise ParameterError("both sides of a bipartition must be nonempty")
        if self.left & self.right:
            raise ParameterError("bipartition sides overlap")


def make_covariance(kind: str, dim: int, *, seed: int | None = None,
                    **params) -> CovarianceMatrix:
    """Generate a unit-diagonal covariance of one of the stock families.

    uniform          rho             constant off-diagonal rho
    chain            rho             Sigma_ij = rho**|i-j|
    tree             edges, sigma    Sigma_ij = exp(-d(i,j)/sigma), d = tree
                                     path length; variables are tree nodes
                                     0..dim-1
    exp-decay-chain  sigma_max       Sigma_ij = sqrt(s_i s_j)**|i-j| with
                                     s_i ~ U[0, sigma_max]
    stacked-chain    rank, sigma_max disjoint interleaved subgroups
                                     {j, j+rank, ...}, each a chain with its
                                     own rho_j ~ U[0, sigma_max]; zero across
                                     subgroups
    random           sigma_max       off-diagonal ~ U[-sigma_max, sigma_max],
                                     resampled until positive definite

    Randomized kinds resample up to 1000 times before raising
    GenerationError. Deterministic kinds raise ParameterError if the
    requested parameters are not positive definite. Numbers must be real
    and not bool, rank an integer and edges a list of integer pairs, or
    ParameterError is raised.
    """
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    rng = np.random.default_rng(seed)

    if kind == "uniform":
        rho = float(_required(params, kind, "rho"))
        _no_extra(params)
        if not -1.0 < rho < 1.0:
            raise ParameterError("uniform rho must lie in (-1, 1)")
        m = np.full((dim, dim), rho)
        np.fill_diagonal(m, 1.0)
        return CovarianceMatrix(m)

    if kind == "chain":
        rho = float(_required(params, kind, "rho"))
        _no_extra(params)
        if not -1.0 < rho < 1.0:
            raise ParameterError("chain rho must lie in (-1, 1)")
        idx = np.arange(dim)
        return CovarianceMatrix(rho ** np.abs(idx[:, None] - idx[None, :]))

    if kind == "tree":
        edges = _required(params, kind, "edges", _list_of(_list_of(_INT, 2)),
                          "a list of integer pairs")
        sigma = float(_required(params, kind, "sigma"))
        _no_extra(params)
        if sigma <= 0:
            raise ParameterError("tree sigma must be positive")
        dist = tree_distances(edges)
        if dist.shape[0] < dim:
            raise ParameterError("tree has fewer nodes than dim")
        return CovarianceMatrix(np.exp(-dist[:dim, :dim] / sigma))

    if kind == "exp-decay-chain":
        sigma_max = float(_required(params, kind, "sigma_max"))
        _no_extra(params)
        if not 0 < sigma_max < 1.0:
            raise ParameterError("exp-decay-chain sigma_max must lie in (0, 1)")
        idx = np.arange(dim)
        gap = np.abs(idx[:, None] - idx[None, :])
        for _ in range(RESAMPLE_BUDGET):
            s = rng.uniform(0.0, sigma_max, size=dim)
            base = np.sqrt(np.outer(s, s))
            m = base ** gap
            np.fill_diagonal(m, 1.0)
            if np.linalg.eigvalsh(m)[0] > 1e-10:
                return CovarianceMatrix(m)
        raise GenerationError("exp-decay-chain: no PD sample within budget")

    if kind == "stacked-chain":
        rank = int(_required(params, kind, "rank", _INT, "an integer"))
        sigma_max = float(_required(params, kind, "sigma_max"))
        _no_extra(params)
        if rank < 1 or rank > dim:
            raise ParameterError("stacked-chain rank must lie in [1, dim]")
        if not 0 < sigma_max < 1.0:
            raise ParameterError("stacked-chain sigma_max must lie in (0, 1)")
        rhos = rng.uniform(0.0, sigma_max, size=rank)
        m = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                if i % rank == j % rank:
                    m[i, j] = rhos[i % rank] ** abs(i // rank - j // rank)
        return CovarianceMatrix(m)

    if kind == "random":
        sigma_max = float(_required(params, kind, "sigma_max"))
        _no_extra(params)
        if not 0 < sigma_max < 1.0:
            raise ParameterError("random sigma_max must lie in (0, 1)")
        iu = np.triu_indices(dim, k=1)
        for _ in range(RESAMPLE_BUDGET):
            m = np.eye(dim)
            off = rng.uniform(-sigma_max, sigma_max, size=len(iu[0]))
            m[iu] = off
            m.T[iu] = off
            if np.linalg.eigvalsh(m)[0] > 1e-10:
                return CovarianceMatrix(m)
        raise GenerationError("random: no PD sample within budget")

    raise ParameterError(f"unknown covariance kind {kind!r}")


def _is(kind):
    # bool is an int in Python, but True is no number here
    return lambda x: isinstance(x, kind) and not isinstance(x, bool)


def _list_of(ok, size=None):
    return lambda x: (isinstance(x, (list, tuple)) and all(map(ok, x))
                      and size in (None, len(x)))


# the value types that make_covariance and the CLI's run config accept
_INT, _REAL = _is(numbers.Integral), _is(numbers.Real)


def _required(params: dict, kind: str, name: str, ok=_REAL,
              what: str = "a real number"):
    if name not in params:
        raise ParameterError(f"{kind} covariance needs the parameter {name!r}")
    value = params.pop(name)
    if not ok(value):
        raise ParameterError(
            f"{kind} parameter {name!r} must be {what}, got {value!r}")
    return value


def _no_extra(params: dict) -> None:
    if params:
        raise ParameterError(f"unexpected parameters: {sorted(params)}")


def _inv_sqrt(block: np.ndarray) -> np.ndarray:
    w, q = eigh(block)
    if w[0] <= block.shape[0] * np.finfo(float).eps * w[-1]:
        raise IllConditionedError("marginal covariance block is singular")
    return (q * (w ** -0.5)) @ q.T


def canonical_correlations(cov: CovarianceMatrix,
                           cut: Bipartition) -> np.ndarray:
    """Canonical correlations across a bipartition, descending.

    Computed by whitening: the singular values of
    Sigma_11^{-1/2} Sigma_12 Sigma_22^{-1/2}. Values below 1e-12 are
    dropped; a value reaching 1 means the distribution is degenerate
    across the cut and raises DegenerateDistributionError.
    """
    all_idx = cut.left | cut.right
    if all_idx != frozenset(range(cov.dim)):
        raise ParameterError("bipartition does not cover the variable set")
    left = sorted(cut.left)
    right = sorted(cut.right)
    s11 = _inv_sqrt(cov.block(left, left))
    s22 = _inv_sqrt(cov.block(right, right))
    vals = svd(s11 @ cov.block(left, right) @ s22, compute_uv=False)
    if vals.size and vals[0] >= 1.0 - DEGENERACY_TOL:
        raise DegenerateDistributionError(
            f"canonical correlation {vals[0]:.15f} reaches 1 across the cut")
    return vals[vals > RANK_CUTOFF]


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Leading Schmidt coefficients of a cut plus the analytic tail mass.

    values are nonincreasing, nonnegative, and sum with the tail to 1.
    """

    values: np.ndarray
    tail: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise ParameterError("spectrum must have at least one value")
        if np.any(np.diff(v) > 1e-12) or v[-1] < 0:
            raise ParameterError("spectrum must be nonincreasing, nonnegative")
        if self.tail < -1e-15:
            raise ParameterError("negative tail mass")
        total = v.sum() + self.tail
        if abs(total - 1.0) > 1e-10:
            raise ParameterError(f"spectrum mass {total} != 1 within 1e-10")

    def kept_mass(self, r: int) -> float:
        return float(self.values[:r].sum())

    def tail_after(self, r: int) -> float:
        return float(self.values[r:].sum() + self.tail)


def pair_spectrum(rho: float) -> SchmidtSpectrum:
    """Geometric Schmidt spectrum of a correlated Gaussian pair.

    The tail after r terms is exactly q**r (lam0 = 1 - q), so terms are
    generated until q**r < PAIR_CUTOFF (at most PAIR_TERMS of them).
    """
    if not 0.0 <= rho < 1.0:
        raise ParameterError("rho must lie in [0, 1)")
    q = pair_ratio(rho)
    if q == 0.0:
        return SchmidtSpectrum(np.array([1.0]), 0.0)
    n = max(1, min(PAIR_TERMS, math.ceil(math.log(PAIR_CUTOFF) / math.log(q))))
    return SchmidtSpectrum((1.0 - q) * q ** np.arange(n), q ** n)


def pair_ratio(rho: float) -> float:
    """The geometric ratio q of a pair's spectrum; q < rho always."""
    if rho == 0.0:
        return 0.0
    K = 1.0 / math.sqrt(1.0 - rho * rho)
    return (K - 1.0) / (K + 1.0)


def cut_spectrum(corrs: np.ndarray, max_terms: int) -> SchmidtSpectrum:
    """Leading coefficients of the product lattice of pair spectra.

    Best-first search over multi-indices k: lambda_k = prod lam0_i q_i^{k_i}.
    Each lattice point is pushed once (increments only at positions up to
    the leftmost nonzero), so no visited set is needed.
    """
    if max_terms < 1:
        raise ParameterError("max_terms must be >= 1")
    corrs = np.asarray(corrs, dtype=float)
    pairs = [(1.0 - pair_ratio(r), pair_ratio(r)) for r in corrs if r > RANK_CUTOFF]
    if not pairs:
        return SchmidtSpectrum(np.array([1.0]), 0.0)
    p = len(pairs)
    lam0 = math.prod(l0 for l0, _ in pairs)
    start = (0,) * p
    heap = [(-lam0, start)]
    out: list[float] = []
    while heap and len(out) < max_terms:
        negv, k = heapq.heappop(heap)
        out.append(-negv)
        first_nz = next((i for i, ki in enumerate(k) if ki), p - 1)
        for i in range(first_nz + 1):
            q = pairs[i][1]
            if q == 0.0:
                continue
            child = -negv * q
            if child > 0.0:
                heapq.heappush(heap, (-child,
                                      k[:i] + (k[i] + 1,) + k[i + 1:]))
    values = np.array(out)
    tail = max(0.0, 1.0 - float(values.sum()))
    return SchmidtSpectrum(values, tail)


def required_bond(source, eps: float) -> int:
    """Smallest r whose discarded mass after the top r coefficients is
    <= eps^2.

    source is either a SchmidtSpectrum or an array of canonical
    correlations (then the cut spectrum is enumerated lazily until the
    accuracy is certified). Raises PrecisionError when eps is below what
    the retained spectrum can resolve.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    target = eps * eps * (1.0 + 1e-12)  # one-ulp slack on exact boundaries

    if isinstance(source, SchmidtSpectrum):
        r = _first_certified(source, target)
        if r is None:
            raise PrecisionError("spectrum cutoff exceeds requested accuracy")
        return r

    terms = 256
    while True:
        spectrum = cut_spectrum(source, terms)
        r = _first_certified(spectrum, target)
        if r is not None:
            return r
        if spectrum.tail <= 0.0 or terms >= BOND_TERMS:
            raise PrecisionError(
                f"accuracy {eps:g} not certified within {terms} lattice terms")
        terms *= 4


def _first_certified(spectrum: SchmidtSpectrum, target: float) -> int | None:
    # suffix[i] = sum(values[i:]); keeping r values discards tail + suffix[r]
    suffix = np.cumsum(spectrum.values[::-1])[::-1]
    discard = np.append(suffix[1:], 0.0) + spectrum.tail
    hit = np.nonzero(discard <= target)[0]
    if hit.size == 0:
        return None
    return int(hit[0]) + 1


def closed_form_rank_bound(corrs: np.ndarray, eps: float) -> int:
    """Closed-form bond bound r**l for a rank-l cut: the largest pair ratio
    q satisfies l * q**r <= eps^2 with r = ceil(log(l/eps^2)/log(1/q))."""
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    corrs = np.asarray(corrs, dtype=float)
    corrs = corrs[corrs > RANK_CUTOFF]
    l = corrs.size
    if l == 0:
        return 1
    q = max(pair_ratio(r) for r in corrs)
    if q == 0.0:
        return 1
    r = max(1, math.ceil(math.log(l / (eps * eps)) / math.log(1.0 / q)))
    return r ** l


def predict_ttn_fidelity(cov: CovarianceMatrix, topo: TreeTopology,
                         chi: int) -> float:
    """A-priori fidelity of truncating every internal bond of topo to chi:
    the product over bonds of the top-chi mass of that cut's spectrum."""
    if chi < 1:
        raise ParameterError("chi must be >= 1")
    labels = set(topo.labels())
    if labels != set(range(cov.dim)):
        raise ParameterError("topology labels must be the variable set 0..D-1")
    f = 1.0
    for _, left, right in topo.bipartitions():
        corrs = canonical_correlations(cov, Bipartition(left, right))
        f *= min(1.0, cut_spectrum(corrs, chi).kept_mass(chi))
    return f


def required_bond_profile(cov: CovarianceMatrix, topo: TreeTopology,
                          eps: float) -> dict[tuple[int, int], int]:
    """Per-bond required rank when the accuracy budget eps^2 is split
    evenly across the internal bonds of the topology."""
    cuts = topo.bipartitions()
    if not cuts:
        return {}
    eps_cut = eps / math.sqrt(len(cuts))
    out = {}
    for bond, left, right in cuts:
        corrs = canonical_correlations(cov, Bipartition(left, right))
        out[bond] = required_bond(corrs, eps_cut)
    return out
