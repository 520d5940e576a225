"""Truncated Fourier coefficients of discretized Gaussian amplitudes.

The target register state encodes sqrt(p(x)) on a centered box of width a
per dimension, x_i = -a/2 + a*b_i/2^n for n-bit integers b_i. Expanding
the amplitude in the Fourier basis of the box gives coefficients

    fhat_k  proportional to  (-1)^{|k_1 + ... + k_D|} exp(-(2pi/a)^2 k^T Sigma k)

for integer frequency vectors k. Keeping M = 2^m frequencies per dimension
(k in [-M/2, M/2 - 1], stored at index k mod M) and applying the inverse
DFT embedding M -> 2^n reproduces the state up to the discarded Fourier
tail. The alternating sign absorbs the -a/2 box offset, so the embedded
amplitudes come out positive.

FourierEvaluator gives the coefficients unnormalized, with the peak
exactly 1 at k = 0; only the dense reference (dense_coeff_tensor) is
normalized.

Dense constructions are desk-scale verification tools and are guarded at
24 qubits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_DENSE_QUBITS, CapacityError, ParameterError,
                     ShapeError)
from .gaussian import CovarianceMatrix

SLAB_ENTRIES = 1 << 16   # entries a dense pass takes per slab or chunk


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters: dim dimensions, n qubits each, box width
    a, and m kept Fourier qubits per dimension (M = 2^m frequencies)."""

    dim: int
    qubits: int
    box: float
    fourier_qubits: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.qubits < 1 or self.qubits > 30:
            raise ParameterError("qubits per dimension must lie in [1, 30]")
        if not 1 <= self.fourier_qubits <= self.qubits:
            raise ParameterError("fourier qubits must lie in [1, qubits]")
        if not self.box > 0:
            raise ParameterError("box width must be positive")

    @property
    def m(self) -> int:
        return self.fourier_qubits

    @property
    def n(self) -> int:
        return self.qubits

    @property
    def M(self) -> int:
        return 1 << self.fourier_qubits

    @property
    def total_qubits(self) -> int:
        return self.dim * self.qubits


def index_to_frequency(s, M: int):
    """Stored index s in [0, M) -> signed frequency k in [-M/2, M/2)."""
    s = np.asarray(s)
    return np.where(s < M // 2, s, s - M)


class FourierEvaluator:
    """Pointwise access to the unnormalized truncated Fourier coefficients
    sign * exp(-c k^T Sigma k), c = (2 pi / a)^2, at every grid size.

    The peak is exactly 1.0 at k = 0. Nothing downstream needs the
    normalization: TCI thresholds are relative to the largest magnitude
    seen, the ledger is a ratio of singular-value masses and synthesis
    normalizes the network, so no O(M^dim) pass runs here.
    dense_coeff_tensor is the normalized reference.
    """

    def __init__(self, grid: GridSpec, cov: CovarianceMatrix):
        if cov.dim != grid.dim:
            raise ParameterError("covariance dim does not match grid dim")
        self.grid = grid
        self.cov = cov
        self._c = (2.0 * math.pi / grid.box) ** 2
        self._form = -2.0 * self._c * cov.matrix  # eval_block's Gram form
        self._freq = index_to_frequency(np.arange(grid.M), grid.M).astype(
            float)

    def coeff(self, k) -> np.ndarray:
        """Signed unnormalized coefficient(s) at frequency vector(s) k,
        shape (dim,) or (batch, dim), each component in [-M/2, M/2);
        exactly 1.0 at k = 0."""
        k = np.asarray(k, dtype=int)
        single = k.ndim == 1
        k = np.atleast_2d(k)
        if k.shape[1] != self.grid.dim:
            raise ParameterError("frequency vector has wrong length")
        half = self.grid.M // 2
        if np.any(k < -half) or np.any(k >= half):
            raise ParameterError("frequency outside [-M/2, M/2)")
        quad = np.einsum("bi,ij,bj->b", k.astype(float), self.cov.matrix,
                         k.astype(float))
        sign = 1.0 - 2.0 * (np.abs(k.sum(axis=1)) % 2)
        vals = sign * np.exp(-self._c * quad)
        return vals[0] if single else vals

    def eval_indices(self, s) -> np.ndarray:
        """Coefficients at stored indices s in [0, M)^dim (batched)."""
        s = np.asarray(s, dtype=int)
        return self.coeff(index_to_frequency(s, self.grid.M))

    def eval_block(self, parts) -> np.ndarray:
        """Coefficients over the Cartesian product of (axes, stored-index
        rows) parts that cover every axis once, flat and row-major over
        the parts; the caller checks cover and range.

        The exponent k^T S k splits over the parts. With every
        part's frequencies stacked on their own axes, one Gram product
        h = k (-2c S) k^T holds twice each part's own form on its diagonal
        and each pair's cross term in an off-diagonal block; the block
        broadcasts those together and takes one exp. M is even, so the
        sign is the parity of the frequencies.
        """
        n = len(parts)
        sizes = [len(rows) for _, rows in parts]
        k = np.zeros((sum(sizes), self.grid.dim))
        lo = 0
        for (cols, rows), size in zip(parts, sizes):
            k[lo:lo + size, cols] = self._freq[rows]
            lo += size
        h = k @ (self._form @ k.T)
        own = 0.5 * h.diagonal()
        parity = 1.0 - 2.0 * np.mod(k.sum(1), 2.0)
        expo, sign = 0.0, 1.0
        lo = 0
        for p, size in enumerate(sizes):
            at = [1] * n
            at[p] = size
            expo = expo + own[lo:lo + size].reshape(at)
            sign = sign * parity[lo:lo + size].reshape(at)
            qlo = lo + size
            for q in range(p + 1, n):
                at_q = list(at)
                at_q[q] = sizes[q]
                expo = expo + h[lo:lo + size, qlo:qlo + sizes[q]].reshape(at_q)
                qlo += sizes[q]
            lo += size
        expo = np.exp(expo)
        expo *= sign
        return expo.ravel()


def _dense_quadratic(mat: np.ndarray, v: np.ndarray,
                     finish=None) -> np.ndarray:
    """sum_ij mat[i, j] v[b_i] v[b_j] at every grid point (b_1, ..., b_D),
    D = len(mat), as a (len(v),)*D tensor, built one axis at a time.

    With s_k = sum_{i<k} (mat[i, k] + mat[k, i]) v[b_i] on the first k
    axes, q_k = q_{k-1} + v[b_k] (s_k + mat[k, k] v[b_k]): one matrix
    product of the columns (q_{k-1}, s_k, 1) with the rows
    (1, v, mat[k, k] v^2), taken slab by slab, about SLAB_ENTRIES
    entries of q_k at a time. Every step but the last works on arrays
    len(v) times smaller than the result, which is written in one pass;
    the in-place ufunc `finish`, when given, runs on each of its slabs as
    it lands.
    """
    q = np.zeros(())
    step = max(1, SLAB_ENTRIES // len(v))
    for k in range(len(mat)):
        s = functools.reduce(np.add.outer, (mat[:k, k] + mat[k, :k])[:, None]
                             * v, np.zeros(())).ravel()
        rows = np.stack([np.ones_like(v), v, mat[k, k] * v * v])
        out = np.empty((q.size, len(v)))
        for r in range(0, q.size, step):
            qs = q.ravel()[r:r + step]
            slab = np.matmul(np.stack([qs, s[r:r + step], np.ones_like(qs)],
                                      axis=1), rows, out=out[r:r + step])
            if finish is not None and k == len(mat) - 1:
                finish(slab, out=slab)
        q = out.reshape(q.shape + v.shape)
    return q


def dense_coeff_tensor(ev: FourierEvaluator) -> np.ndarray:
    """All M^dim coefficients as a tensor indexed by stored index per axis,
    normalized to unit L2 mass. Guarded at m*dim <= 24."""
    grid = ev.grid
    M, D = grid.M, grid.dim
    if grid.fourier_qubits * D > MAX_DENSE_QUBITS:
        raise CapacityError("dense coefficient tensor above the "
                            f"{MAX_DENSE_QUBITS}-qubit guard")
    k = index_to_frequency(np.arange(M), M)
    ksum = functools.reduce(np.add.outer, [k] * D)
    sign = 1.0 - 2.0 * (ksum & 1)
    quad = _dense_quadratic(ev.cov.matrix, k.astype(float))
    t = sign * np.exp(-ev._c * quad)
    return t / np.linalg.norm(t)


def exact_target(grid: GridSpec, cov: CovarianceMatrix) -> np.ndarray:
    """Normalized sqrt-Gaussian amplitudes on the full position grid, as a
    (2^n,)*dim tensor over the per-dimension integers b. Guarded at
    n*dim <= 24."""
    n, D, a = grid.qubits, grid.dim, grid.box
    if n * D > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense target above the {MAX_DENSE_QUBITS}-qubit guard")
    if cov.dim != D:
        raise ParameterError("covariance dim does not match grid dim")
    N = 1 << n
    x = (-a / 2.0 + a * np.arange(N) / N)
    # the factor -1/4 is a power of two, so folding it into the precision
    # matrix rounds nothing; exp runs on each slab as it is written, and
    # the scaling in place
    t = _dense_quadratic(-0.25 * np.linalg.inv(cov.matrix), x, np.exp)
    t /= np.linalg.norm(t)
    return t


def inverse_dft_embedding_matrix(n: int, m: int) -> np.ndarray:
    """The (2^n x 2^m) isometry from stored frequency indices to position
    amplitudes: W[b, s] = 2^{-n/2} exp(2 pi i b k(s) / 2^n) with k(s) the
    signed frequency. Columns are orthonormal for m <= n."""
    if not 1 <= m <= n:
        raise ParameterError("need 1 <= m <= n")
    N, M = 1 << n, 1 << m
    b = np.arange(N)[:, None]
    k = index_to_frequency(np.arange(M), M)[None, :]
    return np.exp(2j * math.pi * b * k / N) / math.sqrt(N)


def fsl_state(grid: GridSpec, cov: CovarianceMatrix) -> np.ndarray:
    """The ideal state prepared from the truncated coefficients: dense
    coefficient tensor pushed through the inverse DFT embedding on every
    axis, as a complex (2^n,)*dim tensor. Its overlap with the target is
    the fidelity ceiling any compressed circuit inherits; fourier_ceiling
    takes that overlap without building this state."""
    if grid.qubits * grid.dim > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense embedded state above the {MAX_DENSE_QUBITS}-qubit guard")
    t = dense_coeff_tensor(FourierEvaluator(grid, cov)).astype(complex)
    W = inverse_dft_embedding_matrix(grid.qubits, grid.fourier_qubits)
    for d in range(grid.dim):
        t = np.moveaxis(np.tensordot(W, t, axes=(1, d)), 0, d)
    return t


def fourier_ceiling(grid: GridSpec, cov: CovarianceMatrix,
                    target: np.ndarray) -> float:
    """|<fsl_state|target>|^2 for a real target on the full grid, taken in
    coefficient space.

    With fsl_state = W^{(x)dim} c, the overlap is <c|(W^dagger)^{(x)dim} t>:
    the target is projected onto the kept frequencies one axis at a time
    and meets c in one vdot. The target is cut along its leading axis into
    slabs of about SLAB_ENTRIES entries (whole leading indices, at least
    one). Each slab takes the last axis as one real product with the
    2^n x 2^{m+1} matrix whose columns interleave Re W and -Im W, read as
    complex, and then the middle axes, each shrinking it by 2^{m-n}. Its
    (rows, M^{dim-1}) projection lands in one (2^n, M^{dim-1}) complex
    array, which one W^dagger product on the leading axis finishes. Beyond
    the target, the working memory is that array, 2 (M/2^n)^{dim-1} of the
    target's bytes, and one slab's products, about 2M/2^n of a slab's;
    nothing register-size is made. At dim 1 the last axis is the only one:
    one product.
    """
    n, m, D = grid.qubits, grid.fourier_qubits, grid.dim
    if n * D > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense target above the {MAX_DENSE_QUBITS}-qubit guard")
    if np.size(target) != 1 << n * D:
        raise ShapeError(
            f"{np.size(target)} target amplitudes for {n * D} qubits")
    N, M = 1 << n, 1 << m
    W = inverse_dft_embedding_matrix(n, m)
    Wh = W.conj().T
    pairs = np.stack([W.real, -W.imag], axis=-1).reshape(N, -1)

    def last_axis(t):
        return (np.reshape(t, (-1, N)) @ pairs).view(complex)

    if D == 1:
        y = last_axis(target)
    else:
        t = np.reshape(target, (N, -1))
        step = max(1, SLAB_ENTRIES // t.shape[1])
        y = np.empty((N, M ** (D - 1)), dtype=complex)
        for r in range(0, N, step):
            slab = t[r:r + step]
            s = last_axis(slab)
            for d in range(D - 2):
                # middle axis d + 1 leads what is still on the grid:
                # (rows M^d, N, rest)
                s = np.matmul(Wh, s.reshape(len(slab) * M ** d, N, -1))
            y[r:r + step] = s.reshape(len(slab), -1)
        y = Wh @ y
    c = dense_coeff_tensor(FourierEvaluator(grid, cov))
    return float(abs(np.vdot(c.ravel(), y.ravel())) ** 2)
