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

Dense constructions are desk-scale verification tools and are guarded at
24 qubits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_DENSE_QUBITS, CapacityError, ParameterError
from .gaussian import CovarianceMatrix


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


def _frequency_block(M: int, d: int) -> np.ndarray:
    """Every signed frequency vector over d axes, as an (M^d, d) float
    array in row-major stored-index order; (1, 0) for d = 0."""
    s = np.indices((M,) * d).reshape(d, M ** d).T
    return index_to_frequency(s, M).astype(float)


class FourierEvaluator:
    """Pointwise access to normalized truncated Fourier coefficients.

    The exact normalization sums M^dim squared coefficients and is only
    computed when m*dim <= 24; above that the evaluator returns
    unnormalized values (normalized attribute False) and callers
    normalize whatever object they build from it. The sum splits the
    axes into a leading block of dim//2 and a trailing block, so each
    exponent is a per-block quadratic form plus one cross term and the
    M^dim terms come from row chunks of an (M^a x M^(dim-a)) grid.
    """

    def __init__(self, grid: GridSpec, cov: CovarianceMatrix):
        if cov.dim != grid.dim:
            raise ParameterError("covariance dim does not match grid dim")
        self.grid = grid
        self.cov = cov
        self._c = (2.0 * math.pi / grid.box) ** 2
        self.normalized = grid.fourier_qubits * grid.dim <= MAX_DENSE_QUBITS
        self.norm = self._exact_norm() if self.normalized else 1.0

    def _exact_norm(self) -> float:
        M, D = self.grid.M, self.grid.dim
        # with k = (k_a, k_b), k^T S k = q_a + q_b + 2 k_a^T S_ab k_b, so
        # each row chunk of the pair grid costs one small matmul and an
        # exp; for D = 1 the leading block is a single zero-length row
        a = D // 2
        s = self.cov.matrix
        ka, kb = _frequency_block(M, a), _frequency_block(M, D - a)
        qa = np.einsum("bi,ij,bj->b", ka, s[:a, :a], ka)
        qb = np.einsum("bi,ij,bj->b", kb, s[a:, a:], kb)
        cross = 2.0 * (s[:a, a:] @ kb.T)
        total = 0.0
        rows = max(1, (1 << 18) // len(kb))
        for start in range(0, len(ka), rows):
            quad = (qa[start:start + rows, None] + qb[None, :]
                    + ka[start:start + rows] @ cross)
            total += float(np.exp(-2.0 * self._c * quad).sum())
        return math.sqrt(total)

    def coeff(self, k) -> np.ndarray:
        """Signed normalized coefficient(s) at frequency vector(s) k,
        shape (dim,) or (batch, dim), each component in [-M/2, M/2)."""
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
        vals = sign * np.exp(-self._c * quad) / self.norm
        return vals[0] if single else vals

    def eval_indices(self, s) -> np.ndarray:
        """Coefficients at stored indices s in [0, M)^dim (batched)."""
        s = np.asarray(s, dtype=int)
        return self.coeff(index_to_frequency(s, self.grid.M))


def _dense_quadratic(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_ij mat[i, j] v[b_i] v[b_j] at every grid point (b_1, ..., b_D),
    D = len(mat), as a (len(v),)*D tensor, built one axis at a time.

    With s_k = sum_{i<k} (mat[i, k] + mat[k, i]) v[b_i] on the first k
    axes, q_k = q_{k-1} + v[b_k] (s_k + mat[k, k] v[b_k]): one matrix
    product of the columns (q_{k-1}, s_k, 1) with the rows
    (1, v, mat[k, k] v^2). Every step but the last works on arrays
    len(v) times smaller than the result, which is written in one pass.
    """
    q = np.zeros(())
    for k in range(len(mat)):
        s = functools.reduce(np.add.outer, (mat[:k, k] + mat[k, :k])[:, None]
                             * v, np.zeros(()))
        cols = np.stack([q.ravel(), s.ravel(), np.ones(q.size)], axis=1)
        rows = np.stack([np.ones_like(v), v, mat[k, k] * v * v])
        q = (cols @ rows).reshape(q.shape + v.shape)
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
    # matrix rounds nothing; exp and the scaling then run in place
    t = _dense_quadratic(-0.25 * np.linalg.inv(cov.matrix), x)
    np.exp(t, out=t)
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
    and meets c in one vdot. The last axis goes first, as one real
    product of the (2^{n(dim-1)}, 2^n) target with the 2^n x 2^{m+1}
    matrix whose columns interleave Re W and -Im W; read as complex, its
    output is the projection, so nothing register-size is complex. The
    other axes follow first to last, each shrinking the remainder by
    2^{m-n}.
    """
    n, m, D = grid.qubits, grid.fourier_qubits, grid.dim
    if n * D > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense target above the {MAX_DENSE_QUBITS}-qubit guard")
    N, M = 1 << n, 1 << m
    W = inverse_dft_embedding_matrix(n, m)
    pairs = np.stack([W.real, -W.imag], axis=-1).reshape(N, -1)
    y = (np.reshape(target, (-1, N)) @ pairs).view(complex)
    for d in range(D - 1):
        # axis d is the first one still on the grid: (M^d, N, rest), so
        # the largest step is one product with no batch
        y = np.matmul(W.conj().T, y.reshape(M ** d, N, -1))
    c = dense_coeff_tensor(FourierEvaluator(grid, cov))
    return float(abs(np.vdot(c.ravel(), y.ravel())) ** 2)
