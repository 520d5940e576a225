"""Grid, truncated Fourier coefficients, and the dense uncompressed baseline."""

import tracemalloc

import numpy as np
import pytest

from ttnprep import (CapacityError, CovarianceMatrix, ParameterError,
                     ShapeError, make_covariance)
from ttnprep.fourier import (FourierEvaluator, GridSpec, _dense_quadratic,
                             dense_coeff_tensor, exact_target, fourier_ceiling,
                             fsl_state, index_to_frequency,
                             inverse_dft_embedding_matrix)
from ttnprep.sim import fidelity

UNIT = CovarianceMatrix(np.array([[1.0]]))


def test_grid_spec_fields():
    g = GridSpec(2, 8, 20.0, 5)
    assert g.n == 8 and g.m == 5 and g.M == 32
    assert g.total_qubits == 16


def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec(1, 4, 20.0, 5)  # m > n
    with pytest.raises(ParameterError):
        GridSpec(1, 4, -1.0, 2)
    with pytest.raises(ParameterError):
        GridSpec(1, 0, 20.0, 0)
    with pytest.raises(ParameterError):
        GridSpec(0, 4, 20.0, 2)


def test_index_to_frequency_wraps_upper_half():
    assert [index_to_frequency(s, 8) for s in range(8)] == \
        [0, 1, 2, 3, -4, -3, -2, -1]


# -- coeff ---------------------------------------------------------------------


def test_zero_wavenumber_is_maximal():
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 4), make_covariance("chain", 2, rho=0.5))
    c0 = ev.coeff(np.zeros(2, dtype=int))
    assert c0 > 0
    rng = np.random.default_rng(0)
    ks = rng.integers(-8, 8, size=(50, 2))
    assert np.all(np.abs(ev.coeff(ks)) <= c0)


def test_coeff_sign_and_reflection_symmetry():
    ev = FourierEvaluator(GridSpec(1, 6, 20.0, 4), UNIT)
    plus = ev.coeff(np.array([1]))
    minus = ev.coeff(np.array([-1]))
    assert plus == minus
    assert plus < 0  # (-1)^|k| sign factor


def test_coeff_ratio_closed_form_and_dft_oracle():
    ev = FourierEvaluator(GridSpec(1, 8, 20.0, 5), UNIT)
    ratio = ev.coeff(np.array([1])) / ev.coeff(np.array([0]))
    np.testing.assert_allclose(ratio, -np.exp(-(2 * np.pi / 20.0) ** 2),
                               rtol=1e-12)
    # cross-check against the DFT of the n=8 sampled amplitude
    t = exact_target(GridSpec(1, 8, 20.0, 8), UNIT)
    f = np.fft.fft(t)
    np.testing.assert_allclose(abs(f[1] / f[0]), abs(ratio), rtol=1e-3)


def test_coeff_out_of_range_rejected():
    ev = FourierEvaluator(GridSpec(1, 6, 20.0, 4), UNIT)
    with pytest.raises(ParameterError):
        ev.coeff(np.array([8]))  # valid range [-8, 7]
    with pytest.raises(ParameterError):
        ev.coeff(np.array([-9]))


def test_coeff_batch_matches_scalar():
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 3), make_covariance("uniform", 2, rho=0.3))
    ks = np.array([[0, 0], [1, -2], [-4, 3], [2, 2]])
    batch = ev.coeff(ks)
    singles = [ev.coeff(k) for k in ks]
    np.testing.assert_array_equal(batch, singles)


def test_eval_indices_matches_coeff():
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 3), make_covariance("chain", 2, rho=0.4))
    s = np.array([[0, 5], [7, 3], [4, 4]])
    k = np.vectorize(index_to_frequency)(s, 8)
    np.testing.assert_allclose(ev.eval_indices(s), ev.coeff(k), rtol=1e-14)


def test_monotone_decay_along_rays():
    ev = FourierEvaluator(GridSpec(2, 8, 20.0, 5), make_covariance("chain", 2, rho=0.5))
    for ray in ([1, 1], [1, -1], [1, 0], [2, 1]):
        ray = np.array(ray)
        steps = [t * ray for t in range(6) if np.all(np.abs(t * ray) <= 15)]
        mags = np.abs(ev.coeff(np.array(steps)))
        assert np.all(np.diff(mags) < 0)


def test_unnormalized_above_dense_guard():
    # the peak is exactly 1 below the dense cap (m*D = 24) and above it
    for m in (4, 5):
        grid = GridSpec(6, 8, 20.0, m)
        ev = FourierEvaluator(grid, make_covariance("uniform", 6, rho=0.1))
        zero = np.zeros(6, dtype=int)
        assert ev.coeff(zero) == 1.0
        assert ev.eval_indices(zero) == 1.0
        assert ev.eval_block([(np.arange(6), zero[None])]) == [1.0]


# -- dense tensor and exact target ----------------------------------------------


def test_dense_tensor_unit_norm():
    ev = FourierEvaluator(GridSpec(1, 6, 20.0, 2), UNIT)
    t = dense_coeff_tensor(ev)
    assert t.shape == (4,)
    np.testing.assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)
    # the evaluator over the whole box, normalized here, against the dense
    # tensor: D = 1, odd D and even D
    for D, m, cov in ((1, 2, UNIT),
                      (3, 3, make_covariance("random", 3, sigma_max=0.2, seed=0)),
                      (5, 2, make_covariance("uniform", 5, rho=0.3)),
                      (8, 2, make_covariance("chain", 8, rho=0.5))):
        ev = FourierEvaluator(GridSpec(D, 6, 20.0, m), cov)
        s = np.indices((ev.grid.M,) * D).reshape(D, -1).T
        vals = ev.eval_indices(s)
        np.testing.assert_allclose(vals / np.linalg.norm(vals),
                                   dense_coeff_tensor(ev).ravel(),
                                   rtol=1e-13, atol=0, err_msg=f"D={D}")


def test_dense_tensor_separable_is_rank_one():
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 4), make_covariance("uniform", 2, rho=0.0))
    t = dense_coeff_tensor(ev)
    s = np.linalg.svd(t, compute_uv=False)
    assert s[1] / s[0] < 1e-14


def test_dense_tensor_against_dft_of_samples():
    # oracle: full 2-D DFT of the n=6 sampled amplitude, restricted to the
    # kept 16x16 wavenumber block and renormalized
    cov = make_covariance("uniform", 2, rho=0.5)
    ev = FourierEvaluator(GridSpec(2, 6, 20.0, 4), cov)
    dense = dense_coeff_tensor(ev)

    t = exact_target(GridSpec(2, 6, 20.0, 6), cov).reshape(64, 64)
    f = np.fft.fft2(t)
    sel = np.array([k % 64 for k in range(-8, 8)])
    block = f[np.ix_(sel, sel)]
    order = np.array([k % 16 for k in range(-8, 8)])
    oracle = np.zeros((16, 16))
    oracle[np.ix_(order, order)] = block.real
    assert np.max(np.abs(block.imag)) < 1e-6 * np.max(np.abs(block.real))
    oracle /= np.linalg.norm(oracle)

    mass = np.sort((dense ** 2).ravel())[::-1]
    cut = mass[np.searchsorted(np.cumsum(mass), 0.9)]
    heavy = dense ** 2 >= cut
    np.testing.assert_allclose(dense[heavy], oracle[heavy], rtol=1e-3)


def test_dense_tensor_capacity_guard():
    grid = GridSpec(5, 8, 20.0, 5)
    ev = FourierEvaluator(grid, make_covariance("uniform", 5, rho=0.1))
    with pytest.raises(CapacityError):
        dense_coeff_tensor(ev)


def test_exact_target_symmetry_and_norm():
    t = exact_target(GridSpec(1, 3, 20.0, 3), UNIT)
    assert t.shape == (8,)
    np.testing.assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)
    # grid x_b = -a/2 + a b / 8: reflection symmetry pairs b with 8 - b
    np.testing.assert_allclose(t[1:], t[1:][::-1], rtol=1e-12)
    assert np.argmax(t) == 4  # x = 0 sits at b = 4


def test_exact_target_diagonal_outer_product():
    cov = CovarianceMatrix(np.diag([1.0, 2.0]))
    t = exact_target(GridSpec(2, 4, 20.0, 3), cov).reshape(16, 16)
    s = np.linalg.svd(t, compute_uv=False)
    assert s[1] / s[0] < 1e-14
    tx = exact_target(GridSpec(1, 4, 20.0, 3), UNIT)
    ty = exact_target(GridSpec(1, 4, 20.0, 3), CovarianceMatrix(np.array([[2.0]])))
    np.testing.assert_allclose(t, np.outer(tx, ty), atol=1e-12)


def test_dense_quadratic_matches_definition():
    # built one axis at a time; the definition sums every (i, j) term,
    # so an asymmetric matrix checks that both triangles count
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 3))
    v = rng.normal(size=5)
    b = np.indices((5,) * 3).reshape(3, -1).T   # grid points, row-major
    want = np.einsum("ij,ai,aj->a", mat, v[b], v[b])
    got = _dense_quadratic(mat, v)
    assert got.shape == (5, 5, 5)
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(_dense_quadratic(mat[:1, :1], v),
                               mat[0, 0] * v * v, rtol=0, atol=1e-15)


def test_exact_target_capacity_guard():
    with pytest.raises(CapacityError):
        exact_target(GridSpec(4, 7, 20.0, 4), make_covariance("uniform", 4, rho=0.1))


# -- inverse DFT embedding and the uncompressed baseline -------------------------


def test_embedding_columns_orthonormal():
    w = inverse_dft_embedding_matrix(6, 4)
    assert w.shape == (64, 16)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(16), atol=1e-12)


def test_embedding_reproduces_plane_wave():
    n, m = 5, 3
    w = inverse_dft_embedding_matrix(n, m)
    e = np.zeros(8)
    e[1] = 1.0  # k = 1
    b = np.arange(32)
    want = np.exp(2j * np.pi * b / 32) / np.sqrt(32)
    np.testing.assert_allclose(w @ e, want, atol=1e-12)


def test_fsl_state_matches_target_at_desk_scale():
    # truncated Fourier reconstruction of the 1-D target
    cov = UNIT
    psi = fsl_state(GridSpec(1, 8, 20.0, 5), cov)
    t = exact_target(GridSpec(1, 8, 20.0, 8), cov)
    fid = abs(np.vdot(psi, t)) ** 2
    assert fid >= 1 - 1e-4


def test_fsl_state_two_dim_fidelity():
    cov = make_covariance("chain", 2, rho=0.5)
    psi = fsl_state(GridSpec(2, 6, 20.0, 4), cov)
    t = exact_target(GridSpec(2, 6, 20.0, 6), cov)
    fid = abs(np.vdot(psi, t.ravel())) ** 2
    assert fid >= 1 - 1e-3
    np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-10)


@pytest.mark.parametrize("dim,n,m", [(1, 6, 6), (1, 6, 3), (2, 5, 3),
                                     (3, 4, 2), (2, 4, 4), (2, 9, 4),
                                     (3, 7, 3), (4, 4, 3), (4, 5, 5)])
def test_fourier_ceiling_matches_fsl_state(dim, n, m):
    # the overlap taken in coefficient space equals the one against the
    # dense embedded state, with m = n and m < n; at dim 2 and n = 9 the
    # target (2^18 entries) spans several slabs of whole leading indices,
    # at (3, 7, 3) one leading index per slab, and dim 4 runs the middle
    # axes twice per slab
    cov = (make_covariance("random", dim, sigma_max=0.3, seed=dim)
           if dim > 1 else CovarianceMatrix(np.array([[1.3]])))
    grid = GridSpec(dim, n, 20.0, m)
    target = exact_target(grid, cov).ravel()
    want = fidelity(fsl_state(grid, cov).ravel(), target)
    assert fourier_ceiling(grid, cov, target) == pytest.approx(want,
                                                               rel=1e-12)
    assert 0.4 < want <= 1.0 + 1e-12


@pytest.mark.parametrize("size", [1 << 9, 1 << 11])
def test_fourier_ceiling_rejects_a_wrong_size_target(size):
    # half and twice the 2^10 grid entries; the full grid, flat or as its
    # (2^n,)*dim tensor, is accepted
    grid = GridSpec(2, 5, 20.0, 3)
    cov = make_covariance("random", 2, sigma_max=0.3, seed=2)
    with pytest.raises(ShapeError):
        fourier_ceiling(grid, cov, np.ones(size))
    target = exact_target(grid, cov)
    assert fourier_ceiling(grid, cov, target) == \
        fourier_ceiling(grid, cov, target.ravel())


def test_fourier_ceiling_works_in_slabs():
    # beyond the target, fourier_ceiling holds its (2^n, M^{dim-1}) complex
    # projection and one slab's products; a whole-register product of the
    # target with the Re/Im matrix alone is half the target's size
    grid = GridSpec(4, 5, 20.0, 3)
    cov = make_covariance("random", 4, sigma_max=0.2, seed=3)
    target = exact_target(grid, cov).ravel()
    tracemalloc.start()
    try:
        fourier_ceiling(grid, cov, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < target.nbytes / 8


def test_fourier_ceiling_capacity_guard():
    grid = GridSpec(4, 7, 20.0, 4)
    with pytest.raises(CapacityError):
        fourier_ceiling(grid, make_covariance("uniform", 4, rho=0.1),
                        np.zeros(1))
