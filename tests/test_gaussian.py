"""Covariance generators, canonical correlations, and Schmidt analytics."""

import math

import numpy as np
import pytest
import scipy.linalg

from ttnprep import (Bipartition, CovarianceMatrix, DegenerateDistributionError,
                     ParameterError, PrecisionError, SchmidtSpectrum,
                     TreeTopology, canonical_correlations,
                     closed_form_rank_bound, cut_spectrum, make_covariance,
                     pair_ratio, pair_spectrum, predict_ttn_fidelity,
                     required_bond, required_bond_profile)
from ttnprep.fourier import GridSpec, exact_target


# -- covariance construction --------------------------------------------------


def test_uniform_zero_rho_is_identity():
    cov = make_covariance("uniform", 3, rho=0.0)
    np.testing.assert_array_equal(cov.matrix, np.eye(3))


def test_chain_half_rho_matrix():
    cov = make_covariance("chain", 3, rho=0.5)
    want = np.array([[1.0, 0.5, 0.25],
                     [0.5, 1.0, 0.5],
                     [0.25, 0.5, 1.0]])
    np.testing.assert_allclose(cov.matrix, want, rtol=0, atol=1e-15)


def test_random_covariance_is_pd_with_bounded_offdiag():
    cov = make_covariance("random", 4, sigma_max=0.2, seed=7)
    m = cov.matrix
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(m), 1.0)
    off = m[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.2
    assert np.linalg.eigvalsh(m)[0] > 0


def test_random_covariance_seed_determinism():
    a = make_covariance("random", 5, sigma_max=0.3, seed=11)
    b = make_covariance("random", 5, sigma_max=0.3, seed=11)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_tree_covariance_matches_distance_oracle():
    # star tree: 0-3, 1-3, 2-3 with variables 0..2 at distance 2 pairwise
    edges = [(0, 3), (1, 3), (2, 3)]
    cov = make_covariance("tree", 3, edges=edges, sigma=2.0)
    want = np.exp(-np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]]) / 2.0)
    np.testing.assert_allclose(cov.matrix, want, atol=1e-15)


def test_exp_decay_chain_entries():
    # Sigma_ij = sqrt(s_i s_j)^|i-j|: recover the strengths from triples
    # and rebuild the whole matrix
    cov = make_covariance("exp-decay-chain", 5, sigma_max=0.5, seed=3)
    m = cov.matrix
    np.testing.assert_allclose(np.diag(m), 1.0)
    g2 = np.ones_like(m)  # g2[i, j] = s_i s_j
    off = ~np.eye(5, dtype=bool)
    gap = np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    g2[off] = m[off] ** (2.0 / gap[off])
    s = np.sqrt(g2[0] * g2[4] / g2[0, 4])
    s[0] = g2[0, 1] / s[1]
    s[4] = g2[3, 4] / s[3]
    assert np.all((s > 0) & (s <= 0.5))
    rebuilt = np.sqrt(np.outer(s, s)) ** gap
    np.fill_diagonal(rebuilt, 1.0)
    np.testing.assert_allclose(m, rebuilt, rtol=1e-10)


def test_stacked_chain_block_structure():
    cov = make_covariance("stacked-chain", 6, rank=2, sigma_max=0.4, seed=0)
    m = cov.matrix
    for i in range(6):
        for j in range(6):
            if i % 2 != j % 2:
                assert m[i, j] == 0.0
    # within a subgroup the entries follow a chain in the subgroup index
    rho0 = m[0, 2]
    np.testing.assert_allclose(m[0, 4], rho0 ** 2, rtol=1e-12)


def test_make_covariance_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_covariance("uniform", 3, rho=1.0)
    with pytest.raises(ParameterError):
        make_covariance("chain", 3, rho=-1.5)
    with pytest.raises(ParameterError):
        make_covariance("nonsense", 3, rho=0.5)
    with pytest.raises(ParameterError):
        make_covariance("uniform", 0, rho=0.5)
    with pytest.raises(ParameterError):
        make_covariance("uniform", 3, rho=0.5, extra=1)
    with pytest.raises(ParameterError):
        make_covariance("stacked-chain", 4, rank=5, sigma_max=0.3)
    with pytest.raises(ParameterError):
        make_covariance("random", 3, sigma_max=1.5)


@pytest.mark.parametrize("kind,params", [
    ("chain", {"rho": "x"}),
    ("chain", {"rho": [1]}),
    ("uniform", {"rho": False}),
    ("tree", {"edges": 3, "sigma": 3.0}),
    ("tree", {"edges": [(0, 3), (1, 3, 4)], "sigma": 3.0}),
    ("tree", {"edges": [(0, 3.0), (1, 3), (2, 3)], "sigma": 3.0}),
    ("tree", {"edges": [(0, 3), (1, 3), (2, 3)], "sigma": "3"}),
    ("tree", {"edges": [], "sigma": 3.0}),
    ("tree", {"edges": [(0, 3), (1, 3), (2, -1)], "sigma": 3.0}),
    ("stacked-chain", {"rank": 2.7, "sigma_max": 0.3}),
    ("stacked-chain", {"rank": 2, "sigma_max": None}),
    ("tree", {"edges": [(0, 3), (1, 3), (2, 3)], "sigma": True}),
], ids=["rho-string", "rho-list", "rho-bool", "edges-int", "edges-triple",
        "edges-float", "sigma-string", "edges-empty", "edges-negative",
        "rank-float", "sigma-max-none", "sigma-bool"])
def test_make_covariance_checks_parameter_types(kind, params):
    with pytest.raises(ParameterError):
        make_covariance(kind, 3, seed=0, **params)


def test_make_covariance_missing_parameter_names_it():
    with pytest.raises(ParameterError, match="chain.*'rho'"):
        make_covariance("chain", 4)
    with pytest.raises(ParameterError, match="tree.*'edges'"):
        make_covariance("tree", 3, sigma=3.0)


def test_covariance_matrix_validation():
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))  # singular
    with pytest.raises(ParameterError):
        CovarianceMatrix(np.ones((2, 3)))


def test_covariance_json_roundtrip(tmp_path):
    cov = make_covariance("random", 3, sigma_max=0.2, seed=1)
    path = tmp_path / "cov.json"
    cov.save(path)
    back = CovarianceMatrix.load(path)
    np.testing.assert_array_equal(back.matrix, cov.matrix)


# -- canonical correlations ---------------------------------------------------


def _gep_correlations(cov, cut):
    """Independent oracle: generalized eigenvalue problem
    S12 S22^-1 S21 v = rho^2 S11 v on the raw blocks."""
    left, right = sorted(cut.left), sorted(cut.right)
    s11 = cov.block(left, left)
    s12 = cov.block(left, right)
    s22 = cov.block(right, right)
    a = s12 @ np.linalg.solve(s22, s12.T)
    w = scipy.linalg.eigh(a, s11, eigvals_only=True)
    w = np.sqrt(np.clip(w, 0.0, None))[::-1]
    return w[w > 1e-12]


def test_pair_cut_returns_single_correlation():
    for rho in (0.3, -0.7):
        cov = CovarianceMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        corrs = canonical_correlations(
            cov, Bipartition(frozenset({0}), frozenset({1})))
        np.testing.assert_allclose(corrs, [abs(rho)], atol=1e-14)


def test_uniform_cut_has_rank_one_cross_block():
    cov = make_covariance("uniform", 4, rho=0.3)
    corrs = canonical_correlations(
        cov, Bipartition(frozenset({0, 1}), frozenset({2, 3})))
    assert len(corrs) == 1


def test_chain_cut_matches_generalized_eigen_oracle():
    cov = make_covariance("chain", 4, rho=0.5)
    cut = Bipartition(frozenset({0, 1}), frozenset({2, 3}))
    corrs = canonical_correlations(cov, cut)
    assert len(corrs) == 1
    np.testing.assert_allclose(corrs, _gep_correlations(cov, cut), rtol=1e-10)


def test_random_cut_matches_generalized_eigen_oracle():
    cov = make_covariance("random", 6, sigma_max=0.4, seed=5)
    cut = Bipartition(frozenset({0, 2, 5}), frozenset({1, 3, 4}))
    np.testing.assert_allclose(canonical_correlations(cov, cut),
                               _gep_correlations(cov, cut), rtol=1e-9)


def test_canonical_correlations_on_numpys_blas():
    # numpy's svd, bit for bit what scipy's gives on the whitened block
    import ttnprep.gaussian
    assert ttnprep.gaussian.svd is np.linalg.svd
    cov = make_covariance("random", 8, sigma_max=0.2, seed=3)
    cut = Bipartition(frozenset({0, 3, 4, 6}), frozenset({1, 2, 5, 7}))
    whitened = (ttnprep.gaussian._inv_sqrt(cov.block([0, 3, 4, 6],
                                                     [0, 3, 4, 6]))
                @ cov.block([0, 3, 4, 6], [1, 2, 5, 7])
                @ ttnprep.gaussian._inv_sqrt(cov.block([1, 2, 5, 7],
                                                       [1, 2, 5, 7])))
    np.testing.assert_array_equal(
        canonical_correlations(cov, cut),
        scipy.linalg.svd(whitened, compute_uv=False))


def test_degenerate_cut_raises():
    rho = 1.0 - 1e-14
    cov = CovarianceMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    with pytest.raises(DegenerateDistributionError):
        canonical_correlations(cov, Bipartition(frozenset({0}),
                                                frozenset({1})))


def test_bipartition_validation():
    with pytest.raises(ParameterError):
        Bipartition(frozenset(), frozenset({1}))
    with pytest.raises(ParameterError):
        Bipartition(frozenset({0, 1}), frozenset({1, 2}))
    cov = make_covariance("uniform", 3, rho=0.2)
    with pytest.raises(ParameterError):
        canonical_correlations(cov, Bipartition(frozenset({0}),
                                                frozenset({1})))


# -- pair and cut spectra ------------------------------------------------------


def test_pair_spectrum_zero_rho():
    s = pair_spectrum(0.0)
    np.testing.assert_array_equal(s.values, [1.0])
    assert s.tail == 0.0


def test_pair_spectrum_where_the_ratio_rounds_to_zero():
    # K - 1 rounds to 0 below rho ~ 1e-8, so q = 0 as in cut_spectrum
    assert pair_ratio(1e-9) == 0.0
    np.testing.assert_array_equal(pair_spectrum(1e-9).values, [1.0])


def test_pair_spectrum_rho_point_six():
    # K = 1/sqrt(1 - 0.36) = 1.25, lam0 = 2/2.25 = 8/9, q = 0.25/2.25 = 1/9
    s = pair_spectrum(0.6)
    np.testing.assert_allclose(s.values[0], 8.0 / 9.0, rtol=1e-14)
    np.testing.assert_allclose(s.values[1], 8.0 / 81.0, rtol=1e-14)
    ratios = s.values[1:] / s.values[:-1]
    np.testing.assert_allclose(ratios, 1.0 / 9.0, rtol=1e-12)
    np.testing.assert_allclose(s.values.sum() + s.tail, 1.0, atol=1e-12)
    assert s.tail < 1e-15


def test_pair_spectrum_domain():
    with pytest.raises(ParameterError):
        pair_spectrum(1.0)
    with pytest.raises(ParameterError):
        pair_spectrum(-0.1)


def test_pair_ratio_below_rho():
    for rho in np.linspace(0.05, 0.95, 10):
        assert 0.0 < pair_ratio(rho) < rho


def _brute_cut_spectrum(corrs, depth, top):
    axes = []
    for rho in corrs:
        q = pair_ratio(rho)
        axes.append((1.0 - q) * q ** np.arange(depth))
    prod = axes[0]
    for ax in axes[1:]:
        prod = np.outer(prod, ax).ravel()
    return np.sort(prod)[::-1][:top]


def test_cut_spectrum_empty_corrs():
    s = cut_spectrum(np.array([]), 4)
    np.testing.assert_array_equal(s.values, [1.0])


def test_cut_spectrum_two_pairs_against_brute_force():
    s = cut_spectrum(np.array([0.6, 0.6]), 4)
    lam0, q = 8.0 / 9.0, 1.0 / 9.0
    want = np.array([lam0 ** 2, lam0 ** 2 * q, lam0 ** 2 * q, lam0 ** 2 * q * q])
    np.testing.assert_allclose(s.values, want, rtol=1e-12)
    np.testing.assert_allclose(s.values,
                               _brute_cut_spectrum([0.6, 0.6], 40, 4),
                               rtol=1e-12)


def test_cut_spectrum_single_pair_equals_pair_spectrum():
    ps = pair_spectrum(0.45)
    cs = cut_spectrum(np.array([0.45]), 6)
    np.testing.assert_allclose(cs.values[:6], ps.values[:6], rtol=1e-12)


def test_cut_spectrum_random_corrs_against_brute_force():
    rng = np.random.default_rng(2)
    corrs = rng.uniform(0.1, 0.8, size=3)
    got = cut_spectrum(corrs, 20).values
    want = _brute_cut_spectrum(corrs, 25, 20)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_cut_spectrum_descending_and_mass_one():
    s = cut_spectrum(np.array([0.5, 0.3, 0.7]), 50)
    assert np.all(np.diff(s.values) <= 1e-15)
    np.testing.assert_allclose(s.values.sum() + s.tail, 1.0, atol=1e-10)


def test_schmidt_spectrum_validation():
    with pytest.raises(ParameterError):
        SchmidtSpectrum(np.array([0.4, 0.5]), 0.1)  # increasing
    with pytest.raises(ParameterError):
        SchmidtSpectrum(np.array([0.9]), 0.3)  # mass != 1


# -- required bond -------------------------------------------------------------


def test_required_bond_trivial_spectrum():
    assert required_bond(pair_spectrum(0.0), 0.5) == 1
    assert required_bond(pair_spectrum(0.0), 1e-6) == 1


def test_required_bond_exact_boundary():
    # q = 1/9: tail after the top value is exactly q = (1/3)^2
    assert required_bond(pair_spectrum(0.6), 1.0 / 3.0) == 1


def test_required_bond_pair_at_milli_accuracy():
    # tail after r values is q^r; q = 1/9, eps = 1e-3 needs q^r <= 1e-6,
    # r = ceil(6 ln 10 / ln 9) = 7
    assert required_bond(pair_spectrum(0.6), 1e-3) == 7
    assert required_bond(np.array([0.6]), 1e-3) == 7


def test_required_bond_monotone_in_eps_and_rho():
    rhos = [0.2, 0.4, 0.6, 0.8]
    epss = [0.3, 0.1, 1e-2, 1e-4]
    for rho in rhos:
        bonds = [required_bond(pair_spectrum(rho), e) for e in epss]
        assert bonds == sorted(bonds)
    for eps in epss:
        bonds = [required_bond(pair_spectrum(rho), eps) for rho in rhos]
        assert bonds == sorted(bonds)


def test_required_bond_precision_floor():
    spectrum = SchmidtSpectrum(np.array([0.9, 0.09]), 0.01)
    with pytest.raises(PrecisionError):
        required_bond(spectrum, 1e-2)  # tail 0.01 > eps^2 = 1e-4
    with pytest.raises(ParameterError):
        required_bond(spectrum, 1.5)


def test_required_bond_from_correlations_certifies_lazily():
    corrs = np.array([0.7, 0.5, 0.3])
    r = required_bond(corrs, 1e-4)
    s = cut_spectrum(corrs, 4 * r)
    assert s.tail_after(r) <= 1e-8 * (1 + 1e-12)
    assert s.tail_after(r - 1) > 1e-8


def test_closed_form_bound_dominates_required_bond():
    for rho, eps in [(0.5, 1e-2), (0.7, 1e-3), (0.3, 1e-4)]:
        corrs = np.array([rho])
        assert closed_form_rank_bound(corrs, eps) >= required_bond(corrs, eps)
    corrs = np.array([0.6, 0.4])
    assert closed_form_rank_bound(corrs, 1e-3) >= required_bond(corrs, 1e-3)


def test_closed_form_bound_rank_scaling():
    # bound is r^l with the same r for equal correlations
    one = closed_form_rank_bound(np.array([0.5]), 1e-3)
    # l = 2 raises the per-pair rank (l/eps^2 grows) and squares it
    two = closed_form_rank_bound(np.array([0.5, 0.5]), 1e-3)
    assert two >= one ** 2
    assert closed_form_rank_bound(np.array([]), 1e-3) == 1


# -- fidelity prediction and bond profiles -------------------------------------


def test_predict_fidelity_diagonal_is_one():
    cov = make_covariance("uniform", 4, rho=0.0)
    topo = TreeTopology.mps(list(range(4)), 2)
    assert predict_ttn_fidelity(cov, topo, 1) == 1.0


def test_predict_fidelity_monotone_in_chi():
    cov = make_covariance("chain", 4, rho=0.5)
    topo = TreeTopology.mps(list(range(4)), 2)
    vals = [predict_ttn_fidelity(cov, topo, chi) for chi in (1, 2, 4, 8)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_predict_fidelity_against_dense_svd_oracle():
    # product over the path cuts of the top-chi Schmidt mass of the
    # discretized amplitude
    cov = make_covariance("chain", 4, rho=0.5)
    grid = GridSpec(4, 5, 20.0, 5)
    t = exact_target(grid, cov)
    chi = 4
    want = 1.0
    for j in (1, 2, 3):
        mat = t.reshape(32 ** j, -1)
        s2 = np.linalg.svd(mat, compute_uv=False) ** 2
        want *= s2[:chi].sum() / s2.sum()
    topo = TreeTopology.mps(list(range(4)), 2)
    got = predict_ttn_fidelity(cov, topo, chi)
    np.testing.assert_allclose(got, want, atol=1e-3)


def test_required_bond_profile_budget_split():
    cov = make_covariance("chain", 4, rho=0.6)
    topo = TreeTopology.mps(list(range(4)), 2)
    eps = 1e-3
    profile = required_bond_profile(cov, topo, eps)
    assert set(profile) == set(topo.bonds)
    eps_cut = eps / math.sqrt(len(topo.bonds))
    for bond, left, right in topo.bipartitions():
        corrs = canonical_correlations(cov, Bipartition(left, right))
        assert profile[bond] == required_bond(corrs, eps_cut)
        # splitting the budget can only demand more than the full budget
        assert profile[bond] >= required_bond(corrs, eps)
