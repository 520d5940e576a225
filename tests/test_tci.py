"""Cross interpolation: maxvol pivots, black-box access, network assembly."""

import numpy as np
import pytest
import scipy.linalg

import ttnprep.tci
from ttnprep import (BlackBoxTensor, ParameterError, RankError,
                     TreeTensorNetwork, TreeTopology, caterpillar_leaf_tree,
                     make_covariance, maxvol, tci_build)
from ttnprep.fourier import FourierEvaluator, GridSpec, dense_coeff_tensor
from ttnprep.sim import interpolate
from ttnprep.tci import (_dedupe_against, _low_biased, _lu_rows, _PivotState,
                         _probe_indices, _sample_side, _update_side)
from ttnprep.topology import enumerate_leaf_trees, random_leaf_tree


# -- maxvol -----------------------------------------------------------------------


def test_maxvol_identity_block():
    a = np.vstack([np.zeros((5, 3)), np.eye(3), np.zeros((4, 3))])
    sel = maxvol(a)
    assert sorted(sel) == [5, 6, 7]


def test_maxvol_vandermonde_beats_random_triples():
    x = np.linspace(0.0, 1.0, 8)
    a = np.vander(x, 3, increasing=True)
    sel = maxvol(a)
    best = abs(np.linalg.det(a[sel]))
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = rng.choice(8, size=3, replace=False)
        assert abs(np.linalg.det(a[rows])) <= best * (1 + 1e-9)


def test_maxvol_dominance_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(30, 5))
        sel = maxvol(a)
        coef = a @ np.linalg.inv(a[sel])
        assert np.max(np.abs(coef)) <= 1 + 1e-2 + 1e-9


def test_maxvol_degenerate_and_shape_errors():
    with pytest.raises(RankError):
        maxvol(np.ones((6, 2)))  # rank 1 candidate
    # a second column that is the first to rounding leaves an LU pivot of
    # rounding size, and the check sees the deficit; a perturbation well
    # above rounding is full rank
    rng = np.random.default_rng(3)
    x = rng.normal(size=8)
    for scale in (1 + 1e-15, 1 - 3e-16):
        with pytest.raises(RankError):
            maxvol(np.column_stack([x, x * scale]))
    y = x * (1 + 1e-9 * rng.normal(size=8))
    assert len(set(maxvol(np.column_stack([x, y])).tolist())) == 2
    with pytest.raises(ParameterError):
        maxvol(np.ones((2, 3)))


def _lapack_rows(a):
    """The first columns-many rows of scipy's pivoted LU, its row
    interchanges replayed in order."""
    _, piv = scipy.linalg.lu_factor(a)
    perm = list(range(len(a)))
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    return perm[:a.shape[1]]


def _exact_lu_matrix(rng, rows, cols):
    """A tall L @ U whose elimination is exact in any order of operations:
    U has power-of-two pivots and small integers above them, L unit
    pivots and entries in {0, +-1/4, +-1/2, +-3/4} below, so every Schur
    complement is a short dyadic fraction and each column's largest
    magnitude is its pivot's alone."""
    u = np.triu(rng.integers(-3, 4, size=(cols, cols)), 1).astype(float)
    u += np.diag(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=cols))
    low = np.tril(rng.integers(-3, 4, size=(rows, cols)) / 4.0, -1)
    low[np.arange(cols), np.arange(cols)] = 1.0
    return low @ u


@pytest.mark.parametrize("kind", ["orthonormal", "duplicate", "sign-flip"])
@pytest.mark.parametrize("rows, cols", [(8, 1), (16, 8), (64, 13), (192, 16),
                                        (256, 16)])
def test_lu_rows_match_lapack_pivots(rows, cols, kind):
    # an orthonormal basis, as maxvol gets it from an SVD, has no ties; in
    # the other kinds every row appears twice (or once negated) in shuffled
    # order, so each elimination step meets an exact magnitude tie that
    # the row earlier in the current pivoted order must win
    rng = np.random.default_rng(rows * cols)
    for _ in range(5):
        if kind == "orthonormal":
            a = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
        else:
            a = _exact_lu_matrix(rng, rows, cols)
            a = np.vstack([a, a if kind == "duplicate" else -a])
            a = a[rng.permutation(len(a))]
        assert _lu_rows(a).tolist() == _lapack_rows(a)


def test_one_svd_per_bond_update_and_none_in_maxvol(monkeypatch):
    calls = {"svd": 0, "in_maxvol": 0}
    inside = [0]
    svd, inner = np.linalg.svd, ttnprep.tci.maxvol

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        calls["in_maxvol"] += inside[0]
        return svd(*args, **kwargs)

    def counted_maxvol(*args, **kwargs):
        inside[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(ttnprep.tci, "maxvol", counted_maxvol)
    f, _ = _gaussian_box(4, 0.5, 3)
    topo = TreeTopology.mps(list(range(4)), 8)
    state = _PivotState(topo, topo.leaf_dims())
    rng = np.random.default_rng(0)
    updates = 0
    for _ in range(3):
        for u, v, bond in state.schedule + [
                (v, u, bond) for u, v, bond in state.schedule[::-1]]:
            before = calls["svd"]
            _update_side(f, state, bond, u, v, 6, rng)
            assert calls["svd"] - before == 1
            updates += 1
    assert updates == 18 and calls["in_maxvol"] == 0


# -- black box --------------------------------------------------------------------


def test_tci_solves_on_numpys_blas():
    # the runtime loads numpy's BLAS alone, and TCI's solves go through it
    assert ttnprep.tci.solve is np.linalg.solve


def test_dedupe_against_drops_known_and_repeated_rows():
    existing = np.array([[0, 1], [2, 2]])
    ext = np.array([[3, 0], [0, 1], [1, 1], [3, 0], [2, 2], [0, 0], [1, 1]])
    np.testing.assert_array_equal(_dedupe_against(ext, existing),
                                  [[3, 0], [1, 1], [0, 0]])
    assert _dedupe_against(ext[[1, 4]], existing).shape == (0, 2)


def test_dedupe_against_matches_a_brute_force_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        width, top = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ext = rng.integers(0, top, size=(int(rng.integers(0, 10)), width))
        existing = rng.integers(0, top, size=(int(rng.integers(1, 5)), width))
        want = []
        for row in ext.tolist():
            if row not in existing.tolist() and row not in want:
                want.append(row)
        got = _dedupe_against(ext, existing)
        assert got.shape == (len(want), width) and got.dtype == ext.dtype
        assert got.tolist() == want


class _CountingRng:
    """A Generator that counts the draws made through it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_draws_do_not_grow_with_dimension():
    calls = {}
    for dim in (4, 16):
        rng = _CountingRng(0)
        idx = _probe_indices(rng, (16,) * dim, 1000)
        probe_calls, rng.calls = rng.calls, 0
        assert idx.shape == (1000, dim)
        assert idx.min() >= 0 and idx.max() < 16
        # low-biased draws pile up at 0; uniform ones reach every value
        assert ((idx == 0).mean(axis=0) > 0.15).all()
        assert all(len(np.unique(col)) == 16 for col in idx.T)
        topo = TreeTopology.mps(list(range(dim)), 16)
        state = _PivotState(topo, topo.leaf_dims())
        bond = topo.bonds[0]
        side = _sample_side(state, bond, bond[1], 1000, rng)
        assert side.shape == (1000, dim - 1)
        assert side.min() >= 0 and side.max() < 16
        calls[dim] = (probe_calls, rng.calls)
    assert calls[4] == calls[16]
    assert calls[16][0] <= 4


def test_black_box_validates_indices():
    f = BlackBoxTensor((4, 4), lambda idx: np.ones(len(idx)))
    with pytest.raises(ParameterError):
        f(np.array([[4, 0]]))
    with pytest.raises(ParameterError):
        f(np.array([[0, -1]]))
    with pytest.raises(ParameterError):
        f(np.array([[0, 1, 2]]))
    with pytest.raises(ParameterError):
        BlackBoxTensor((), lambda idx: np.ones(len(idx)))
    # index spaces of 2^64 and 2^80, past int64: the top index is valid
    for dims in [(16,) * 16, (2 ** 40, 2 ** 40)]:
        f = BlackBoxTensor(dims, lambda idx: idx[:, -1] + 1.0)
        top = np.array(dims, dtype=np.int64) - 1
        with pytest.raises(ParameterError):
            f(top[None] + 1)
        np.testing.assert_array_equal(f(np.array([top, 0 * top])),
                                      [top[-1] + 1.0, 1.0])


def test_black_box_tracks_max_abs():
    seen = []

    def fn(idx):
        seen.append(idx.tolist())
        return (10.0 * idx[:, 0] + idx[:, 1]) * (-1.0) ** idx[:, 0]

    f = BlackBoxTensor((5, 5), fn)
    f(np.array([[1, 1], [2, 2]]))
    assert (f.evals, f.max_abs) == (2, 22.0)
    # fn sees every row as given, repeats included, and the peak is a
    # magnitude
    rows = np.array([[3, 0], [1, 1], [4, 4], [3, 0], [0, 3], [4, 4]])
    np.testing.assert_array_equal(
        f(rows), (10.0 * rows[:, 0] + rows[:, 1]) * (-1.0) ** rows[:, 0])
    assert seen[-1] == rows.tolist()
    assert (f.evals, f.max_abs) == (8, 44.0)
    f(np.array([[3, 3]]))
    assert (f.evals, f.max_abs) == (9, 44.0)


def test_black_box_empty_batch():
    f = BlackBoxTensor((4, 4), lambda idx: idx[:, 0] + 2.0)
    f(np.array([[3, 1]]))
    out = f(np.zeros((0, 2), dtype=np.int64))
    assert out.shape == (0,) and out.dtype == np.float64
    assert (f.evals, f.max_abs) == (1, 5.0)


# -- block calls ----------------------------------------------------------------


def _random_parts(rng, dims, count):
    """count parts over a random split of the axes, columns unsorted, each
    with a few rows (duplicates allowed) at small offsets from 0 of either
    sign, so negative offsets wrap to the top of the axis."""
    axes = rng.permutation(len(dims))
    cuts = np.sort(rng.choice(np.arange(1, len(dims)), count - 1,
                              replace=False))
    parts = []
    for cols in np.split(axes, cuts):
        size = int(rng.integers(1, 6))
        rows = np.stack([_low_biased(rng, dims[c], size) for c in cols],
                        axis=1)
        parts.append((cols, rows.astype(np.int64)))
    return parts


def _product(parts, L):
    """Full index rows of the parts' Cartesian product, row-major."""
    out = np.zeros([len(rows) for _, rows in parts] + [L], dtype=np.int64)
    for p, (cols, rows) in enumerate(parts):
        at = [1] * len(parts) + [len(cols)]
        at[p] = len(rows)
        out[..., cols] = rows.reshape(at)
    return out.reshape(-1, L)


@pytest.mark.parametrize("dim", [1, 3, 8, 16])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_fourier_block_equals_eval_indices(dim, m):
    cov = make_covariance("random", dim, sigma_max=0.2, seed=dim + m)
    ev = FourierEvaluator(GridSpec(dim, 6, 20.0, m), cov)
    rng = np.random.default_rng(dim * 10 + m)
    for count in range(1, min(dim, 4) + 1):
        for _ in range(3):
            f = BlackBoxTensor.from_fourier(ev)
            parts = _random_parts(rng, f.dims, count)
            ref = ev.eval_indices(_product(parts, dim))
            got = f.block(parts)
            assert got.dtype == np.float64 and got.shape == ref.shape
            # exp of a sum of terms: relative error grows with the exponent
            expo = np.abs(np.log(np.abs(ref)))
            assert np.all(np.abs(got - ref) <= 1e-14 * (1 + expo)
                          * np.abs(ref))
            assert f.evals == len(ref)
            assert f.max_abs == pytest.approx(np.max(np.abs(ref)), rel=1e-14)
            # a generic box asks fn for the product's rows, row-major
            g = BlackBoxTensor(f.dims, ev.eval_indices)
            np.testing.assert_array_equal(g.block(parts), ref)
            assert g.evals == len(ref)


@pytest.mark.parametrize("fourier", [False, True])
def test_block_rejects_bad_parts(fourier):
    ev = FourierEvaluator(GridSpec(3, 4, 20.0, 2),
                          make_covariance("chain", 3, rho=0.3))
    f = (BlackBoxTensor.from_fourier(ev) if fourier else
         BlackBoxTensor((4, 4, 4), lambda idx: np.ones(len(idx))))
    one = np.zeros((2, 1), dtype=np.int64)
    two = np.zeros((2, 2), dtype=np.int64)
    bad = [
        [(np.array([0, 1]), two)],                          # misses axis 2
        [(np.array([0, 1]), two), (np.array([1]), one),
         (np.array([2]), one)],                             # repeats axis 1
        [(np.array([0, 1]), two), (np.array([3]), one)],    # no axis 3
        [(np.array([0, 1]), two), (np.array([2]), one + 4)],   # index 4
        [(np.array([0, 1]), two - 1), (np.array([2]), one)],   # index -1
        [(np.array([0, 1]), one), (np.array([2]), one)],    # width 1 for 2
        [],
    ]
    for parts in bad:
        with pytest.raises(ParameterError):
            f.block(parts)
    assert f.evals == 0


def test_tci_calls_the_pointwise_evaluator_only_for_probes(monkeypatch):
    calls = []
    eval_indices = FourierEvaluator.eval_indices

    def counted(self, s):
        calls.append(len(s))
        return eval_indices(self, s)

    monkeypatch.setattr(FourierEvaluator, "eval_indices", counted)
    ev = FourierEvaluator(GridSpec(4, 6, 20.0, 3),
                          make_covariance("chain", 4, rho=0.5))
    f = BlackBoxTensor.from_fourier(ev)
    tci_build(f, TreeTopology.mps(list(range(4)), 8), chi=4, sweeps=2,
              seed=0)
    assert len(calls) == 1 and calls[0] <= ttnprep.tci.PROBES


def test_product_form_build_matches_the_cached_build():
    # the same pivots and network from a generic box over the same values
    ev = FourierEvaluator(GridSpec(4, 6, 20.0, 3),
                          make_covariance("chain", 4, rho=0.5))
    topo = TreeTopology.from_leaf_tree(enumerate_leaf_trees(4)[0], 4, 8)
    n1, i1 = tci_build(BlackBoxTensor.from_fourier(ev), topo, chi=6,
                       sweeps=3, seed=1)
    n2, i2 = tci_build(BlackBoxTensor((8,) * 4, ev.eval_indices), topo,
                       chi=6, sweeps=3, seed=1)
    assert i1["pivots"].keys() == i2["pivots"].keys()
    for key, piv in i1["pivots"].items():
        np.testing.assert_array_equal(piv, i2["pivots"][key])
    a, b = n1.contract_to_vector(), n2.contract_to_vector()
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert i1["evals"] == i2["evals"]


# -- tci on Gaussian coefficients ---------------------------------------------------


def _gaussian_box(dim, rho, m, kind="chain", n=6):
    cov = make_covariance(kind, dim, rho=rho)
    ev = FourierEvaluator(GridSpec(dim, n, 20.0, m), cov)
    return BlackBoxTensor.from_fourier(ev), ev


def test_separable_target_exact_at_rank_one():
    cov = make_covariance("uniform", 3, rho=0.0)
    ev = FourierEvaluator(GridSpec(3, 6, 20.0, 3), cov)
    f = BlackBoxTensor.from_fourier(ev)
    topo = TreeTopology.mps([0, 1, 2], 8)
    net, info = tci_build(f, topo, chi=1, sweeps=4, seed=0)
    dense = dense_coeff_tensor(ev)
    got = net.contract_to_tensor()
    fid = abs(np.vdot(got, dense)) ** 2 / np.vdot(got, got).real
    assert fid >= 1 - 1e-10
    assert all(d == 1 for d in info["bond_dims"].values())


def test_pair_interpolation_reaches_target_fidelity():
    f, ev = _gaussian_box(2, 0.6, 4, kind="uniform")
    topo = TreeTopology.mps([0, 1], 16)
    net, info = tci_build(f, topo, chi=8, sweeps=6, seed=0)
    dense = dense_coeff_tensor(ev)
    got = net.contract_to_vector().reshape(16, 16)
    fid = abs(np.vdot(got, dense)) ** 2 / np.vdot(got, got).real
    assert fid >= 1 - 1e-6


def test_tci_on_branching_tree_topology():
    cov = make_covariance("chain", 4, rho=0.5)
    ev = FourierEvaluator(GridSpec(4, 6, 20.0, 3), cov)
    f = BlackBoxTensor.from_fourier(ev)
    edges = enumerate_leaf_trees(4)[0]
    topo = TreeTopology.from_leaf_tree(edges, 4, 8)
    net, info = tci_build(f, topo, chi=8, sweeps=6, seed=1)
    dense = dense_coeff_tensor(ev).ravel()
    got = net.contract_to_vector()
    fid = abs(np.vdot(got, dense)) ** 2 / np.vdot(got, got).real
    assert fid >= 0.999


def test_stopping_rule_fires_on_a_generator_tree():
    # D=8 structure-recovery instance on its own generator tree
    tree = random_leaf_tree(8, np.random.default_rng(1004))
    cov = make_covariance("tree", 8, edges=tree, sigma=3.0)
    grid = GridSpec(8, 5, 16.0, 3)
    topo = TreeTopology.from_leaf_tree(tree, 8, grid.M)
    _, rec = interpolate(FourierEvaluator(grid, cov), topo, 32, 2, 4)
    assert rec["tci_converged"]
    assert rec["tci_residual"] <= ttnprep.tci.TCI_TOL


def test_exact_rank_is_reached_and_not_passed():
    # a generic box over a random complex bond-3 MPS: growth stops at
    # the true rank
    D, M, R = 5, 4, 3
    rng = np.random.default_rng(0)
    dense = np.ones((1, 1))
    for k in range(D):
        shape = (1 if k == 0 else R, M, 1 if k == D - 1 else R)
        core = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = np.tensordot(dense, core, axes=1)
    dense = dense.reshape((M,) * D)
    topo = TreeTopology.mps(list(range(D)), M)
    for seed in range(3):
        f = BlackBoxTensor((M,) * D, lambda idx: dense[tuple(idx.T)])
        # a complex box stays complex, pointwise and in blocks
        zero = np.zeros((2, 1), dtype=np.int64)
        assert f(np.zeros((2, D), dtype=np.int64)).dtype == np.complex128
        assert f.block([(np.array([k]), zero) for k in range(D)]).dtype \
            == np.complex128
        net, info = tci_build(f, topo, chi=6, sweeps=4, seed=seed)
        assert set(info["bond_dims"].values()) == {R}
        assert info["converged"] and info["sweeps_run"] < 4
        err = np.max(np.abs(net.contract_to_tensor() - dense))
        assert err <= 1e-12 * np.max(np.abs(dense))


V4_SEED = 1826701615  # seed-0 covariance of verify-d4, first of compile-d16


def test_real_box_builds_as_its_complex_copy():
    # the same real values, returned as float and as complex, give the
    # same network up to rounding
    cov = make_covariance("random", 4, sigma_max=0.2, seed=V4_SEED)
    ev = FourierEvaluator(GridSpec(4, 6, 20.0, 4), cov)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(4), 4, 16)
    builds = []
    for fn in (ev.eval_indices, lambda idx: ev.eval_indices(idx) + 0j):
        f = BlackBoxTensor((16,) * 4, fn)
        net, info = tci_build(f, topo, chi=16, sweeps=6, seed=0)
        builds.append((f, net, info))
    (fr, nr, ir), (fc, nc, ic) = builds
    assert ir["bond_dims"] == ic["bond_dims"]
    probes = _probe_indices(np.random.default_rng(1), fr.dims, 1000)
    np.testing.assert_allclose(nr.evaluate(probes), nc.evaluate(probes),
                               rtol=0, atol=1e-12 * fr.max_abs)


def _verify_d4_box():
    """The black box and tree of the verify-d4 benchmark's seed-0 build."""
    cov = make_covariance("random", 4, sigma_max=0.2, seed=V4_SEED)
    grid = GridSpec(4, 6, 20.0, 4)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(4), 4, grid.M)
    return BlackBoxTensor.from_fourier(FourierEvaluator(grid, cov)), topo


def test_stop_fires_at_the_verify_d4_settings():
    f, topo = _verify_d4_box()
    net, info = tci_build(f, topo, chi=16, sweeps=6, seed=V4_SEED)
    assert info["sweeps_run"] < 6
    # the one check: the final network on the probe set, the first draw
    # of the seed's stream
    probes = _probe_indices(np.random.default_rng(V4_SEED), f.dims,
                            ttnprep.tci.PROBES)
    resid = np.max(np.abs(net.evaluate(probes) - f.fn(probes)))
    assert info["residual"] == pytest.approx(resid, rel=1e-12)
    assert info["converged"] == (resid <= ttnprep.tci.TCI_TOL * f.max_abs)
    # a budget that ends at the stop runs the same sweeps
    g, _ = _verify_d4_box()
    _, again = tci_build(g, topo, chi=16, sweeps=info["sweeps_run"],
                         seed=V4_SEED)
    assert again["evals"] == info["evals"]
    for key, piv in info["pivots"].items():
        np.testing.assert_array_equal(piv, again["pivots"][key])


def test_update_side_reports_the_largest_residual_it_added():
    topo = TreeTopology.mps([0, 1, 2], 8)
    for rho, chi, grows in [(0.5, 4, True), (0.5, 1, False),
                            (0.0, 4, False)]:
        f, _ = _gaussian_box(3, rho, 3, kind="uniform")
        state = _PivotState(topo, topo.leaf_dims())
        u, v, bond = state.schedule[0]
        rng = np.random.default_rng(0)
        largest = _update_side(f, state, bond, u, v, chi, rng)
        if grows:
            assert ttnprep.tci.STOP_TOL < largest < 1
        else:
            assert largest == 0.0
        assert (state.rank(bond) > 1) is grows


@pytest.fixture(scope="module")
def d16_builds():
    """The compile-d16 benchmark's seed-0 first build (D=16, n=8, m=4,
    caterpillar, chi'=16, TCI seed = covariance seed), with a budget of 6
    sweeps and of 4."""
    cov = make_covariance("random", 16, sigma_max=0.2, seed=V4_SEED)
    grid = GridSpec(16, 8, 20.0, 4)
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(16), 16, grid.M)
    return {sweeps: tci_build(
        BlackBoxTensor.from_fourier(FourierEvaluator(grid, cov)), topo,
        chi=16, sweeps=sweeps, seed=V4_SEED)[1] for sweeps in (6, 4)}


def test_stop_fires_at_the_growth_floor_past_the_dense_cap(d16_builds):
    info, four = d16_builds[6], d16_builds[4]
    # sweep 4 adds pivots only at the rounding floor: the build stops
    # there, and is the build of a 4-sweep budget
    assert info["sweeps_run"] == 4
    growth = info["growth"]
    assert len(growth) == 4 and growth[-1] <= ttnprep.tci.STOP_TOL
    assert min(growth[:-1]) > ttnprep.tci.STOP_TOL
    assert four["growth"] == growth
    assert four["evals"] == info["evals"]
    assert four["residual"] == info["residual"]
    for key, piv in info["pivots"].items():
        np.testing.assert_array_equal(piv, four["pivots"][key])


def test_build_past_the_dense_cap_within_its_eval_budget(d16_builds):
    # a performance gate on a count that repeats exactly
    assert d16_builds[6]["evals"] <= 500_000


def test_network_assembled_and_probed_once_per_build(monkeypatch):
    calls = {"assemble": 0, "evaluate": 0}
    assemble = ttnprep.tci._assemble
    evaluate = TreeTensorNetwork.evaluate

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    def counted_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(ttnprep.tci, "_assemble", counted_assemble)
    monkeypatch.setattr(TreeTensorNetwork, "evaluate", counted_evaluate)
    f, _ = _gaussian_box(4, 0.5, 3)
    tci_build(f, TreeTopology.mps(list(range(4)), 8), chi=6, sweeps=6, seed=0)
    assert calls == {"assemble": 1, "evaluate": 1}


def _assert_exact_on_pivot_crosses(f, topo, net, info, tol):
    """The network equals f, to tol * max_abs, on every pivot-pair
    configuration of every bond."""
    labels = sorted(topo.labels())
    col = {lab: i for i, lab in enumerate(labels)}
    for bond, left, right in topo.bipartitions():
        pu = info["pivots"][(bond, bond[0])]
        pv = info["pivots"][(bond, bond[1])]
        full = np.zeros((len(pu), len(pv), len(labels)), dtype=np.int64)
        full[:, :, [col[lab] for lab in sorted(left)]] = pu[:, None, :]
        full[:, :, [col[lab] for lab in sorted(right)]] = pv[None, :, :]
        full = full.reshape(-1, len(labels))
        np.testing.assert_allclose(net.evaluate(full), f(full), rtol=0,
                                   atol=tol * f.max_abs)


def test_interpolation_exact_on_pivot_crosses():
    # the assembled network reproduces f exactly on pivot-pair configurations
    f, ev = _gaussian_box(3, 0.5, 3)
    topo = TreeTopology.mps([0, 1, 2], 8)
    net, info = tci_build(f, topo, chi=4, sweeps=4, seed=2)
    _assert_exact_on_pivot_crosses(f, topo, net, info, 1e-10)


def test_interpolation_exact_on_pivot_crosses_past_int64_keys():
    # D=16, m=4: the index space is 16^16 = 2^64, past the dense cap
    cov = make_covariance("random", 16, sigma_max=0.2, seed=0)
    f = BlackBoxTensor.from_fourier(
        FourierEvaluator(GridSpec(16, 8, 20.0, 4), cov))
    topo = TreeTopology.mps(list(range(16)), 16)
    net, info = tci_build(f, topo, chi=2, sweeps=1, seed=0)
    assert max(info["bond_dims"].values()) == 2
    _assert_exact_on_pivot_crosses(f, topo, net, info, 1e-10)


def test_eval_budget_linear_in_dimension():
    # evals bounded by c * sweeps * D * M * chi^2 with a small constant
    chi, m, sweeps = 8, 4, 3
    cov = make_covariance("chain", 6, rho=0.5)
    ev = FourierEvaluator(GridSpec(6, 6, 20.0, m), cov)
    f = BlackBoxTensor.from_fourier(ev)
    topo = TreeTopology.mps(list(range(6)), 16)
    tci_build(f, topo, chi=chi, sweeps=sweeps, seed=4)
    assert f.evals <= 10 * sweeps * 6 * 16 * chi ** 2


def test_tci_deterministic_for_fixed_seed():
    f1, _ = _gaussian_box(3, 0.4, 3)
    f2, _ = _gaussian_box(3, 0.4, 3)
    topo = TreeTopology.mps([0, 1, 2], 8)
    n1, i1 = tci_build(f1, topo, chi=4, sweeps=3, seed=9)
    n2, i2 = tci_build(f2, topo, chi=4, sweeps=3, seed=9)
    np.testing.assert_array_equal(n1.contract_to_vector(),
                                  n2.contract_to_vector())
    assert i1["evals"] == i2["evals"]
    assert i1["residual"] == i2["residual"]


def test_residual_is_relative_to_the_peak():
    # a generic box and the same box scaled by 2^10 take the same
    # decisions, so they report the same residual
    ev = FourierEvaluator(GridSpec(4, 6, 20.0, 3),
                          make_covariance("random", 4, sigma_max=0.3, seed=5))
    topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(4), 4, 8)
    infos = [tci_build(BlackBoxTensor((8,) * 4,
                                      lambda idx, s=s: s * ev.eval_indices(idx)),
                       topo, chi=4, sweeps=3, seed=2)[1]
             for s in (1.0, 2.0 ** 10)]
    assert infos[0]["residual"] > ttnprep.tci.TCI_TOL
    for key in ("residual", "converged", "evals", "sweeps_run", "growth"):
        assert infos[0][key] == infos[1][key]


def test_single_node_topology_short_circuit():
    cov = make_covariance("uniform", 1, rho=0.0)
    ev = FourierEvaluator(GridSpec(1, 6, 20.0, 3), cov)
    f = BlackBoxTensor.from_fourier(ev)
    topo = TreeTopology.from_leaf_tree((), 1, 8)
    net, info = tci_build(f, topo, chi=4, seed=0)
    # the empty schedule adds no pivot: one sweep, then the one check
    assert info["converged"] and info["sweeps_run"] == 1
    assert info["bond_dims"] == {}
    # the same keys as a build on a tree with bonds
    f2 = BlackBoxTensor.from_fourier(FourierEvaluator(
        GridSpec(2, 6, 20.0, 2), make_covariance("uniform", 2, rho=0.3)))
    _, info2 = tci_build(f2, TreeTopology.from_leaf_tree([(0, 1)], 2, 4),
                         chi=2, sweeps=1, seed=0)
    assert info.keys() == info2.keys()
    np.testing.assert_allclose(net.contract_to_vector(),
                               ev.eval_indices(np.arange(8)[:, None]),
                               atol=1e-12)
