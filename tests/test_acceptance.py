"""Desk-scale acceptance runs.

Each batch fixture times one study driver; the tests pin the numeric
claims and the runtime budget together. Scales are reduced from the
full experiments (dimension 12 instead of 16, 20 to 50 seeds instead of
100, interpolation rank 32 instead of 64) but every claim is the same
shape as at full scale.
"""

import math
import time

import numpy as np
import pytest

from ttnprep.circuit import (build_qft_ttn, inverse_dft_embedding_matrix,
                             synthesize)
from ttnprep.fourier import FourierEvaluator, GridSpec
from ttnprep.gaussian import make_covariance
from ttnprep.scaling import (bond_growth_over_dim, chain_decay_study,
                             fidelity_study, pair_spectrum_check,
                             policy_study, recovery_study,
                             stacked_bond_study)
from ttnprep.tci import BlackBoxTensor, maxvol, tci_build
from ttnprep.topology import TreeTopology, enumerate_leaf_trees
from ttnprep.ttn import (FidelityLedger, frobenius_from_fidelity, random_mps)

EPS_GRID = [10.0 ** (-k / 2) for k in range(4, 13)]


# -- timed batch fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def pair_rows():
    t0 = time.monotonic()
    rows = pair_spectrum_check((0.2, 0.4, 0.6, 0.8), n=7, box=20.0, top=5)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def stacked():
    t0 = time.monotonic()
    _, summary = stacked_bond_study((1, 2, 3), 12, 0.5, range(20), EPS_GRID)
    growth = bond_growth_over_dim((4, 6, 8, 10, 12), 1e-4, 0.5, range(20))
    return summary, growth, time.monotonic() - t0


@pytest.fixture(scope="module")
def decay():
    t0 = time.monotonic()
    out = {s: chain_decay_study(12, s, range(20), EPS_GRID)[1]
           for s in (0.3, 0.5)}
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def recovery():
    t0 = time.monotonic()
    out = {4: recovery_study(4, (8, 16, 32), range(50), sweeps=4)[1],
           8: recovery_study(8, (8, 16, 32), range(50), sweeps=2)[1]}
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def fid_batch():
    t0 = time.monotonic()
    rows, summary = fidelity_study((2, 4, 8), range(20))
    return rows, summary, time.monotonic() - t0


@pytest.fixture(scope="module")
def policy():
    t0 = time.monotonic()
    _, summary = policy_study(range(20))
    return summary["mean_infidelity"], time.monotonic() - t0


# -- 1: discretized pair spectrum matches the geometric law -------------------------


def test_pair_spectrum_matches_geometric_law(pair_rows):
    rows, elapsed = pair_rows
    assert len(rows) == 4 * 5
    for row in rows:
        assert row["rel_err"] <= 1e-3, row
    assert elapsed < 10.0


# -- 2: bond exponent tracks the planted rank, mild growth in dimension -------------


def test_bond_exponent_matches_planted_rank(stacked):
    summary, _, elapsed = stacked
    for rank in (1, 2, 3):
        assert abs(summary[rank]["exponent"] - rank) <= 0.3, summary[rank]
    assert elapsed < 120.0


def test_bond_growth_gradual_in_dimension(stacked):
    _, growth, elapsed = stacked
    assert growth[12] - growth[4] <= 2.0
    assert elapsed < 120.0


# -- 3: exponential correlation decay forces polynomial bond growth -----------------


def test_half_cut_correlations_decay_exponentially(decay):
    out, elapsed = decay
    for sigma, summary in out.items():
        assert summary["decay_r2"] >= 0.95, (sigma, summary)
        assert summary["decay_slope"] < 0
    assert elapsed < 120.0


def test_bond_growth_prefers_polynomial_model(decay):
    out, elapsed = decay
    for sigma, summary in out.items():
        assert summary["poly_rms"] < summary["log_rms"], (sigma, summary)
    assert elapsed < 120.0


# -- 4: reshaping sweep recovers the generating tree --------------------------------


def test_tree_recovery_rates(recovery):
    out, elapsed = recovery
    assert out[4]["trials"] == 50 and out[8]["trials"] == 50
    assert out[4]["rates"][16] >= 0.95, out[4]
    assert out[8]["rates"][16] >= 0.80, out[8]
    assert elapsed < 300.0


def test_tree_recovery_nondecreasing_in_chi(recovery):
    out, _ = recovery
    for D in (4, 8):
        r = [out[D]["rates"][c] for c in (8, 16, 32)]
        assert r[0] <= r[1] + 1e-12 and r[1] <= r[2] + 1e-12, (D, r)


# -- 5: simulated infidelity falls with chi and matches the ledger ------------------


def test_infidelity_monotone_and_small(fid_batch):
    _, summary, elapsed = fid_batch
    infs = summary["mean_infidelity"]
    assert infs[2] >= infs[4] >= infs[8]
    assert infs[8] <= 1e-2
    assert elapsed < 300.0


def test_ledger_matches_simulation_per_instance(fid_batch):
    rows, summary, _ = fid_batch
    assert summary["worst_gap"] <= 1e-2
    for rec in rows:
        assert rec["gap"] <= 1e-2, rec["seed"]
        assert rec["ok"], rec["seed"]


# -- 6: tenfold CNOT reduction against the dense Fourier loader ---------------------


def test_cnot_reduction_at_high_fidelity(fid_batch):
    rows, _, _ = fid_batch
    picked = [r for r in rows if r["chi"] == 4]
    assert len(picked) == 20
    for rec in picked:
        assert rec["cnot_ratio"] <= 0.1, rec
        assert rec["simulated_fidelity"] >= 0.98, rec


# -- 7: policy ordering: exhaustive <= auto <= 1.5x exhaustive, worst above ----------


def test_structure_policy_ordering(policy):
    means, elapsed = policy
    exh = means["exhaustive-optimal"]
    auto = means["auto-optimize"]
    worst = means["fixed-worst"]
    assert exh <= auto + 1e-15
    assert auto <= 1.5 * exh + 1e-15
    assert worst >= auto - 1e-15
    assert elapsed < 300.0


# -- 8: always-on property suites ---------------------------------------------------


def test_property_canonical_isometry():
    t0 = time.monotonic()
    for seed in range(8):
        net = random_mps(6, 2, 5, np.random.default_rng(seed))
        for center in (0, 3, 5):
            net.canonicalize(center)
            assert net.canonical_defect() < 1e-10
    assert time.monotonic() - t0 < 30.0


def test_property_gauge_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    probes = rng.integers(0, 2, size=(12, 6))
    for seed in range(4):
        net = random_mps(6, 2, 4, np.random.default_rng(seed))
        net.canonicalize(0)
        vals = net.evaluate(probes)
        for center in (2, 5):
            net.canonicalize(center)
            assert np.allclose(net.evaluate(probes), vals, atol=1e-10)
    assert time.monotonic() - t0 < 30.0


def test_property_truncation_bound():
    t0 = time.monotonic()
    for seed in range(6):
        net = random_mps(5, 2, 8, np.random.default_rng(seed))
        before = net.contract_to_tensor().ravel()
        net.truncate(chi=3)
        # the truncation without renormalization: undo each step's rescale
        after = (math.sqrt(net.ledger.product)
                 * net.contract_to_tensor().ravel())
        err = float(np.linalg.norm(before - after))
        assert err <= net.ledger.frobenius_bound + 1e-12
    assert time.monotonic() - t0 < 30.0


def test_property_tci_pivot_exactness():
    t0 = time.monotonic()
    grid = GridSpec(3, 5, 16.0, 3)
    cov = make_covariance("chain", 3, rho=0.5)
    box = BlackBoxTensor.from_fourier(FourierEvaluator(grid, cov))
    topo = TreeTopology.mps(list(range(3)), grid.M)
    net, info = tci_build(box, topo, chi=6, sweeps=3, seed=0)
    labels = sorted(topo.labels())
    col = {lab: i for i, lab in enumerate(labels)}
    scale = box.max_abs
    for bond, left, right in topo.bipartitions():
        cols_u = [col[lab] for lab in sorted(left)]
        cols_v = [col[lab] for lab in sorted(right)]
        for ru in info["pivots"][(bond, bond[0])]:
            for rv in info["pivots"][(bond, bond[1])]:
                full = np.zeros(len(labels), dtype=np.int64)
                full[cols_u] = ru
                full[cols_v] = rv
                want = box(full[None, :])[0]
                got = net.evaluate(full[None, :])[0]
                assert abs(got - want) <= 1e-8 * scale
    assert time.monotonic() - t0 < 30.0


def test_property_maxvol_dominance():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(30, 5))
        rows = maxvol(a)
        coeff = a @ np.linalg.inv(a[rows])
        assert np.abs(coeff).max() <= 1.0 + 1e-2 + 1e-9
    assert time.monotonic() - t0 < 30.0


def test_property_qft_ttn_matches_dense():
    t0 = time.monotonic()
    for n, m in ((6, 3), (8, 4), (10, 5)):
        dense = inverse_dft_embedding_matrix(n, m)
        assert np.allclose(build_qft_ttn(n, m).matrix(), dense, atol=1e-10)
    assert time.monotonic() - t0 < 30.0


def test_property_cost_recomputation():
    t0 = time.monotonic()
    for seed in range(4):
        net = random_mps(5, 2, 6, np.random.default_rng(seed))
        circ, cost = synthesize(net)
        cnots = 0
        depth_at = {}
        for plc in circ.placements:
            if plc.kind == "qft":
                continue
            p, q = plc.in_qubits, len(plc.targets)
            cnots += 1 << (p + q)
            start = max((depth_at.get(w, 0) for w in plc.targets[:p]),
                        default=0)
            total = start + (1 << (p + q))
            for w in plc.targets:
                depth_at[w] = total
        assert cnots == cost.cnot_count
        assert max(depth_at.values()) == cost.depth
    assert time.monotonic() - t0 < 30.0


def test_property_frobenius_restoration_roundtrip():
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    a = rng.normal(size=32)
    a /= np.linalg.norm(a)
    perp = rng.normal(size=32)
    perp -= (perp @ a) * a
    perp /= np.linalg.norm(perp)
    for theta in (0.0, 0.1, 0.7, 1.2):
        b = np.cos(theta) * a + np.sin(theta) * perp
        f = (a @ b) ** 2
        d = float(np.linalg.norm(a - b))
        assert abs(frobenius_from_fidelity(f) - d) < 1e-7
    led = FidelityLedger()
    led.record(0, 0.99)
    led.record(1, 0.98)
    assert led.frobenius_bound == pytest.approx(
        frobenius_from_fidelity(led.product))
    # inverting the distance recovers the fidelity
    f_back = (1.0 - led.frobenius_bound ** 2 / 2.0) ** 2
    assert f_back == pytest.approx(led.product, abs=1e-12)
    assert time.monotonic() - t0 < 30.0


def test_property_enumeration_is_complete():
    t0 = time.monotonic()
    for leaves, count in ((3, 1), (4, 3), (5, 15), (6, 105)):
        trees = enumerate_leaf_trees(leaves)
        assert len(trees) == count
        assert len({tuple(sorted(t)) for t in trees}) == count
    assert time.monotonic() - t0 < 30.0
