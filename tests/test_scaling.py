"""Scaling-study drivers and their fit helpers."""

import numpy as np
import pytest

from ttnprep.errors import ParameterError
from ttnprep.gaussian import make_covariance, required_bond_profile
from ttnprep.scaling import (bond_growth_over_dim, chain_cut_bond,
                             chain_decay_study, compare_growth_models,
                             fidelity_study, linear_fit, offset_loglog_fit,
                             pair_spectrum_check, policy_study,
                             recovery_study, stacked_bond_study)
from ttnprep.topology import TreeTopology


# -- fitting helpers ---------------------------------------------------------------


def test_linear_fit_exact_line():
    x = np.arange(6.0)
    fit = linear_fit(x, 2.5 * x - 1.0)
    assert abs(fit["slope"] - 2.5) < 1e-12
    assert abs(fit["intercept"] + 1.0) < 1e-12
    assert fit["r2"] == pytest.approx(1.0)
    assert fit["rms"] < 1e-12


def test_linear_fit_noise_lowers_r2():
    rng = np.random.default_rng(3)
    x = np.arange(40.0)
    y = x + rng.normal(scale=4.0, size=40)
    fit = linear_fit(x, y)
    assert 0.5 < fit["r2"] < 1.0
    assert fit["rms"] > 1.0


def test_linear_fit_rejects_single_point():
    with pytest.raises(ParameterError):
        linear_fit([1.0], [2.0])


def test_offset_fit_recovers_planted_exponent():
    # exact samples of r = (B + log(1/eps))^e * exp(c)
    t = np.log(1.0 / np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]))
    for e_true in (1.0, 2.0, 3.0):
        bonds = np.exp(e_true * np.log(3.0 + t) + 0.1)
        fit = offset_loglog_fit(t, bonds)
        assert abs(fit["exponent"] - e_true) < 1e-5
        assert fit["r2"] > 1.0 - 1e-10


def test_growth_model_comparison_separates_laws():
    inv_eps = np.logspace(1, 6, 8)
    log_bonds = 2.0 * np.log(inv_eps) + 3.0
    cmp_log = compare_growth_models(inv_eps, log_bonds)
    assert cmp_log["log_rms"] < 1e-10
    assert cmp_log["poly_rms"] > 10 * max(cmp_log["log_rms"], 1e-12)

    poly_bonds = inv_eps ** 0.5
    cmp_poly = compare_growth_models(inv_eps, poly_bonds)
    assert cmp_poly["poly_rms"] < 1e-8
    assert abs(cmp_poly["poly_exponent"] - 0.5) < 1e-10
    assert cmp_poly["log_rms"] > 1.0


# -- analytic studies --------------------------------------------------------------


def test_chain_cut_bond_matches_manual_profile():
    cov = make_covariance("chain", 6, rho=0.5)
    topo = TreeTopology.mps(list(range(6)), 2)
    profile = required_bond_profile(cov, topo, 1e-3)
    assert chain_cut_bond(cov, 1e-3) == max(profile.values())


def test_pair_spectrum_check_rows():
    rows = pair_spectrum_check([0.4], n=6, top=3)
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"rho", "k", "measured", "analytic", "rel_err"}
        assert row["rel_err"] < 1e-2
    # leading weight dominates and matches the geometric law closely
    assert rows[0]["measured"] > rows[1]["measured"] > rows[2]["measured"]
    assert rows[0]["rel_err"] < 1e-3


def test_stacked_bond_study_smoke():
    eps = [10.0 ** (-k / 2) for k in range(4, 11)]
    rows, summary = stacked_bond_study((1,), 6, 0.5, range(3), eps)
    assert len(rows) == 3 * len(eps)
    mean = summary[1]["mean_bond"]
    assert all(b <= a for a, b in zip(mean, mean[1:])) is False or True
    # tighter accuracy never needs a smaller bond
    assert all(a <= b + 1e-12 for a, b in zip(mean, mean[1:]))
    assert 0.2 < summary[1]["exponent"] < 2.5


def test_bond_growth_over_dim_smoke():
    out = bond_growth_over_dim((4, 6), 1e-4, 0.5, range(3))
    assert set(out) == {4, 6}
    assert all(v >= 1.0 for v in out.values())


def test_chain_decay_study_smoke():
    rows, summary = chain_decay_study(8, 0.5, range(5),
                                      [1e-2, 1e-3, 1e-4, 1e-5])
    assert summary["corr_depth"] >= 3
    assert summary["decay_slope"] < 0
    assert 0.8 < summary["decay_r2"] <= 1.0
    assert rows and set(rows[0]) == {"seed", "eps", "bond", "num_corrs"}


# -- network studies ----------------------------------------------------------------


def test_recovery_study_smoke():
    rows, summary = recovery_study(4, (16,), range(2))
    assert summary["trials"] == 2
    assert set(summary["rates"]) == {16}
    assert 0.0 <= summary["rates"][16] <= 1.0
    assert len(rows) == 2
    assert set(rows[0]) == {"dim", "seed", "chi", "recovered",
                            "reconnections"}


def test_fidelity_study_smoke():
    rows, summary = fidelity_study((2, 4), range(2), D=2, n=5, m=3)
    assert len(rows) == 4
    assert summary["worst_gap"] <= 1e-2
    infs = summary["mean_infidelity"]
    assert infs[4] <= infs[2] + 1e-12
    for rec in rows:
        assert rec["ok"]
        # at this toy scale, no worse than the dense baseline
        assert 0 < rec["cnot_ratio"] <= 1.0


def _count_calls(monkeypatch, *names):
    import ttnprep.sim as simmod

    calls = {name: 0 for name in names}

    def counting(name):
        inner = getattr(simmod, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(simmod, name, counting(name))
    return calls


def test_policy_study_scans_once_per_covariance(monkeypatch):
    calls = _count_calls(monkeypatch, "tci_build", "exact_target",
                         "fourier_ceiling")
    rows, summary = policy_study([0])
    # fixed, auto-optimize and the three 4-leaf trees of one scan
    assert calls == {"tci_build": 5, "exact_target": 1,
                     "fourier_ceiling": 1}
    assert [r["structure"] for r in rows] == [
        "fixed", "auto-optimize", "exhaustive-optimal", "fixed-worst"]
    assert rows[2]["ledger_fidelity"] >= rows[3]["ledger_fidelity"]
    assert set(summary["mean_infidelity"]) == {r["structure"] for r in rows}


def test_fidelity_study_one_reference_per_covariance(monkeypatch):
    calls = _count_calls(monkeypatch, "exact_target", "fourier_ceiling")
    rows, _ = fidelity_study((2, 4, 8), [0])
    assert len(rows) == 3
    assert calls == {"exact_target": 1, "fourier_ceiling": 1}
