"""Batch studies of bond-dimension scaling, structure recovery, and
end-to-end fidelity.

Each driver runs a seeded batch, returns one flat dict per trial plus a
summary of the fitted or aggregated quantities, and leaves presentation
to the caller. The bond studies are purely analytic (canonical
correlations and lattice spectra), so they run at dimensions far beyond
what a dense oracle could check; the recovery and fidelity studies build
actual networks and circuits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .fourier import FourierEvaluator, GridSpec, exact_target
from .gaussian import (Bipartition, canonical_correlations, make_covariance,
                       pair_spectrum, required_bond_profile)
from .sim import (SCAN_ENDS, STRUCTURE_POLICIES, baseline_comparison,
                  compile_circuit, interpolate, reference, scan_trees,
                  verify_circuit)
from .structopt import optimize_structure
from .topology import TreeTopology, caterpillar_leaf_tree, random_leaf_tree


# -- fitting -----------------------------------------------------------------


def linear_fit(x, y) -> dict:
    """Least-squares line y = slope*x + intercept with R^2 and RMS."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ParameterError("fit needs two same-length samples at least")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept),
            "r2": r2, "rms": math.sqrt(ss_res / x.size)}


def offset_loglog_fit(log_inv_eps, bonds) -> dict:
    """Fit log r = e * log(B + log(1/eps)) + c with a free offset B.

    The offset absorbs the lower-order lattice-counting terms that bend
    a plain log-log fit downward on any finite accuracy window, so e
    estimates the asymptotic exponent. For a fixed B the model is linear
    in (e, c), a least-squares solve; B minimizes its residual by golden
    section over [-0.9 * min log(1/eps), 40].
    """
    x = np.asarray(log_inv_eps, dtype=float)
    y = np.log(np.asarray(bonds, dtype=float))

    def fit(b):
        design = np.column_stack([np.log(b + x), np.ones_like(x)])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        return coef, float(((y - design @ coef) ** 2).sum())

    lo, hi = -0.9 * x.min(), 40.0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):  # the bracket shrinks to 0.618^80 = 2e-17 of its width
        b1, b2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        lo, hi = (lo, b2) if fit(b1)[1] <= fit(b2)[1] else (b1, hi)
    b = (lo + hi) / 2.0
    (e, _), ss_res = fit(b)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return {"exponent": float(e), "offset": float(b),
            "r2": 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot}


def compare_growth_models(inv_eps, bonds) -> dict:
    """RMS residuals (in bond units) of a power-law versus a logarithmic
    model for bond growth against 1/eps."""
    inv_eps = np.asarray(inv_eps, dtype=float)
    bonds = np.asarray(bonds, dtype=float)
    lg = linear_fit(np.log(inv_eps), bonds)
    pw = linear_fit(np.log(inv_eps), np.log(bonds))
    pred_pw = np.exp(pw["slope"] * np.log(inv_eps) + pw["intercept"])
    rms_pw = float(np.sqrt(((bonds - pred_pw) ** 2).mean()))
    return {"log_rms": lg["rms"], "poly_rms": rms_pw,
            "poly_exponent": pw["slope"]}


# -- analytic spectrum and bond studies --------------------------------------


def pair_spectrum_check(rhos, n: int = 7, box: float = 20.0,
                        top: int = 5) -> list[dict]:
    """Discretize a correlated pair, SVD the amplitude matrix, and report
    the relative error of each leading squared singular value against
    the geometric law of the continuous pair."""
    rows = []
    grid = GridSpec(2, n, box, min(n, 7))
    for rho in rhos:
        cov = make_covariance("uniform", 2, rho=float(rho))
        amp = exact_target(grid, cov).reshape(1 << n, 1 << n)
        s = np.linalg.svd(amp, compute_uv=False)
        weights = s ** 2 / float((s ** 2).sum())
        law = pair_spectrum(float(rho)).values[:top]
        for k in range(top):
            rows.append({"rho": float(rho), "k": k,
                         "measured": float(weights[k]),
                         "analytic": float(law[k]),
                         "rel_err": float(abs(weights[k] - law[k]) / law[k])})
    return rows


def chain_cut_bond(cov, eps: float) -> int:
    """Largest bond any cut of the variable-order chain needs when the
    accuracy budget eps^2 is split evenly over the cuts."""
    topo = TreeTopology.mps(list(range(cov.dim)), 2)
    profile = required_bond_profile(cov, topo, eps)
    return max(profile.values(), default=1)


def stacked_bond_study(ranks, D: int, sigma_max: float, seeds,
                       eps_list) -> tuple[list[dict], dict]:
    """Bond growth of the interleaved rank-l construction.

    For each l the seed-averaged required bond r(eps) is fitted as
    log r = exponent * log log(1/eps) + const; the construction is built
    so that the exponent comes out as l.
    """
    rows = []
    summary = {}
    eps_arr = [float(e) for e in eps_list]
    for rank in ranks:
        table = np.zeros((len(list(seeds)), len(eps_arr)))
        for i, seed in enumerate(seeds):
            cov = make_covariance("stacked-chain", D, rank=rank,
                                  sigma_max=sigma_max, seed=seed)
            for j, eps in enumerate(eps_arr):
                r = chain_cut_bond(cov, eps)
                table[i, j] = r
                rows.append({"rank": rank, "seed": int(seed), "eps": eps,
                             "bond": r})
        mean_bond = table.mean(axis=0)
        fit = offset_loglog_fit(np.log(1.0 / np.array(eps_arr)), mean_bond)
        summary[rank] = {**fit, "mean_bond": mean_bond.tolist()}
    return rows, summary


def bond_growth_over_dim(dims, eps: float, sigma_max: float, seeds,
                         rank: int = 1) -> dict:
    """Seed-averaged worst-cut bond of the rank-l construction at fixed
    accuracy, per dimension count."""
    out = {}
    for D in dims:
        vals = []
        for seed in seeds:
            cov = make_covariance("stacked-chain", D, rank=rank,
                                  sigma_max=sigma_max, seed=seed)
            vals.append(chain_cut_bond(cov, eps))
        out[int(D)] = float(np.mean(vals))
    return out


def chain_decay_study(D: int, sigma_max: float, seeds,
                      eps_list) -> tuple[list[dict], dict]:
    """Half-cut canonical-correlation decay and bond growth for the
    exponential-decay chain family.

    Returns per-seed rows plus a summary holding the R^2 of the
    log-linear decay fit (on seed-averaged log correlations) and the
    power-versus-log model comparison for the seed-averaged bond curve.
    """
    half = Bipartition(frozenset(range(D // 2)), frozenset(range(D // 2, D)))
    eps_arr = [float(e) for e in eps_list]
    rows = []
    logs = []
    bonds = np.zeros((len(list(seeds)), len(eps_arr)))
    for i, seed in enumerate(seeds):
        cov = make_covariance("exp-decay-chain", D, sigma_max=sigma_max,
                              seed=seed)
        corrs = canonical_correlations(cov, half)
        logs.append(np.log(corrs))
        for j, eps in enumerate(eps_arr):
            bonds[i, j] = chain_cut_bond(cov, eps)
            rows.append({"seed": int(seed), "eps": eps,
                         "bond": int(bonds[i, j]),
                         "num_corrs": int(corrs.size)})
    depth = min(len(v) for v in logs)
    if depth < 3:
        raise ParameterError(
            f"only {depth} canonical correlations survive the cutoff; "
            "decay fit needs at least 3")
    mean_log = np.mean([v[:depth] for v in logs], axis=0)
    decay = linear_fit(np.arange(depth), mean_log)
    models = compare_growth_models(1.0 / np.array(eps_arr), bonds.mean(axis=0))
    return rows, {"decay_r2": decay["r2"], "decay_slope": decay["slope"],
                  "corr_depth": depth, **models}


# -- network studies ---------------------------------------------------------


def _shuffled_caterpillar(D: int, perm) -> list[tuple[int, int]]:
    return [(int(perm[u]) if u < D else u, int(perm[v]) if v < D else v)
            for u, v in caterpillar_leaf_tree(D)]


def recovery_study(D: int, chis, seeds, *, sigma: float = 3.0, n: int = 5,
                   box: float = 16.0, m: int = 3, chi_prime: int = 32,
                   sweeps: int = 4) -> tuple[list[dict], dict]:
    """Tree-structure recovery of the reshaping sweep.

    Per seed: draw a random leaf tree, correlate variables by tree
    distance, interpolate the coefficient tensor on a leaf-shuffled
    caterpillar, reshape at each working chi, and compare the splits of
    the recovered tree with the generator's. Rates come back per chi.
    """
    grid = GridSpec(D, n, box, m)
    rows = []
    hits = {int(c): 0 for c in chis}
    total = 0
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        tree = random_leaf_tree(D, rng)
        perm = rng.permutation(D)
        cov = make_covariance("tree", D, edges=tree, sigma=sigma)
        start = TreeTopology.from_leaf_tree(_shuffled_caterpillar(D, perm),
                                            D, grid.M)
        net, _ = interpolate(FourierEvaluator(grid, cov), start, chi_prime,
                             sweeps, seed)
        want = TreeTopology.from_leaf_tree(tree, D, 1).splits()
        total += 1
        for chi in chis:
            opt, rep = optimize_structure(net.copy(), chi=int(chi))
            ok = opt.topology().splits() == want
            hits[int(chi)] += ok
            rows.append({"dim": D, "seed": int(seed), "chi": int(chi),
                         "recovered": bool(ok),
                         "reconnections": rep["accepted_total"]})
    rates = {c: hits[c] / total for c in hits}
    return rows, {"rates": rates, "trials": total}


def fidelity_study(chis, seeds, *, D: int = 3, n: int = 6, m: int = 4,
                   sigma_max: float = 0.2, mode: str = "qft-gates",
                   chi_prime: int | None = None, structure: str = "fixed",
                   box: float = 16.0, sweeps: int = 6,
                   ) -> tuple[list[dict], dict]:
    """End-to-end compile+simulate batch over seeds and bond limits.

    Rows carry the full verification record plus baseline cost ratios;
    the summary reports mean simulated infidelity per chi and the worst
    ledger-versus-simulation gap. Each covariance has one reference,
    shared by its chis.
    """
    grid = GridSpec(D, n, box, m)
    rows = []
    infid = {int(c): [] for c in chis}
    worst_gap = 0.0
    for seed in seeds:
        cov = make_covariance("random", D, sigma_max=sigma_max, seed=seed)
        ref = reference(grid, cov)
        for chi in chis:
            circ, rec = compile_circuit(cov, grid, int(chi), mode,
                                        chi_prime=chi_prime,
                                        structure=structure, sweeps=sweeps,
                                        seed=seed)
            rec = verify_circuit(circ, rec, ref)
            rec.update(baseline_comparison(rec))
            rec["infidelity"] = 1.0 - (rec["simulated_fidelity"]
                                       / rec["fourier_fidelity"])
            rows.append(rec)
            infid[int(chi)].append(rec["infidelity"])
            worst_gap = max(worst_gap, rec["gap"])
    return rows, {"mean_infidelity": {c: float(np.mean(v))
                                      for c, v in infid.items()},
                  "worst_gap": worst_gap}


# the policy comparison: D=4 random covariances on a 20-qubit grid at chi 3
POLICY_GRID = GridSpec(4, 5, 16.0, 4)
POLICY_CHI = 3
POLICY_SIGMA_MAX = 0.2
POLICY_MODE = "qft-gates"


def policy_study(seeds) -> tuple[list[dict], dict]:
    """Mean simulated infidelity of each structure policy on one seeded
    covariance batch.

    Per covariance: one reference, one compile each for "fixed" and
    "auto-optimize", and one scan_trees whose two ends serve the scan
    policies.
    """
    grid = POLICY_GRID
    rows = []
    acc = {p: [] for p in STRUCTURE_POLICIES}
    for seed in seeds:
        cov = make_covariance("random", grid.dim,
                              sigma_max=POLICY_SIGMA_MAX, seed=seed)
        ref = reference(grid, cov)
        ranked = scan_trees(cov, grid, POLICY_CHI, POLICY_MODE, seed=seed)
        ends = {p: ranked[end] for p, end in SCAN_ENDS.items()}
        for pol in STRUCTURE_POLICIES:
            circ, rec = ends.get(pol) or compile_circuit(
                cov, grid, POLICY_CHI, POLICY_MODE, structure=pol, seed=seed)
            rec = verify_circuit(circ, rec, ref)
            rec["structure"] = pol
            rec["infidelity"] = 1.0 - (rec["simulated_fidelity"]
                                       / rec["fourier_fidelity"])
            rows.append(rec)
            acc[pol].append(rec["infidelity"])
    return rows, {"mean_infidelity": {p: float(np.mean(v))
                                      for p, v in acc.items()}}
