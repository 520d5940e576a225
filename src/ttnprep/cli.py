"""Batch front end: seeded experiment runs driven by a JSON config with
flag overrides, emitting JSON records and figure-ready CSV tables.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 verification
failure. Identical config and seeds produce byte-identical outputs; seed
batches can fan out over a worker pool without changing the result.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import scaling
from .errors import ConfigError, TtnError
from .fourier import FourierEvaluator, GridSpec
from .gaussian import (_INT, _REAL, Bipartition, _is, _list_of,
                       canonical_correlations, closed_form_rank_bound,
                       make_covariance, required_bond)
from .sim import (MODES, STRUCTURE_POLICIES, compile_circuit, interpolate,
                  resolve_chi_prime, verify_pipeline)
from .structopt import PAIRING_NAMES, optimize_structure
from .topology import TreeTopology, caterpillar_leaf_tree

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

BENCH_COLUMNS = ("D", "n", "m", "chi", "sigma_max", "seed", "ledger_f",
                 "sim_f", "cnot", "depth")


# the JSON type of each field that the range checks and the commands rely
# on; a field whose default is None may also be None
_FIELD_TYPES = {"dim": _INT, "n": _INT, "m": _INT, "chi": _INT,
                "chi_prime": _INT, "sweeps": _INT, "jobs": _INT, "box": _REAL,
                "seeds": _list_of(_INT), "chis": _list_of(_INT),
                "eps": _list_of(_REAL), "tree": _list_of(_list_of(_INT, 2)),
                "outdir": _is(str)}


@dataclass
class RunConfig:
    """One experiment manifest; a checked-in JSON file plus overrides."""

    generator: dict = field(default_factory=lambda: {"kind": "uniform",
                                                     "rho": 0.5})
    dim: int = 2
    n: int = 8
    box: float = 20.0
    m: int = 5
    chi: int = 8
    chi_prime: int | None = None
    sweeps: int = 6
    mode: str = "qft-ttn"
    structure: str = "fixed"
    tree: list | None = None
    seeds: list = field(default_factory=lambda: [0])
    chis: list | None = None
    eps: list = field(default_factory=lambda: [1e-2, 1e-4, 1e-6])
    outdir: str = "runs"
    jobs: int = 1

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            ok = _FIELD_TYPES.get(f.name)
            if ok and not ok(value) and not (value is None
                                             and f.default is None):
                raise ConfigError(f"{f.name} has the wrong type: {value!r}")
        self.grid  # GridSpec owns the grid's rules; its ParameterError exits 2
        if self.chi < 1 or (self.chi_prime is not None and self.chi_prime < 1):
            raise ConfigError("bond limits must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.structure not in STRUCTURE_POLICIES:
            raise ConfigError(f"unknown structure policy {self.structure!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not isinstance(self.generator, dict) or "kind" not in self.generator:
            raise ConfigError("generator must be a mapping with a kind")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dim, self.n, self.box, self.m)

    def covariance(self, seed: int):
        params = {k: v for k, v in self.generator.items() if k != "kind"}
        return make_covariance(self.generator["kind"], self.dim, seed=seed,
                               **params)

    def topology(self) -> TreeTopology | None:
        if self.tree is None:
            return None
        edges = [tuple(e) for e in self.tree]
        return TreeTopology.from_leaf_tree(edges, self.dim, self.grid.M)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**{k: v for k, v in data.items() if k in known})
    cfg.validate()
    return cfg


# -- output helpers ----------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _write_csv(path: Path, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


# -- subcommands -------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> int:
    """Canonical correlations and required bonds per contiguous cut."""
    out = Path(cfg.outdir)
    cov = cfg.covariance(cfg.seeds[0])
    rows = []
    summary = {"dim": cfg.dim, "generator": cfg.generator,
               "seed": cfg.seeds[0], "cuts": {}}
    for j in range(1, cfg.dim):
        cut = Bipartition(frozenset(range(j)), frozenset(range(j, cfg.dim)))
        corrs = canonical_correlations(cov, cut)
        entry = {"correlations": corrs.tolist(), "bonds": {}}
        for eps in cfg.eps:
            bond = required_bond(corrs, float(eps))
            bound = closed_form_rank_bound(corrs, float(eps))
            entry["bonds"][str(eps)] = bond
            rows.append({"cut": j, "eps": float(eps), "bond": bond,
                         "bound": bound})
        summary["cuts"][str(j)] = entry
    _write_json(out / "analyze.json", summary)
    _write_csv(out / "analyze.csv", ("cut", "eps", "bond", "bound"), rows)
    print(f"analyze: {len(rows)} rows -> {out / 'analyze.csv'}")
    return EXIT_OK


def _interpolate(cfg: RunConfig, seed: int):
    cov = cfg.covariance(seed)
    topo = cfg.topology()
    if topo is None:
        topo = TreeTopology.from_leaf_tree(caterpillar_leaf_tree(cfg.dim),
                                           cfg.dim, cfg.grid.M)
    chi_prime = resolve_chi_prime(cfg.chi, cfg.chi_prime)
    net, tci_rec = interpolate(FourierEvaluator(cfg.grid, cov), topo,
                               chi_prime, cfg.sweeps, seed)
    rec = {"seed": seed, "chi_prime": chi_prime,
           "evals": tci_rec["tci_evals"],
           "converged": tci_rec["tci_converged"],
           "residual": tci_rec["tci_residual"],
           "sweeps": tci_rec["tci_sweeps"]}
    return net, rec


def cmd_build(cfg: RunConfig) -> int:
    """Interpolate the coefficient network and store it."""
    out = Path(cfg.outdir)
    net, rec = _interpolate(cfg, cfg.seeds[0])
    out.mkdir(parents=True, exist_ok=True)
    net.save(out / "network.ttn")
    _write_json(out / "build.json", rec)
    print(f"build: residual {rec['residual']:.3e} "
          f"({rec['evals']} coefficient entries computed) -> "
          f"{out / 'network.ttn'}")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    """Interpolate, reshape toward lower entanglement, store the result."""
    out = Path(cfg.outdir)
    net, rec = _interpolate(cfg, cfg.seeds[0])
    net, report = optimize_structure(net, chi=cfg.chi)
    out.mkdir(parents=True, exist_ok=True)
    net.save(out / "network.ttn")
    with (out / "sweeps.jsonl").open("w") as fh:
        for choice in report["choices"]:
            fh.write(json.dumps({
                "edge": choice.edge, "entropies": list(choice.entropies),
                "chosen": choice.chosen,
                "pairing": PAIRING_NAMES[choice.chosen],
                "accepted": choice.accepted,
                "step_fidelity": choice.step_fidelity}) + "\n")
    rec.update({"reconnections": report["accepted_total"],
                "sweeps_run": len(report["sweeps"]),
                "ledger_fidelity": net.ledger.product})
    _write_json(out / "optimize.json", rec)
    print(f"optimize: {rec['reconnections']} reconnections -> "
          f"{out / 'network.ttn'}")
    return EXIT_OK


def cmd_compile(cfg: RunConfig) -> int:
    """Full compile; stores the circuit and its cost record."""
    out = Path(cfg.outdir)
    circ, record = compile_circuit(
        cfg.covariance(cfg.seeds[0]), cfg.grid, cfg.chi, cfg.mode,
        chi_prime=cfg.chi_prime, structure=cfg.structure,
        topology=cfg.topology(), sweeps=cfg.sweeps, seed=cfg.seeds[0])
    out.mkdir(parents=True, exist_ok=True)
    circ.save(out / "circuit.json")
    _write_json(out / "compile.json", record)
    print(f"compile: {record['qubits']} qubits, {record['cnot_count']} "
          f"coefficient CNOTs, ledger fidelity {record['ledger_fidelity']:.6f}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Compile, simulate, reconcile the ledger; nonzero exit on a gap."""
    out = Path(cfg.outdir)
    record = verify_pipeline(
        cfg.covariance(cfg.seeds[0]), cfg.grid, cfg.chi, cfg.mode,
        chi_prime=cfg.chi_prime, structure=cfg.structure,
        topology=cfg.topology(), sweeps=cfg.sweeps, seed=cfg.seeds[0])
    _write_json(out / "verify.json", record)
    status = "ok" if record["ok"] else "GAP"
    print(f"verify: simulated {record['simulated_fidelity']:.8f} fourier "
          f"ceiling {record['fourier_fidelity']:.8f} ledger "
          f"{record['ledger_fidelity']:.8f} gap {record['gap']:.2e} "
          f"[{status}]")
    return EXIT_OK if record["ok"] else EXIT_VERIFICATION


def _check_generator(cfg: RunConfig, command: str, kind: str,
                     param: str) -> None:
    """A batch command draws its own covariances: it takes one generator
    kind and reads one parameter, so any other parameter is an error."""
    if cfg.generator["kind"] != kind:
        raise ConfigError(f"{command} expects the {kind} generator")
    extra = sorted(set(cfg.generator) - {"kind", param})
    if extra:
        raise ConfigError(f"unexpected parameters: {extra}")


def _bench_one(args) -> list[dict]:
    cfg, seed = args
    rows, _ = scaling.fidelity_study(
        cfg.chis or [cfg.chi], [seed], D=cfg.dim, n=cfg.n, m=cfg.m,
        sigma_max=cfg.generator.get("sigma_max", 0.2), mode=cfg.mode,
        chi_prime=cfg.chi_prime, structure=cfg.structure, box=cfg.box,
        sweeps=cfg.sweeps)
    return rows


def _pool_map(fn, work, jobs: int):
    # the pool forks every worker at its first submit, so size it to the work
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(w) for w in work]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


def cmd_bench(cfg: RunConfig) -> int:
    """Seeded fidelity/cost batch; CSV row per (seed, chi)."""
    _check_generator(cfg, "bench", "random", "sigma_max")
    out = Path(cfg.outdir)
    results = _pool_map(_bench_one, [(cfg, s) for s in cfg.seeds], cfg.jobs)
    rows = [r for chunk in results for r in chunk]
    table = [{"D": r["dim"], "n": r["n"], "m": r["m"], "chi": r["chi"],
              "sigma_max": cfg.generator.get("sigma_max", 0.2),
              "seed": r["seed"], "ledger_f": r["ledger_fidelity"],
              "sim_f": r["simulated_fidelity"], "cnot": r["cnot_count"],
              "depth": r["depth"]} for r in rows]
    _write_csv(out / "bench.csv", BENCH_COLUMNS, table)
    by_chi = {}
    for r in rows:
        by_chi.setdefault(r["chi"], []).append(r["infidelity"])
    summary = {"mean_infidelity": {str(c): float(np.mean(v))
                                   for c, v in sorted(by_chi.items())},
               "instances": len(rows),
               "worst_gap": max(r["gap"] for r in rows)}
    _write_json(out / "bench_summary.json", summary)
    print(f"bench: {len(rows)} instances -> {out / 'bench.csv'}")
    return EXIT_OK


def _trial_one(args) -> list[dict]:
    cfg, seed = args
    rows, _ = scaling.recovery_study(
        cfg.dim, cfg.chis or [cfg.chi], [seed],
        sigma=cfg.generator.get("sigma", 3.0), n=cfg.n, box=cfg.box,
        m=cfg.m, chi_prime=cfg.chi_prime or 32, sweeps=cfg.sweeps)
    return rows


def cmd_structure_trial(cfg: RunConfig) -> int:
    """Tree-recovery success rates over a seed batch."""
    _check_generator(cfg, "structure-trial", "tree", "sigma")
    out = Path(cfg.outdir)
    results = _pool_map(_trial_one, [(cfg, s) for s in cfg.seeds], cfg.jobs)
    rows = [r for chunk in results for r in chunk]
    _write_csv(out / "recovery.csv",
               ("dim", "seed", "chi", "recovered", "reconnections"), rows)
    rates = {}
    for r in rows:
        rates.setdefault(r["chi"], []).append(r["recovered"])
    summary = {"rates": {str(c): float(np.mean(v))
                         for c, v in sorted(rates.items())},
               "trials": len(cfg.seeds)}
    _write_json(out / "recovery_summary.json", summary)
    print(f"structure-trial: rates {summary['rates']} -> "
          f"{out / 'recovery.csv'}")
    return EXIT_OK


COMMANDS = {"analyze": cmd_analyze, "build": cmd_build,
            "optimize": cmd_optimize, "compile": cmd_compile,
            "verify": cmd_verify, "bench": cmd_bench,
            "structure-trial": cmd_structure_trial}


# -- argument plumbing -------------------------------------------------------


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(p) for p in text.split(",") if p]


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param needs key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttnprep",
        description="Compile multivariate normals into state-preparation "
                    "circuits and verify the fidelity accounting.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run manifest")
    parser.add_argument("--kind", help="covariance generator kind")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="generator parameter (repeatable)")
    parser.add_argument("--dim", type=int)
    parser.add_argument("-n", "--n", type=int, dest="n")
    parser.add_argument("--box", type=float)
    parser.add_argument("-m", "--m", type=int, dest="m")
    parser.add_argument("--chi", type=int)
    parser.add_argument("--chi-prime", type=int, dest="chi_prime")
    parser.add_argument("--sweeps", type=int)
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--structure", choices=STRUCTURE_POLICIES)
    parser.add_argument("--seeds", help="'0:20' range or '1,5,9' list")
    parser.add_argument("--chis", help="comma-separated bond limits")
    parser.add_argument("--eps", help="comma-separated accuracies")
    parser.add_argument("--outdir")
    parser.add_argument("--jobs", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            overrides = {
                "dim": args.dim, "n": args.n, "box": args.box, "m": args.m,
                "chi": args.chi, "chi_prime": args.chi_prime,
                "sweeps": args.sweeps, "mode": args.mode,
                "structure": args.structure, "outdir": args.outdir,
                "jobs": args.jobs,
                "seeds": _parse_seeds(args.seeds) if args.seeds else None,
                "chis": ([int(c) for c in args.chis.split(",")]
                         if args.chis else None),
                "eps": ([float(e) for e in args.eps.split(",")]
                        if args.eps else None),
            }
        except ValueError as exc:
            raise ConfigError(f"cannot parse a flag: {exc}") from exc
        if args.kind or args.param:
            gen = dict(_parse_params(args.param))
            gen["kind"] = args.kind or "random"
            overrides["generator"] = gen
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TtnError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
