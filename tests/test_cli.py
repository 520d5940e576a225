"""Command-line batch driver: exit codes, file outputs, determinism."""

import csv
import json
import shutil
import subprocess

import pytest

from ttnprep import QuantumCircuit, TreeTensorNetwork
from ttnprep.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFICATION, RunConfig,
                         _parse_params, _parse_seeds, load_config, main)
from ttnprep.errors import ConfigError


def _run(*args):
    return main(list(args))


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- parsing ----------------------------------------------------------------------


def test_seed_parser():
    assert _parse_seeds("0:5") == [0, 1, 2, 3, 4]
    assert _parse_seeds("1,5,9") == [1, 5, 9]
    assert _parse_seeds("7") == [7]


def test_param_parser():
    assert _parse_params(["rho=0.5", "rank=2"]) == {"rho": 0.5, "rank": 2}
    assert _parse_params(["kind=tree"]) == {"kind": "tree"}
    with pytest.raises(ConfigError):
        _parse_params(["oops"])


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 2, "bogus": 1}))
    assert _run("analyze", "--config", str(cfg)) == EXIT_CONFIG


def test_config_validation_errors(tmp_path):
    assert _run("analyze", "--kind", "uniform", "--param", "rho=0.3",
                "--dim", "2", "--chi", "0",
                "--outdir", str(tmp_path)) == EXIT_CONFIG
    assert _run("compile", "--kind", "uniform", "--param", "rho=0.3",
                "--dim", "2", "--mode", "qft-ttn", "--m", "9", "-n", "8",
                "--outdir", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("command,flags,config", [
    ("analyze", ("--seeds", "a:b"), {}),
    ("analyze", ("--chis", "2,x"), {}),
    ("analyze", ("--eps", "x"), {}),
    ("analyze", (), {"dim": "4"}),
    ("analyze", (), {"dim": True}),
    ("compile", (), {"chi": 2.5}),
    ("analyze", (), {"seeds": 3}),
    ("analyze", (), {"eps": [0.5, "x"]}),
    ("build", (), {"tree": [[0, 1, 2]]}),
    ("analyze", (), {"generator": {"kind": "chain", "rho": "x"}}),
    ("analyze", (), {"generator": {"kind": "tree", "edges": 3,
                                   "sigma": 3.0}}),
], ids=["seed-range", "chis", "eps", "dim-string", "dim-bool", "chi-float",
        "seeds-int", "eps-string", "tree-triple", "rho-string", "edges-int"])
def test_malformed_input_is_a_config_error(tmp_path, command, flags, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"generator": {"kind": "uniform", "rho": 0.3},
                                "n": 5, "m": 3, **config}))
    assert _run(command, "--config", str(path), *flags,
                "--outdir", str(tmp_path)) == EXIT_CONFIG


def test_cli_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dim": 3, "n": 5, "m": 3,
        "generator": {"kind": "uniform", "rho": 0.0},
        "outdir": str(tmp_path / "a")}))
    loaded = load_config(str(cfg), {"dim": 2, "seeds": None, "chis": None,
                                    "eps": None})
    assert loaded.dim == 2 and loaded.n == 5


# -- analyze ----------------------------------------------------------------------


def test_analyze_uncorrelated_bonds_all_one(tmp_path):
    rc = _run("analyze", "--kind", "uniform", "--param", "rho=0",
              "--dim", "3", "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    rows = _read_csv(tmp_path / "analyze.csv")
    assert rows
    assert all(r["bond"] == "1" for r in rows)
    assert all(r["bound"] == "1" for r in rows)


def test_analyze_chain_bond_monotone_in_correlation(tmp_path):
    rc = _run("analyze", "--kind", "chain", "--param", "rho=0.5",
              "--dim", "8", "--eps", "1e-3", "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "analyze.json").read_text())
    pairs = []
    for cut in report["cuts"].values():
        corr = max(cut["correlations"])
        pairs.append((corr, cut["bonds"]["0.001"]))
    pairs.sort()
    bonds = [b for _, b in pairs]
    assert bonds == sorted(bonds)
    assert bonds[-1] > 1


# -- build / optimize / compile / verify --------------------------------------------


BASE = ("--kind", "uniform", "--param", "rho=0.5", "--dim", "2",
        "-n", "5", "-m", "3", "--chi", "4", "--sweeps", "4")


def test_build_stores_loadable_network(tmp_path):
    rc = _run("build", *BASE, "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    net = TreeTensorNetwork.load(tmp_path / "network.ttn")
    assert sorted(net.labels()) == [0, 1]
    rec = json.loads((tmp_path / "build.json").read_text())
    assert rec["evals"] > 0 and rec["residual"] < 1e-6
    assert 1 <= rec["sweeps"] <= 4
    # the shape lives in the container's header only: no sidecar
    assert sorted(p.name for p in tmp_path.iterdir()) == ["build.json",
                                                          "network.ttn"]


def test_optimize_writes_choice_log(tmp_path):
    rc = _run("optimize", "--kind", "chain", "--param", "rho=0.5",
              "--dim", "4", "-n", "5", "-m", "3", "--chi", "4",
              "--sweeps", "4", "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    rec = json.loads((tmp_path / "optimize.json").read_text())
    assert rec["sweeps_run"] >= 1
    assert 0 < rec["ledger_fidelity"] <= 1
    with open(tmp_path / "sweeps.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    for row in lines:
        assert set(row) == {"edge", "entropies", "chosen", "pairing",
                            "accepted", "step_fidelity"}
        assert len(row["entropies"]) == 3
    TreeTensorNetwork.load(tmp_path / "network.ttn")


def test_compile_emits_circuit(tmp_path):
    rc = _run("compile", *BASE, "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    circ = QuantumCircuit.load(tmp_path / "circuit.json")
    circ.validate()
    rec = json.loads((tmp_path / "compile.json").read_text())
    assert rec["qubits"] == circ.qubits == 10
    assert rec["cnot_count"] == circ.cost.cnot_count


def test_verify_ok_run(tmp_path):
    rc = _run("verify", *BASE, "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    rec = json.loads((tmp_path / "verify.json").read_text())
    assert rec["ok"] is True
    assert rec["ledger_fidelity"] >= 0.999
    # sim is capped by the Fourier truncation ceiling, so compare against it
    assert rec["simulated_fidelity"] >= rec["fourier_fidelity"] - 1e-3


def test_verify_summary_prints_the_fourier_ceiling(tmp_path, capsys):
    # the simulated fidelity is far below the ledger here because the
    # ceiling is; the line says so
    rc = _run("verify", "--kind", "chain", "--param", "rho=-0.99",
              "--dim", "3", "-n", "6", "-m", "4", "--chi", "2",
              "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    rec = json.loads((tmp_path / "verify.json").read_text())
    assert rec["simulated_fidelity"] < 0.5 * rec["ledger_fidelity"]
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line == (
        f"verify: simulated {rec['simulated_fidelity']:.8f} fourier ceiling "
        f"{rec['fourier_fidelity']:.8f} ledger {rec['ledger_fidelity']:.8f} "
        f"gap {rec['gap']:.2e} [ok]")


def test_verify_rejects_oversized_grid(tmp_path):
    rc = _run("verify", "--kind", "uniform", "--param", "rho=0.1",
              "--dim", "4", "-n", "7", "-m", "3",
              "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG


def test_build_tree_without_edges_is_a_config_error(tmp_path):
    rc = _run("build", "--kind", "tree", "--param", "sigma=3.0",
              "--dim", "6", "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG


def test_tree_with_an_unlabeled_pendant_vertex_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tree": [[0, 3], [1, 3], [2, 3], [3, 4]]}))
    rc = _run("compile", "--config", str(cfg), "--kind", "uniform",
              "--param", "rho=0.3", "--dim", "3", "-n", "3", "-m", "2",
              "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG


def test_tree_scan_past_six_leaves_is_a_config_error(tmp_path):
    for structure in ("exhaustive-optimal", "fixed-worst"):
        rc = _run("compile", "--kind", "uniform", "--param", "rho=0.1",
                  "--dim", "7", "-n", "3", "-m", "2",
                  "--structure", structure, "--outdir", str(tmp_path))
        assert rc == EXIT_CONFIG


def test_verify_exit_code_on_ledger_gap(tmp_path, monkeypatch):
    import ttnprep.cli as climod

    def fake_verify(*args, **kwargs):
        return {"ok": False, "simulated_fidelity": 0.5,
                "fourier_fidelity": 0.999, "ledger_fidelity": 0.99,
                "gap": 0.49, "gap_ok": False, "ceiling_ok": True}

    monkeypatch.setattr(climod, "verify_pipeline", fake_verify)
    rc = _run("verify", *BASE, "--outdir", str(tmp_path))
    assert rc == EXIT_VERIFICATION


# -- batch commands -----------------------------------------------------------------


BENCH = ("bench", "--kind", "random", "--param", "sigma_max=0.2",
         "--dim", "2", "-n", "5", "-m", "3", "--chis", "2,4",
         "--seeds", "0:2", "--sweeps", "4")


def test_bench_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(*BENCH, "--outdir", str(a)) == EXIT_OK
    assert _run(*BENCH, "--outdir", str(b)) == EXIT_OK
    assert (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()
    rows = _read_csv(a / "bench.csv")
    assert len(rows) == 4  # 2 seeds x 2 chis
    assert list(rows[0]) == ["D", "n", "m", "chi", "sigma_max", "seed",
                             "ledger_f", "sim_f", "cnot", "depth"]
    summary = json.loads((a / "bench_summary.json").read_text())
    assert summary["instances"] == 4
    assert summary["worst_gap"] <= 1e-2
    infs = summary["mean_infidelity"]
    assert infs["4"] <= infs["2"] + 1e-12


def test_bench_row_is_the_verify_record_at_box_and_sweeps(tmp_path):
    from ttnprep import GridSpec, make_covariance, verify_pipeline

    assert _run("bench", "--kind", "random", "--param", "sigma_max=0.2",
                "--dim", "2", "-n", "5", "-m", "3", "--chi", "2",
                "--seeds", "1", "--box", "12", "--sweeps", "2",
                "--outdir", str(tmp_path)) == EXIT_OK
    [row] = _read_csv(tmp_path / "bench.csv")
    rec = verify_pipeline(make_covariance("random", 2, sigma_max=0.2, seed=1),
                          GridSpec(2, 5, 12.0, 3), 2, sweeps=2, seed=1)
    assert float(row["sim_f"]) == rec["simulated_fidelity"]
    assert float(row["ledger_f"]) == rec["ledger_fidelity"]
    assert int(row["cnot"]) == rec["cnot_count"]


def test_bench_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "par"
    assert _run(*BENCH, "--outdir", str(a), "--jobs", "1") == EXIT_OK
    assert _run(*BENCH, "--outdir", str(b), "--jobs", "2") == EXIT_OK
    assert (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()


def test_worker_pool_is_bounded_by_work_and_cores(tmp_path, monkeypatch):
    import ttnprep.cli as climod

    sizes = []

    class SerialPool:
        # records the pool size and runs the work in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(climod, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(climod.os, "cpu_count", lambda: 3)
    assert _run(*BENCH, "--outdir", str(tmp_path), "--jobs", "5000") == \
        EXIT_OK
    assert climod._pool_map(str, range(5), 5000) == list("01234")
    assert sizes == [2, 3]
    assert _run(*BENCH, "--outdir", str(tmp_path), "--jobs", "0") == \
        EXIT_CONFIG
    assert sizes == [2, 3]


def test_bench_requires_random_generator(tmp_path):
    rc = _run("bench", "--kind", "uniform", "--param", "rho=0.5",
              "--dim", "2", "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("command, kind, param", [
    ("bench", "random", "sigma_max=0.2"),
    ("structure-trial", "tree", "sigma=3.0"),
])
@pytest.mark.parametrize("extra", ["foo=1", "edges=7"])
def test_batch_commands_reject_parameters_they_do_not_read(
        tmp_path, capsys, command, kind, param, extra):
    # each batch command draws its own covariances and reads one parameter
    rc = _run(command, "--kind", kind, "--param", param, "--param", extra,
              "--dim", "3", "-n", "3", "-m", "2", "--sweeps", "1",
              "--seeds", "0", "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG
    assert extra.split("=")[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_structure_trial_outputs(tmp_path):
    rc = _run("structure-trial", "--kind", "tree", "--param", "sigma=3.0",
              "--dim", "4", "-n", "5", "--box", "16", "-m", "3",
              "--chis", "16", "--seeds", "0:2", "--sweeps", "4",
              "--outdir", str(tmp_path))
    assert rc == EXIT_OK
    rows = _read_csv(tmp_path / "recovery.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {"dim", "seed", "chi", "recovered",
                            "reconnections"}
    summary = json.loads((tmp_path / "recovery_summary.json").read_text())
    assert summary["trials"] == 2
    for rate in summary["rates"].values():
        assert 0.0 <= rate <= 1.0


def test_structure_trial_requires_tree_generator(tmp_path):
    rc = _run("structure-trial", "--kind", "random",
              "--param", "sigma_max=0.2", "--dim", "4",
              "--outdir", str(tmp_path))
    assert rc == EXIT_CONFIG


@pytest.mark.skipif(shutil.which("ttnprep") is None,
                    reason="ttnprep console script not on PATH; install the package")
def test_installed_entry_point(tmp_path):
    exe = shutil.which("ttnprep")
    assert exe, "console script not installed"
    proc = subprocess.run(
        [exe, "analyze", "--kind", "uniform", "--param", "rho=0",
         "--dim", "2", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "analyze.csv").exists()


def test_runconfig_defaults_round_trip():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.mode == "qft-ttn"
    assert cfg.structure == "fixed"
    assert cfg.box == 20.0 and cfg.n == 8 and cfg.m == 5
