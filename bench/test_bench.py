"""Tests of the benchmark's own checks and span arithmetic.

Run from the root of the checkout: python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import ttnprep.sim  # noqa: E402
from ttnprep import GridSpec, TreeTensorNetwork, make_covariance  # noqa: E402

GRID = GridSpec(3, 3, 20.0, 2)


@pytest.fixture(scope="module")
def compiled():
    cov = make_covariance("random", 3, sigma_max=0.2, seed=4)
    return ttnprep.sim.compile_circuit(cov, GRID, 2, "qft-gates",
                                       chi_prime=4, sweeps=1)


def test_circuit_checks_pass_on_program_output(compiled):
    circ, rec = compiled
    assert checks.check_circuit(circ, rec, GRID, "qft-gates").problems == []


def test_isometry_check_catches_scaled_placement(compiled):
    circ, rec = compiled
    plc = circ.placements[0]
    matrix = plc.matrix
    plc.matrix = matrix * 1.01
    try:
        problems = checks.check_circuit(circ, rec, GRID, "qft-gates").problems
    finally:
        plc.matrix = matrix
    assert any("not an isometry" in p for p in problems)


def test_cnot_check_catches_count_off_by_one(compiled):
    circ, rec = compiled
    rec = dict(rec, cnot_count=rec["cnot_count"] + 1)
    problems = checks.check_circuit(circ, rec, GRID, "qft-gates").problems
    assert any("record cnot_count" in p for p in problems)


def test_dft_check_catches_conjugated_phases(compiled):
    circ, rec = compiled
    plc = next(p for p in circ.placements if p.kind == "qft")
    matrix = plc.matrix
    plc.matrix = matrix.conj()
    try:
        problems = checks.check_circuit(circ, rec, GRID, "qft-gates").problems
    finally:
        plc.matrix = matrix
    assert any("DFT formula" in p for p in problems)


def test_dft_matrix_is_an_isometry():
    assert checks.isometry_defect(checks.dft_matrix(5, 3)) < 1e-13


def test_tree_check_catches_two_swapped_leaves():
    D = 8
    tree, _, _ = workloads.hidden_tree(D, 0)
    assert checks.same_tree(tree, tree, D)
    # two leaves hanging off different internal vertices
    hub = {leaf: next(v for e in tree for v in e if leaf in e and v != leaf)
           for leaf in range(D)}
    a, b = next((a, b) for a in range(D) for b in range(a + 1, D)
                if hub[a] != hub[b])
    swap = {a: b, b: a}
    swapped = [(swap.get(u, u), swap.get(v, v)) for u, v in tree]
    assert not checks.same_tree(swapped, tree, D)


def test_tree_check_ignores_vertex_names_and_degree_two_vertices():
    # ((0,1),(2,3)) with renamed internal vertices and a pass-through vertex
    a = [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)]
    b = [(0, 9), (1, 9), (9, 7), (7, 8), (2, 8), (3, 8)]
    c = [(0, 4), (2, 4), (4, 5), (1, 5), (3, 5)]
    assert checks.same_tree(a, b, 4)
    assert not checks.same_tree(a, c, 4)


@pytest.fixture(scope="module")
def verified():
    cov = make_covariance("random", 2, sigma_max=0.2, seed=3)
    grid = GridSpec(2, 5, 20.0, 4)
    op = workloads._verify_op("small", cov, grid, 4, "qft-ttn",
                              structure="auto-optimize", sweeps=2)
    return op, op.run(), grid, cov


def test_verify_checks_pass_on_program_output(verified):
    op, out, _, _ = verified
    assert op.check(out).problems == []


def test_target_check_catches_altered_target(verified):
    _, out, grid, cov = verified
    target = out["target"] ** 1.01
    target /= np.linalg.norm(target)
    problems = checks.check_verify(out["record"], target, grid, cov)
    assert any("sqrt-Gaussian" in p for p in problems)


def test_fidelity_check_catches_low_fidelity(verified):
    _, out, grid, cov = verified
    rec = dict(out["record"], simulated_fidelity=0.9)
    problems = checks.check_verify(rec, out["target"], grid, cov)
    assert any("simulated fidelity" in p for p in problems)


def test_self_times_on_nested_trace():
    s = [spans.Span("a", 0.0, 10.0, -1),
         spans.Span("b", 1.0, 4.0, 0),
         spans.Span("c", 2.0, 3.0, 1),
         spans.Span("d", 5.0, 9.0, 0),
         spans.Span("e", 11.0, 12.5, -1)]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_on_synthetic_trace():
    s = [spans.Span("tci.build", 0.0, 10.0, -1),
         spans.Span("tci.blackbox", 1.0, 4.0, 0,
                    {"requested": 100, "evals": 40}),
         spans.Span("fourier.eval", 2.0, 3.0, 1, {"points": 40}),
         spans.Span("ttn.evaluate", 5.0, 6.0, 0),
         spans.Span("ttn.evaluate", 11.0, 12.0, -1)]
    m = spans.layer_metrics(s, operations=2)
    assert m["tci.build_s"] == pytest.approx(3.0)
    assert m["tci.blackbox_s"] == pytest.approx(1.0)
    assert m["fourier.eval_s"] == pytest.approx(0.5)
    assert m["tci.probe_s"] == pytest.approx(0.5)
    assert m["tci.evals"] == 20 and m["tci.requested"] == 50
    assert m["tci.cache_hit_ratio"] == pytest.approx(0.6)
    assert m["tci.builds"] == 0.5
    assert set(m) | {"trace.instance_s", "trace.overhead_s",
                     "trace.spans"} == set(spans.LAYER_METRICS)


def test_tracer_records_pipeline_and_restores_names(compiled):
    circ, _ = compiled
    before = (ttnprep.sim.tci_build, TreeTensorNetwork.evaluate)
    cov = make_covariance("random", 3, sigma_max=0.2, seed=4)
    tracer = spans.Tracer()
    with tracer.installed():
        again, _ = ttnprep.sim.compile_circuit(cov, GRID, 2, "qft-gates",
                                               chi_prime=4, sweeps=1)
    assert (ttnprep.sim.tci_build, TreeTensorNetwork.evaluate) == before
    m = spans.layer_metrics(tracer.spans, operations=1)
    assert m["tci.builds"] == 1
    assert m["circuit.placements"] == len(circ.placements)
    assert m["tci.evals"] == m["fourier.eval_points"] > 0
    names = {s.name for s in tracer.spans}
    assert {"tci.blackbox", "tci.maxvol", "fourier.evaluator",
            "circuit.synthesize"} <= names


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compile-d16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["per_layer"]} == set(spans.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
