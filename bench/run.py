"""Benchmark of the ttnprep pipeline on three seeded workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload compile-d16 --seed 0 --seconds 30 --trace 0

Workloads are listed in workloads.py and explained in bench/README.md.
The run imports ttnprep from src/ of the checkout, builds its inputs
from --seed, and repeats whole rounds of the same operations while the
measured time lasts. Every operation's output is checked outside the
timed region. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, timed untraced. With --trace 1 untraced and traced rounds alternate, and the
metrics are the per-layer ones, taken from spans recorded around the
calls into each module, plus the tracing overhead. Each run also writes
its record (and with --trace 1 its spans) under bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("compile-d16", "auto-d8", "verify-d4")
E2E_UNITS = {"setup_s": "s", "instance_s": "s", "cnot_count": "count",
             "depth": "count", "peak_rss_mb": "MB"}

# a fresh interpreter imports the package and generates one run's inputs
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.WORKLOADS[sys.argv[3]].make_operations("
              "int(sys.argv[4]))")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_info() -> list:
    """Thread count and build of every OpenBLAS loaded in this process
    (numpy and scipy each bring their own)."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        row = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in row:
                    threads.restype = ctypes.c_int
                    row["threads"] = threads()
                if config is not None and "config" not in row:
                    config.restype = ctypes.c_char_p
                    row["config"] = config().decode()
        out.append(row)
    return out


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_info(),
            "thread_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}}


def measure_setup(workload: str, seed: int) -> list:
    """Wall seconds of SETUP_REPEATS fresh interpreters that import
    ttnprep and generate the run's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE),
                        str(SRC), workload, str(seed)], check=True,
                       cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_round(ops, problems) -> tuple[list, int, list]:
    """Run every operation once; check each output after its timing."""
    times, failed, records = [], 0, []
    for op in ops:
        t0 = time.perf_counter()
        out = op.run()
        times.append(time.perf_counter() - t0)
        outcome = op.check(out)
        failed += outcome.failed
        problems += [f"{op.name}: {p}" for p in outcome.problems]
        records.append(out["record"])
    return times, failed, records


def measure(ops, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds while the next one is expected to end near the
    time limit. Without a tracer every round is untraced; with one,
    untraced and traced rounds alternate, untraced first."""
    rounds = {"plain": [], "traced": []}
    failed, problems, records = 0, [], None
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds["plain"]) > len(
            rounds["traced"])
        if traced:
            with tracer.installed():
                times, nfail, recs = run_round(ops, problems)
        else:
            times, nfail, recs = run_round(ops, problems)
        rounds["traced" if traced else "plain"].append(times)
        failed += nfail
        records = records or recs
        done = len(rounds["plain"]) + len(rounds["traced"])
        elapsed = time.perf_counter() - t_start
        if tracer is not None and not rounds["traced"]:
            continue
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    return {"rounds": rounds, "failed": failed, "problems": problems,
            "records": records, "elapsed": elapsed}


def instance_seconds(rounds) -> float:
    """Median over rounds of the mean wall seconds per operation."""
    return statistics.median(statistics.mean(times) for times in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttnprep" / "__init__.py").is_file():
        print(f"run.py: no ttnprep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    import spans

    wl = workloads.WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed)
    ops = wl.make_operations(args.seed)
    wl.warm_up()
    tracer = spans.Tracer() if args.trace else None
    res = measure(ops, args.seconds, tracer)

    plain_s = instance_seconds(res["rounds"]["plain"])
    recs = res["records"]
    if args.trace:
        traced_ops = len(ops) * len(res["rounds"]["traced"])
        metrics = spans.layer_metrics(tracer.spans, traced_ops)
        traced_s = instance_seconds(res["rounds"]["traced"])
        metrics["trace.instance_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.spans"] = len(tracer.spans) / traced_ops
        metrics = {k: metrics[k] for k in spans.LAYER_METRICS}
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "instance_s": plain_s,
            "cnot_count": sum(r["cnot_count"] for r in recs),
            "depth": sum(r["depth"] for r in recs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS

    attempted = len(ops) * sum(len(r) for r in res["rounds"].values())
    result = {"correct": not res["problems"], "attempted": attempted,
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    info = {"workload": args.workload, "params": wl.params,
            "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "operations": [op.name for op in ops], "setup_runs_s": setup,
            "operation_s": res["rounds"], "elapsed_s": res["elapsed"],
            "problems": res["problems"], "machine": machine_info(),
            "rusage": _rusage(),
            "records": [_plain(r) for r in recs], "result": result}
    if "simulated_fidelity" in recs[0]:
        info["sim_fidelity"] = statistics.mean(
            r["simulated_fidelity"] / r["fourier_fidelity"] for r in recs)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(info, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    blas = ", ".join(f"{b['library']}={b.get('threads')}"
                     for b in info["machine"]["blas"])
    print(f"# {args.workload} seed {args.seed}: {len(ops)} operations per "
          f"round, nproc {info['machine']['nproc']}, BLAS threads {blas}"
          + (f", sim_fidelity {info['sim_fidelity']:.8f}"
             if "sim_fidelity" in info else ""))
    print(json.dumps(result))
    return 0


def _rusage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "minor_faults": ru.ru_minflt, "max_rss_kb": ru.ru_maxrss}


def _plain(record: dict) -> dict:
    """A build record without the fields JSON cannot hold."""
    return {k: v for k, v in record.items()
            if isinstance(v, (bool, int, float, str, list)) or v is None}


if __name__ == "__main__":
    sys.exit(main())
