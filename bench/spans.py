"""Spans around the calls into each ttnprep layer, recorded from outside.

A Tracer replaces the public names the pipeline calls through with
wrappers that record a span per call: its name, start, end and parent.
Spans stay in memory; the per-layer metrics are derived from them when
the run ends. No file of the program changes, and the wrappers are
removed when the traced block ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import ttnprep.sim
import ttnprep.structopt
import ttnprep.tci
from ttnprep import BlackBoxTensor, FourierEvaluator, TreeTensorNetwork


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                     # index of the enclosing span, -1 if none
    counts: dict = field(default_factory=dict)


def _blackbox_before(a, k):
    return a[0].evals


def _blackbox_counts(before, a, k, out):
    return {"requested": len(out), "evals": a[0].evals - before}


def _eval_points(before, a, k, out):
    return {"points": len(out)}


def _reconnect_counts(before, a, k, out):
    return {"attempts": out is not None,
            "accepted": out is not None and out.accepted}


def _synth_counts(before, a, k, out):
    return {"placements": len(out[0].placements)}


def _dft_counts(before, a, k, out):
    return {"placements": len(out.placements) - len(a[0].placements)}


def _sim_counts(before, a, k, out):
    circ = a[0]
    return {"placements": len(circ.placements),
            "state_bytes": out.amplitudes.nbytes}


def _no_counts(before, a, k, out):
    return {}


# (owner, attribute, span name, counters from the call, the state before
# it that the counters need)
TARGETS = (
    (ttnprep.sim, "tci_build", "tci.build", _no_counts, None),
    (ttnprep.sim, "compose_and_compress", "circuit.compose", _no_counts, None),
    (ttnprep.sim, "qubitize", "circuit.qubitize", _no_counts, None),
    (ttnprep.sim, "synthesize", "circuit.synthesize", _synth_counts, None),
    (ttnprep.sim, "with_inverse_dft", "circuit.inverse_dft", _dft_counts,
     None),
    (ttnprep.sim, "simulate", "sim.simulate", _sim_counts, None),
    (ttnprep.sim, "exact_target", "fourier.target", _no_counts, None),
    (ttnprep.sim, "fsl_state", "fourier.target", _no_counts, None),
    (ttnprep.sim, "optimize_structure", "structopt.optimize", _no_counts,
     None),
    (ttnprep.structopt, "local_reconnect", "structopt.reconnect",
     _reconnect_counts, None),
    (ttnprep.tci, "maxvol", "tci.maxvol", _no_counts, None),
    (ttnprep.tci, "solve", "tci.solve", _no_counts, None),
    (BlackBoxTensor, "__call__", "tci.blackbox", _blackbox_counts,
     _blackbox_before),
    (FourierEvaluator, "__init__", "fourier.evaluator", _no_counts, None),
    (FourierEvaluator, "eval_indices", "fourier.eval", _eval_points, None),
    (TreeTensorNetwork, "evaluate", "ttn.evaluate", _no_counts, None),
    (TreeTensorNetwork, "truncate", "ttn.truncate", _no_counts, None),
    (TreeTensorNetwork, "canonicalize", "ttn.canonicalize", _no_counts,
     None),
)


class Tracer:
    """Collects spans from the wrapped calls of one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=_no_counts, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counts = counts(token, args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore on exit."""
        saved = []
        try:
            for owner, attr, name, counts, before in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counts, before))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.counts]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "counts"], "spans": rows}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.
    Spans of one thread nest, so children of a span never overlap."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _under(spans, i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# per-layer metric -> (unit, better)
LAYER_METRICS = {
    "tci.build_s": ("s", "lower"),
    "tci.blackbox_s": ("s", "lower"),
    "tci.evals": ("count", "lower"),
    "tci.requested": ("count", "lower"),
    "tci.cache_hit_ratio": ("ratio", "higher"),
    "tci.maxvol_s": ("s", "lower"),
    "tci.maxvol_calls": ("count", "lower"),
    "tci.solve_s": ("s", "lower"),
    "tci.solve_calls": ("count", "lower"),
    "tci.probe_s": ("s", "lower"),
    "tci.builds": ("count", "lower"),
    "fourier.evaluator_s": ("s", "lower"),
    "fourier.evaluators": ("count", "lower"),
    "fourier.eval_s": ("s", "lower"),
    "fourier.eval_points": ("count", "lower"),
    "fourier.target_s": ("s", "lower"),
    "structopt.reconnect_s": ("s", "lower"),
    "structopt.walk_s": ("s", "lower"),
    "structopt.attempts": ("count", "lower"),
    "structopt.accepted": ("count", "lower"),
    "ttn.truncate_s": ("s", "lower"),
    "ttn.canonicalize_s": ("s", "lower"),
    "circuit.compose_s": ("s", "lower"),
    "circuit.qubitize_s": ("s", "lower"),
    "circuit.synthesize_s": ("s", "lower"),
    "circuit.inverse_dft_s": ("s", "lower"),
    "circuit.placements": ("count", "lower"),
    "sim.simulate_s": ("s", "lower"),
    "sim.placements": ("count", "lower"),
    "sim.bytes_moved": ("B-computed", "lower"),
    "trace.instance_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# metric -> span name whose self time it sums
_SELF_TIME = {
    "tci.build_s": "tci.build", "tci.blackbox_s": "tci.blackbox",
    "tci.maxvol_s": "tci.maxvol", "tci.solve_s": "tci.solve",
    "fourier.evaluator_s": "fourier.evaluator",
    "fourier.eval_s": "fourier.eval", "fourier.target_s": "fourier.target",
    "structopt.reconnect_s": "structopt.reconnect",
    "structopt.walk_s": "structopt.optimize",
    "ttn.truncate_s": "ttn.truncate",
    "ttn.canonicalize_s": "ttn.canonicalize",
    "circuit.compose_s": "circuit.compose",
    "circuit.qubitize_s": "circuit.qubitize",
    "circuit.synthesize_s": "circuit.synthesize",
    "circuit.inverse_dft_s": "circuit.inverse_dft",
    "sim.simulate_s": "sim.simulate",
}

# metric -> number of spans of that name
_CALLS = {
    "tci.maxvol_calls": "tci.maxvol", "tci.solve_calls": "tci.solve",
    "tci.builds": "tci.build", "fourier.evaluators": "fourier.evaluator",
}

# metric -> (span name, counter summed over its spans)
_COUNTERS = {
    "tci.evals": ("tci.blackbox", "evals"),
    "tci.requested": ("tci.blackbox", "requested"),
    "fourier.eval_points": ("fourier.eval", "points"),
    "structopt.attempts": ("structopt.reconnect", "attempts"),
    "structopt.accepted": ("structopt.reconnect", "accepted"),
    "sim.placements": ("sim.simulate", "placements"),
}


def layer_metrics(spans, operations: int) -> dict:
    """Per-layer metrics per operation from the spans of `operations`
    traced operations. The trace.* metrics are left to the caller."""
    own = self_times(spans)
    out = {}
    for metric, name in _SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s.name == name)
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for metric, (name, key) in _COUNTERS.items():
        out[metric] = sum(int(s.counts.get(key, 0)) for s in spans
                          if s.name == name)
    out["tci.probe_s"] = sum(
        t for i, (s, t) in enumerate(zip(spans, own))
        if s.name == "ttn.evaluate" and _under(spans, i, "tci.build"))
    out["circuit.placements"] = sum(
        int(s.counts.get("placements", 0)) for s in spans
        if s.name in ("circuit.synthesize", "circuit.inverse_dft"))
    # computed, not measured: each placement moves the whole state into
    # place and back, one read and one write of every amplitude each way
    out["sim.bytes_moved"] = sum(
        4 * s.counts["placements"] * s.counts["state_bytes"]
        for s in spans if s.name == "sim.simulate")
    requested = out["tci.requested"]
    out["tci.cache_hit_ratio"] = (1.0 - out["tci.evals"] / requested
                                  if requested else 0.0)
    per_op = {k: v / operations for k, v in out.items()
              if k != "tci.cache_hit_ratio"}
    per_op["tci.cache_hit_ratio"] = out["tci.cache_hit_ratio"]
    return per_op
