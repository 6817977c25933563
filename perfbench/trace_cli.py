"""Run one pcood command with a span around every call into its layers.

Usage: python perfbench/trace_cli.py SPANS.json PCOOD-ARGS...

This script imports pcood.cli, replaces each name that pcood.cli imported
from a layer module (pcood.predictive, scores, evaluation, pointcloud and
synth; classes such as PredictiveTensor included, enums excluded) with a
wrapper that records a span, and then calls cli.main(argv). pcood itself is
not changed, so its outputs have the same bytes as an untraced run. Spans
stay in memory and go to SPANS.json when the command ends.

A span records its name, id, parent id, thread, start and end, plus counts
taken from the call's arguments and result: bytes moved through file
arguments, points handled, and the members averaged. `layer_metrics` turns
the span files of one run of a workload into per-layer numbers; it is
imported by the harness, which does not import pcood.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYER_MODULES = ("predictive", "scores", "evaluation", "pointcloud", "synth")


def _size(array) -> int:
    return int(getattr(array, "size", 0))


# Counts recorded per layer function, from its bound arguments and result.
_COUNTS = {
    "PredictiveTensor": lambda a, r: {"nbytes": r.values.nbytes},
    # read_tensor validates what it reads once, inside PredictiveTensor.
    "read_tensor": lambda a, r: {"nbytes": r.values.nbytes, "points": r.n_points},
    "aggregate": lambda a, r: {"points": a["tensor"].n_points, "k": a["k"]},
    "score_distribution": lambda a, r: {"points": len(r)},
    "exact_auroc": lambda a, r: {"points": _size(a["id_scores"]) + _size(a["ood_scores"])},
    "hist_accumulate": lambda a, r: {
        "points": _size(getattr(a["scores"], "scores", a["scores"]))},
    "parse_semantic3d": lambda a, r: {"points": len(r)},
    "write_idood_map": lambda a, r: {"points": len(a["cloud"])},
}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None:
            parent = stack[-1] if stack else 0
        record = {"name": name, "id": next(self._ids), "parent": parent,
                  "thread": threading.get_ident(), "start": time.perf_counter()}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)


def _traced(tracer: Tracer, layer: str, fn):
    name = getattr(fn, "__name__", repr(fn))
    signature = inspect.signature(fn)
    counts = _COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        streams = [v for v in bound.values() if callable(getattr(v, "tell", None))]
        with tracer.span(f"{layer}.{name}") as record:
            before = [s.tell() for s in streams]
            result = fn(*args, **kwargs)
            if streams:
                record["bytes"] = sum(s.tell() - b for s, b in zip(streams, before))
        if counts is not None:
            # A changed signature must not fail the traced command; its
            # counts then read zero and the harness reports the error.
            try:
                record.update(counts(bound, result))
            except (KeyError, AttributeError, TypeError) as exc:
                record["counts_error"] = f"{type(exc).__name__}: {exc}"
        return result

    return traced


def _traced_shards(tracer: Tracer, run_shards):
    @functools.wraps(run_shards)
    def traced(fn, *args, **kwargs):
        with tracer.span("cli.run_shards") as group:
            def shard(*shard_args):
                with tracer.span("cli.shard", parent=group["id"]):
                    return fn(*shard_args)
            return run_shards(shard, *args, **kwargs)

    return traced


def install(tracer: Tracer, module) -> list:
    """Wrap the layer callables `module` imported; return the span names.

    Names are found by scanning the module, so a layer function that the
    CLI stops importing is simply not traced and its metrics read zero.
    """
    names = []
    for attr, value in list(vars(module).items()):
        package, _, layer = (getattr(value, "__module__", None) or "").rpartition(".")
        if package != "pcood" or layer not in LAYER_MODULES or not callable(value):
            continue
        if isinstance(value, type) and issubclass(value, enum.Enum):
            continue
        setattr(module, attr, _traced(tracer, layer, value))
        names.append(f"{layer}.{value.__name__}")
    if callable(getattr(module, "_run_shards", None)):
        module._run_shards = _traced_shards(tracer, module._run_shards)
    return names


def main(argv) -> int:
    out_path, pcood_argv = argv[0], argv[1:]
    start = time.perf_counter()
    from pcood import cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    traced = install(tracer, cli)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = cli.main(pcood_argv)
    finally:
        with open(out_path, "w") as f:
            json.dump({"argv": pcood_argv, "exit_code": code, "import_s": import_s,
                       "traced": traced, "spans": tracer.spans}, f)
    return code


# ---------------------------------------------------------------------------
# Reduction, run by the harness
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def command_totals(trace: dict) -> dict:
    """Sums over the spans of one command: `<layer>.<function>.<stat>` and cli stats."""
    totals = defaultdict(float)
    spans = trace["spans"]
    main_span = next(s for s in spans if s["name"] == "cli.main")
    layer_intervals = []
    groups = defaultdict(list)
    for s in spans:
        duration = s["end"] - s["start"]
        if s["name"] == "cli.shard":
            groups[s["parent"]].append(duration)
            continue
        if s["name"].split(".")[0] not in LAYER_MODULES:
            continue
        layer_intervals.append((s["start"], s["end"]))
        totals[f"{s['name']}.s"] += duration
        totals[f"{s['name']}.calls"] += 1
        for stat in ("bytes", "points", "nbytes"):
            if stat in s:
                totals[f"{s['name']}.{stat}"] += s[stat]
        if s["name"] == "predictive.aggregate":
            totals["predictive.aggregate.member_points"] += s["k"] * s["points"]
            totals["predictive.aggregate.max_k"] = max(
                totals["predictive.aggregate.max_k"], s["k"])
    main_s = main_span["end"] - main_span["start"]
    totals["cli.main_s"] = main_s
    totals["cli.self_s"] = main_s - _union_length(layer_intervals)
    totals["cli.import_s"] = trace["import_s"]
    totals["cli.shard_tasks"] = sum(len(d) for d in groups.values())
    totals["cli.shard_max_s"] = sum(max(d) for d in groups.values())
    totals["cli.shard_mean_s"] = sum(sum(d) / len(d) for d in groups.values())
    # A k-sweep needs only its largest k in member passes over each tensor read.
    totals["predictive.aggregate.useful_points"] = (
        totals["predictive.read_tensor.points"] * totals["predictive.aggregate.max_k"])
    return dict(totals)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one pass over a workload's command sequence.

    Times, bytes and counts are summed over the commands; the ratios are
    taken of those sums. A ratio whose base is zero (no tensor read, no
    shard run) reads 0.
    """
    totals = defaultdict(float)
    for trace in traces:
        for key, value in command_totals(trace).items():
            totals[key] += value
    t = totals
    t["predictive.validated_bytes_per_read_byte"] = _ratio(
        t["predictive.PredictiveTensor.nbytes"] + t["predictive.read_tensor.nbytes"],
        t["predictive.read_tensor.nbytes"])
    t["predictive.aggregate.member_passes"] = _ratio(
        t["predictive.aggregate.member_points"], t["predictive.read_tensor.points"])
    t["predictive.aggregate.useful_pass_ratio"] = _ratio(
        t["predictive.aggregate.useful_points"], t["predictive.aggregate.member_points"])
    t["cli.shard_skew"] = _ratio(t["cli.shard_max_s"], t["cli.shard_mean_s"])
    return dict(t)


def layer_shares(trace: dict) -> dict:
    """Share of one command's main span covered by each layer module's spans.

    Spans of one module on several threads count once where they overlap,
    so a share never exceeds 1.
    """
    spans = trace["spans"]
    main_span = next(s for s in spans if s["name"] == "cli.main")
    intervals = defaultdict(list)
    for s in spans:
        intervals[s["name"].split(".")[0]].append((s["start"], s["end"]))
    main_s = main_span["end"] - main_span["start"]
    return {layer: _union_length(intervals[layer]) / main_s
            for layer in LAYER_MODULES if layer in intervals}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
