#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes (about a minute).

Usage, from the root of a checkout: python3 perfbench/selftest.py

It checks that:
1. one run prints every end-to-end metric by name with its unit and
   sample count, and ends with the result JSON;
2. traced runs of every workload leave outputs with the same bytes as
   untraced runs, and report every per-layer metric;
3. a layer function that pcood.cli stops importing reads zero in the
   traced metrics instead of failing the traced command;
4. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits nonzero without printing a result.

Exit code 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import trace_cli
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _shrink() -> None:
    workloads.KSWEEP_POINTS = 2_000
    workloads.SCENE_POINTS = 1_500
    workloads.ORACLE_POINTS = 3_000
    run.MIN_PASSES = 2


def _run(workload: str, trace: int) -> tuple[int, list, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {"correct": False, "failed": -1, "metrics": {}}
    return code, lines, result


def check_end_to_end_report(spec: dict) -> list:
    code, lines, result = _run("oracle", 0)
    problems = [] if code == 0 and result["correct"] else [f"oracle run failed: {lines}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"result lacks {name} in {unit}")
        if not any(line.split()[:1] == [name] and unit in line.split()
                   and "n=" in line for line in lines):
            problems.append(f"no line prints {name} with unit {unit} and sample count")
    return problems


def check_traced_runs(spec: dict) -> list:
    problems = []
    for workload in sorted(workloads.WORKLOADS):
        # The harness compares every traced pass's output digests with the
        # untraced passes', so a byte difference makes the run incorrect.
        code, lines, result = _run(workload, 1)
        if code != 0 or not result["correct"] or result["failed"]:
            failures = [line for line in lines if "FAILED" in line]
            problems.append(f"traced {workload} run failed: {failures or lines[-3:]}")
        missing = {m["name"] for m in spec["per_layer"]} - set(result["metrics"])
        if missing:
            problems.append(f"traced {workload} run lacks {sorted(missing)}")
    return problems


def check_vanished_layer_function() -> list:
    """Trace a k-sweep in-process after cli stops importing `aggregate`."""
    sys.path.insert(0, str(ROOT / "src"))
    from pcood import cli
    from pcood import predictive

    def aggregate(tensor, k):  # defined here, so not a layer import
        return predictive.aggregate(tensor, k)

    saved = dict(vars(cli))
    work = Path(tempfile.mkdtemp(dir=BENCH_DIR / "_work"))
    try:
        cli.aggregate = aggregate
        tracer = trace_cli.Tracer()
        traced = trace_cli.install(tracer, cli)
        argv = ["synth", "tensor", "--points", "300", "--members", "3",
                "--out-id", str(work / "id.pcod"), "--out-ood", str(work / "ood.pcod")]
        with tracer.span("cli.main"):
            code = cli.main(argv)
            code = code or cli.main(["auroc", "--id", str(work / "id.pcod"), "--ood",
                                     str(work / "ood.pcod"), "--k-list", "1,3",
                                     "--out", str(work / "r.txt")])
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)
        shutil.rmtree(work, ignore_errors=True)
    metrics = trace_cli.layer_metrics([{"import_s": 0.0, "spans": tracer.spans}])
    problems = []
    if code != 0:
        problems.append(f"traced commands exited {code}")
    if "predictive.aggregate" in traced:
        problems.append("the replaced aggregate was still traced as a layer call")
    if metrics.get("predictive.aggregate.calls", 0) != 0 or \
            metrics["predictive.aggregate.member_passes"] != 0:
        problems.append("a function cli no longer imports did not read zero")
    if metrics.get("predictive.read_tensor.calls") != 2:
        problems.append("the other layer calls were not traced")
    return problems


def check_fails_without_sources() -> list:
    bare = Path(tempfile.mkdtemp(dir=BENCH_DIR / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "ksweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark did not fail without pcood's sources"]
    return []


def main() -> int:
    _shrink()
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for check in (lambda: check_end_to_end_report(spec),
                  lambda: check_traced_runs(spec),
                  check_vanished_layer_function,
                  check_fails_without_sources):
        problems += check()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
