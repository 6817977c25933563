#!/usr/bin/env python3
"""pcood's benchmark: one workload, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ksweep,scene,oracle} --seed N \
        --seconds S --trace {0,1}

Every pcood call is a fresh `python -m pcood` subprocess with
PYTHONPATH=src, so start-up and import are paid on every call, as a user
pays them. Each child's CPU time and peak RSS come from os.wait4.

A run:
1. times a fixed pure-Python loop (the noise probe; reported, never used
   to rescale anything);
2. writes the workload's text inputs from the seed;
3. sets up several times: a start-up probe (`python -m pcood --help`)
   plus the workload's fixture commands; `setup_s` is the median;
4. runs the workload's command sequence once, untimed, with the other
   worker count;
5. repeats the sequence within --seconds (at least MIN_PASSES times); with
   --trace 1 each untraced pass is followed by a pass through
   trace_cli.py, which records spans around every call from pcood.cli
   into the layer modules;
6. checks that every output file has the same bytes after every pass,
   traced or not, and with either worker count, and recomputes the
   workload's key numbers independently (workloads.py).

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` pcood invocations, and the metrics that
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). A failed invocation is a nonzero exit or an output that
differs from the reference bytes, which the first invocation to write
that file set; if the independent check rejects the
outputs, every invocation counts as failed. The exit code is 0 only when
the run is correct. A full record of the run goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import trace_cli
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

MIN_PASSES = 3
# A run must end within a few minutes even when pcood gets much slower: a
# command is killed (and counts as failed) after COMMAND_TIMEOUT_S, and no
# pass starts LAST_PASS_START_S after the run began, whatever MIN_PASSES says.
COMMAND_TIMEOUT_S = 60.0
LAST_PASS_START_S = 90.0
NOISE_PROBE_STEPS = 2_000_000
# Commands whose wall time and peak RSS are reported per command.
CLI_COMMANDS = sorted({c.name for w in WORKLOADS.values() for c in w.commands(0, 1)})


def noise_probe() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(NOISE_PROBE_STEPS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Runs pcood invocations in one fixture directory and keeps the tally."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failures = []
        # Output name -> the sha256 every later invocation must reproduce.
        self.reference = {}

    def run(self, argv, trace_path: Path | None = None) -> dict:
        if trace_path is None:
            cmd = [sys.executable, "-m", "pcood", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"),
                   str(trace_path), *argv]
        self.attempted += 1
        with open(self.work / "stderr.log", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / "stderr.log").read_text(errors="replace")[-400:]
            self.failures.append(f"{' '.join(argv)} exited {proc.returncode}: {tail}")
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0, "rc": proc.returncode}

    def run_sequence(self, commands, trace_dir: Path | None = None) -> list:
        """Run commands in order, stopping at the first failed one.

        Returns one sample per command run, each with its name and, when
        traced, its loaded span file.
        """
        samples = []
        for i, command in enumerate(commands):
            trace_path = None if trace_dir is None else trace_dir / f"{i}.json"
            sample = self.run(command.argv, trace_path)
            sample["command"] = command.name
            samples.append(sample)
            if sample["rc"] != 0 or not self._outputs_match(command):
                break
            if trace_path is not None:
                sample["trace"] = json.loads(trace_path.read_text())
                trace_path.unlink()
        return samples

    def _outputs_match(self, command) -> bool:
        for name in command.outputs:
            digest = sha256(self.work / name)
            expected = self.reference.setdefault(name, digest)
            if digest is None or digest != expected:
                self.failures.append(f"{command.name}: {name} differs from the "
                                     f"reference bytes ({digest} != {expected})")
                return False
        return True


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    last_start = time.perf_counter() + LAST_PASS_START_S
    runner = Runner(work)
    noise_s = noise_probe()
    workload.write_inputs(work, seed)

    setups = []
    for _ in range(workload.setups):
        samples = [runner.run(["--help"])]
        samples += runner.run_sequence(workload.fixture(seed))
        setups.append(samples)

    # An untimed warm-up pass with the other worker count sets the reference
    # bytes, so every timed pass also checks worker-count independence.
    if not runner.failures:
        runner.run_sequence(workload.commands(seed, workload.other_workers))

    passes, traced_passes = [], []
    commands = workload.commands(seed, workload.workers)
    trace_dir = work / "spans"
    trace_dir.mkdir()
    # A pass starts only if one more like the last ends by the deadline.
    deadline = time.perf_counter() + seconds
    step_s = 0.0
    while not runner.failures and time.perf_counter() < last_start and (
            len(passes) < MIN_PASSES or time.perf_counter() + step_s <= deadline):
        start = time.perf_counter()
        passes.append(runner.run_sequence(commands))
        if trace:
            traced_passes.append(runner.run_sequence(commands, trace_dir))
        step_s = time.perf_counter() - start

    problems = []
    if not runner.failures:
        try:
            problems = workload.check(work)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output check could not read the outputs: {exc!r}"]
    failed = runner.attempted if problems else len(runner.failures)

    # Each metric is the median of its samples; `counts` keeps how many.
    metrics, counts = {}, {}

    def put(name, samples):
        metrics[name], counts[name] = _median(samples), len(samples)

    walls = [sum(s["wall_s"] for s in p) for p in passes]
    put("wall_s", walls)
    put("cpu_s", [sum(s["cpu_s"] for s in p) for p in passes])
    put("peak_rss_mib", [max(s["rss_mib"] for s in p) for p in passes])
    put("setup_s", [sum(s["wall_s"] for s in p) for p in setups])
    put("cli.startup_s", [p[0]["wall_s"] for p in setups])
    put("machine.noise_probe_s", [noise_s])
    metrics["ops_failed_ratio"] = failed / runner.attempted
    counts["ops_failed_ratio"] = runner.attempted
    for name in CLI_COMMANDS:
        for key, stat in (("wall_s", "wall_s"), ("peak_rss_mib", "rss_mib")):
            put(f"cli.{name}.{key}",
                [sum(s[stat] for s in p if s["command"] == name) for p in passes])

    shares = []
    complete = [p for p in traced_passes if all("trace" in s for s in p)
                and len(p) == len(commands)]
    if complete:
        per_pass = [trace_cli.layer_metrics([s["trace"] for s in p]) for p in complete]
        for key in set().union(*per_pass):
            if key not in metrics:
                put(key, [m.get(key, 0.0) for m in per_pass])
        traced_walls = [sum(s["wall_s"] for s in p) for p in complete]
        metrics["trace.overhead_ratio"] = _median(traced_walls) / _median(walls) - 1.0
        counts["trace.overhead_ratio"] = len(complete)
        for i, command in enumerate(commands):
            traces = [p[i]["trace"] for p in complete]
            layer_shares = [trace_cli.layer_shares(t) for t in traces]
            shares.append({
                "command": command.name,
                "main_s": _median([trace_cli.command_totals(t)["cli.main_s"]
                                   for t in traces]),
                "shares": {layer: _median([s.get(layer, 0.0) for s in layer_shares])
                           for layer in trace_cli.LAYER_MODULES},
                "counts_errors": sorted({sp["counts_error"] for t in traces
                                         for sp in t["spans"] if "counts_error" in sp}),
            })

    return {
        "correct": not runner.failures and not problems and bool(passes),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": counts,
        "passes": len(passes),
        "traced_passes": len(complete),
        "problems": problems,
        "failures": runner.failures,
        "walls": walls,
        "layer_shares": shares,
        "samples": {"setups": setups, "passes": passes},
    }


def machine_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "page_cache": "warm (never dropped)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcood" / "cli.py").is_file():
        print(f"error: no pcood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # On SIGTERM, unwind through the finally blocks that kill the running
    # pcood child and delete the fixtures.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    scratch = BENCH_DIR / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        record = measure(workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A layer function no pcood command called (or no longer imports) reads
    # 0, and so does every metric a failed run could not measure.
    for m in wanted:
        if m["name"].split(".")[0] in trace_cli.LAYER_MODULES or not record["correct"]:
            record["metrics"].setdefault(m["name"], 0.0)
            record["counts"].setdefault(m["name"], record["traced_passes"])
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        print(f"error: the run did not produce {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    machine = machine_block()
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "workload": workload.name,
                    "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    **record}, indent=1))

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={record['passes']} traced_passes="
          f"{record['traced_passes']} setups={workload.setups} noise_probe_s="
          f"{record['metrics']['machine.noise_probe_s']:.3f}")
    for m in wanted:
        print(f"  {m['name']:<44} {record['metrics'][m['name']]:>14.6g} "
              f"{m['unit']:<6} n={record['counts'][m['name']]}")
    walls = record["walls"]
    if walls:
        print(f"  wall_s per pass: median={_median(walls):.4f} "
              f"min={min(walls):.4f} max={max(walls):.4f}")
    for entry in record["layer_shares"]:
        split = ", ".join(f"{k} {v:.0%}" for k, v in entry["shares"].items() if v)
        print(f"  traced {entry['command']}: {entry['main_s']:.3f} s in cli.main; {split}")
        for error in entry["counts_errors"]:
            print(f"  warning: {entry['command']}: counts not taken: {error}")
    for line in record["failures"] + record["problems"]:
        print(f"  FAILED: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
