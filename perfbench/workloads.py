"""The benchmark's three workloads: inputs, command sequences and output checks.

Each workload is a fixed sequence of pcood invocations. Every command runs
with its working directory set to the workload's fixture directory and is
given relative file names, so the reports (which record input paths) have
the same bytes whatever directory the benchmark runs in.

The output checks recompute each workload's key numbers from the raw files
with numpy and scipy alone: they read the PCOD layout and the text formats
themselves and never call into pcood, so a bug in pcood's own code path
cannot vouch for itself.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import rankdata

K_SWEEP = (1, 5, 10, 15, 20)
KSWEEP_POINTS = 100_000
# At pcood's default separability of 3.0 the k=15 and k=20 AUROCs are
# exactly 1.0, so a wrong ranking could not be told from a right one. At
# 1.0 every row of the sweep stays strictly inside (0.5, 1).
KSWEEP_SEPARABILITY = 1.0

SCENE_POINTS = 100_000
SCENE_MEMBERS = 4
CLASSES = 8

ORACLE_POINTS = 300_000
# Five standard errors of the sampled AUROC: a correct run fails this by
# chance about once in 1.7 million runs.
ORACLE_SIGMAS = 5.0

_PCOD_HEADER = struct.Struct("<4sHBBQHH")


@dataclass(frozen=True)
class Command:
    """One pcood invocation and the files it must leave behind."""

    name: str
    argv: tuple
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    # Inputs the benchmark writes itself from the seed (untimed).
    write_inputs: Callable[[Path, int], None]
    # The pcood commands one set-up runs before the timed loop.
    fixture: Callable[[int], list]
    # The timed command sequence for a given worker count.
    commands: Callable[[int, int], list]
    workers: int
    check: Callable[[Path], list]
    # Set-ups per run; setup_s is their median.
    setups: int

    @property
    def other_workers(self) -> int:
        """The worker count of the warm-up pass that checks worker independence."""
        return 2 if self.workers == 1 else 1


# ---------------------------------------------------------------------------
# Independent readers
# ---------------------------------------------------------------------------

def read_pcod(path: Path) -> np.ndarray:
    """The (K, N, C) float32 payload of a PCOD file, read from its layout."""
    raw = path.read_bytes()
    magic, version, _kind, _reserved, n, c, k = _PCOD_HEADER.unpack_from(raw)
    if magic != b"PCOD" or version != 1:
        raise ValueError(f"{path.name}: not a version-1 PCOD file")
    if len(raw) != _PCOD_HEADER.size + 4 * k * n * c:
        raise ValueError(f"{path.name}: payload size does not match the header")
    return np.frombuffer(raw, dtype="<f4", offset=_PCOD_HEADER.size).reshape(k, n, c)


def member_means(values: np.ndarray, ks) -> dict:
    """Mean of the first k members for each k, summed member by member in float64."""
    acc = np.zeros(values.shape[1:], dtype=np.float64)
    means = {}
    for m in range(max(ks)):
        acc += values[m]
        if m + 1 in ks:
            means[m + 1] = acc / float(m + 1)
    return means


def read_report(path: Path) -> dict:
    """key=value lines (reports) or '# key=value' lines (ROC CSV metadata)."""
    entries = {}
    for line in path.read_text().splitlines():
        body = line[1:].strip() if line.startswith("#") else line
        if "=" in body:
            key, _, value = body.partition("=")
            entries[key] = value
    return entries


def read_score_csv(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if lines[0] != "index,score":
        raise ValueError(f"{path.name}: bad header {lines[0]!r}")
    return np.array([float(line.partition(",")[2]) for line in lines[1:]])


def rank_auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Mann-Whitney AUROC from average ranks, ties credited one half.

    Average ranks are multiples of 1/2, so twice the OOD rank sum is an
    exact integer and the quotient is rounded once.
    """
    n, m = id_scores.size, ood_scores.size
    ranks = rankdata(np.concatenate([id_scores, ood_scores]))
    twice_rank_sum = int(round(2.0 * float(ranks[n:].sum())))
    return (twice_rank_sum - m * (m + 1)) / (2 * n * m)


# ---------------------------------------------------------------------------
# ksweep: the paper's ensemble-size sweep
# ---------------------------------------------------------------------------

def _ksweep_fixture(seed: int) -> list:
    return [Command("synth", (
        "synth", "tensor", "--points", str(KSWEEP_POINTS), "--classes",
        str(CLASSES), "--members", str(max(K_SWEEP)), "--separability",
        repr(KSWEEP_SEPARABILITY), "--seed", str(seed), "--out-id", "id.pcod",
        "--out-ood", "ood.pcod", "--workers", "2"), ("id.pcod", "ood.pcod"))]


def _ksweep_commands(seed: int, workers: int) -> list:
    return [Command("auroc", (
        "auroc", "--id", "id.pcod", "--ood", "ood.pcod", "--kind", "msp",
        "--k-list", ",".join(map(str, K_SWEEP)), "--mode", "exact",
        "--workers", str(workers), "--out", "ksweep.txt"), ("ksweep.txt",))]


def _ksweep_check(work: Path) -> list:
    report = read_report(work / "ksweep.txt")
    id_means = member_means(read_pcod(work / "id.pcod"), K_SWEEP)
    ood_means = member_means(read_pcod(work / "ood.pcod"), K_SWEEP)
    problems = []
    for k in K_SWEEP:
        expected = rank_auroc(1.0 - id_means[k].max(axis=1),
                              1.0 - ood_means[k].max(axis=1))
        got = float(report[f"auroc_k{k}"])
        if abs(got - expected) > 1e-12:
            problems.append(f"auroc_k{k}={got!r}, rank recount gives {expected!r}")
        if not 0.5 < got < 1.0:
            problems.append(f"auroc_k{k}={got!r} is saturated or below chance")
    return problems


# ---------------------------------------------------------------------------
# scene: one scan through roc, map and iou
# ---------------------------------------------------------------------------

def _scene_inputs(work: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    n = SCENE_POINTS
    xyz = rng.integers(-50_000, 50_000, size=(n, 3)) / 1000.0
    intensity = rng.integers(-2048, 2048, size=n)
    rgb = rng.integers(0, 256, size=(n, 3))
    with open(work / "cloud.txt", "w") as f:
        for (x, y, z), i, (r, g, b) in zip(xyz.tolist(), intensity.tolist(),
                                           rgb.tolist()):
            f.write(f"{x:.3f} {y:.3f} {z:.3f} {i} {r} {g} {b}\n")
    labels = rng.integers(0, CLASSES + 1, size=n)
    (work / "labels.txt").write_text("\n".join(map(str, labels.tolist())) + "\n")


def _scene_commands(seed: int, workers: int) -> list:
    w = ("--workers", str(workers))
    return [
        Command("synth", ("synth", "tensor", "--points", str(SCENE_POINTS),
                          "--classes", str(CLASSES), "--members",
                          str(SCENE_MEMBERS), "--seed", str(seed), "--out-id",
                          "scan.pcod", "--out-ood", "novel.pcod", *w),
                ("scan.pcod", "novel.pcod")),
        Command("roc", ("roc", "--id", "scan.pcod", "--ood", "novel.pcod",
                        "--kind", "entropy", "--out", "roc.csv", *w),
                ("roc.csv",)),
        Command("map", ("map", "--points", "cloud.txt", "--pred", "scan.pcod",
                        "--roc", "roc.csv", "--kind", "entropy", "--out",
                        "map.txt", *w), ("map.txt",)),
        Command("iou", ("iou", "--points", "cloud.txt", "--labels",
                        "labels.txt", "--pred", "scan.pcod", "--out", "iou.txt",
                        *w), ("iou.txt",)),
    ]


def _entropy(probs: np.ndarray) -> np.ndarray:
    p = np.where(probs < 1e-12, 0.0, probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return np.maximum(-terms.sum(axis=1), 0.0)


def _scene_check(work: Path) -> list:
    problems = []
    probs = member_means(read_pcod(work / "scan.pcod"), (SCENE_MEMBERS,))[SCENE_MEMBERS]
    threshold = float(read_report(work / "roc.csv")["youden_threshold"])
    scores = _entropy(probs)

    rows = [line.split() for line in (work / "map.txt").read_text().splitlines()]
    if len(rows) != SCENE_POINTS:
        return [f"map has {len(rows)} lines, expected {SCENE_POINTS}"]
    colors = {("0", "255", "0"): 0, ("255", "0", "0"): 1}
    try:
        red = np.array([colors[tuple(r[3:])] for r in rows], dtype=bool)
        map_xyz = np.array([r[:3] for r in rows], dtype=np.float64)
    except (KeyError, ValueError):
        return ["map has a line that is not 'x y z' plus green or red"]
    cloud_xyz = np.array([line.split()[:3] for line in
                          (work / "cloud.txt").read_text().splitlines()],
                         dtype=np.float64)
    if not np.allclose(map_xyz, cloud_xyz, rtol=0.0, atol=5e-7):
        problems.append("map coordinates differ from the cloud")
    # A point within a rounding error of the threshold may go either way.
    fewest = int(np.count_nonzero(scores >= threshold + 1e-12))
    most = int(np.count_nonzero(scores >= threshold - 1e-12))
    if not fewest <= int(red.sum()) <= most:
        problems.append(f"map has {int(red.sum())} red lines, but {fewest}..{most} "
                        f"points score >= {threshold!r}")
    sure = np.abs(scores - threshold) > 1e-12
    wrong = int(np.count_nonzero(red[sure] != (scores[sure] >= threshold)))
    if wrong:
        problems.append(f"{wrong} map points have the wrong color")

    report = read_report(work / "iou.txt")
    labels = np.array((work / "labels.txt").read_text().split(), dtype=np.int64)
    predicted = np.argmax(probs, axis=1) + 1
    labeled = labels > 0
    counted = int(labeled.sum())
    expected_acc = int(np.count_nonzero(predicted[labeled] == labels[labeled])) / counted
    if int(report["total_counted"]) != counted or \
            int(report["ignored"]) != SCENE_POINTS - counted:
        problems.append("iou counts differ from the label recount")
    if abs(float(report["accuracy"]) - expected_acc) > 1e-12:
        problems.append(f"accuracy={report['accuracy']}, recount gives {expected_acc!r}")
    return problems


# ---------------------------------------------------------------------------
# oracle: Gaussian score CSVs against the closed-form AUROC
# ---------------------------------------------------------------------------

def _oracle_commands(seed: int, workers: int) -> list:
    w = ("--workers", str(workers))
    return [
        Command("synth", ("synth", "scores", "--n-id", str(ORACLE_POINTS),
                          "--n-ood", str(ORACLE_POINTS), "--seed", str(seed),
                          "--out-id", "gid.csv", "--out-ood", "good.csv", *w),
                ("gid.csv", "good.csv")),
        Command("auroc", ("auroc", "--id", "gid.csv", "--ood", "good.csv",
                          "--mode", "hist", "--out", "oracle.txt", *w),
                ("oracle.txt",)),
    ]


def _hanley_mcneil_se(a: float, n: int, m: int) -> float:
    q1, q2 = a / (2.0 - a), 2.0 * a * a / (1.0 + a)
    return math.sqrt((a * (1 - a) + (m - 1) * (q1 - a * a)
                      + (n - 1) * (q2 - a * a)) / (n * m))


def _oracle_check(work: Path) -> list:
    problems = []
    report = read_report(work / "oracle.txt")
    ids, oods = read_score_csv(work / "gid.csv"), read_score_csv(work / "good.csv")
    if ids.size != ORACLE_POINTS or oods.size != ORACLE_POINTS:
        return [f"score CSVs hold {ids.size} and {oods.size} rows"]
    hist = float(report["auroc"])
    exact = rank_auroc(ids, oods)
    # Within one bin the histogram credits every ID/OOD pair 1/2, so it can
    # miss the exact value by at most half the share of pairs sharing a bin.
    lo, hi = min(ids.min(), oods.min()), max(ids.max(), oods.max())
    bins = int(report["bins"])
    id_counts, _ = np.histogram(ids, bins=bins, range=(lo, hi))
    ood_counts, _ = np.histogram(oods, bins=bins, range=(lo, hi))
    bin_bound = 0.5 * float(np.dot(id_counts, ood_counts)) / (ids.size * oods.size)
    if abs(hist - exact) > bin_bound + 1e-9:
        problems.append(f"hist auroc {hist!r} is {abs(hist - exact)!r} from the "
                        f"exact {exact!r}, bin bound {bin_bound!r}")
    # Gaussian populations N(0, 1) and N(1, 1): AUROC = Phi(1 / sqrt(2)).
    analytic = 0.5 * (1.0 + math.erf(0.5))
    tolerance = bin_bound + ORACLE_SIGMAS * _hanley_mcneil_se(
        analytic, ids.size, oods.size)
    if abs(hist - analytic) > tolerance:
        problems.append(f"hist auroc {hist!r} is more than {tolerance!r} from "
                        f"the closed form {analytic!r}")
    return problems


def _no_inputs(work: Path, seed: int) -> None:
    pass


def _no_fixture(seed: int) -> list:
    return []


# Each workload loads a different layer (BENCHMARK.json says why each is
# here): ksweep the predictive tensor path, scene the text I/O of
# pointcloud plus start-up, oracle the score CSVs and the histogram.
WORKLOADS = {w.name: w for w in (
    Workload("ksweep", write_inputs=_no_inputs, fixture=_ksweep_fixture,
             commands=_ksweep_commands, workers=1, check=_ksweep_check, setups=3),
    Workload("scene", write_inputs=_scene_inputs, fixture=_no_fixture,
             commands=_scene_commands, workers=2, check=_scene_check, setups=5),
    Workload("oracle", write_inputs=_no_inputs, fixture=_no_fixture,
             commands=_oracle_commands, workers=2, check=_oracle_check, setups=5),
)}
