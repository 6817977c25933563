"""Acceptance checks for the full evaluation stack.

One test per headline guarantee, each asserting its stated tolerance
against an independently computed oracle and printing one summary line
with the measured values (visible with ``pytest -s`` or ``-rA``):

 1. exact AUROC equals the brute-force pairwise statistic,
 2. the Gaussian pipeline reproduces the closed-form AUROC,
 3. streaming histogram AUROC tracks exact AUROC and merges losslessly,
 4. ROC area, histogram AUROC, and the Youden threshold agree,
 5. the score functions hit their closed-form reference values,
 6. aggregation is prefix-consistent and row-stochastic,
 7. segmentation metrics match set-arithmetic oracles,
 8. CLI outputs are byte-identical for any worker count,
 9. histogram mode streams 10^8 scores in bounded time and memory,
10. reports parse back bit-exactly.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from pcodref import (analytic_auroc, pcod_bytes, read_report, sample_pair,
                     stream_means, synth_pair)
from pcood import (GaussianPairSpec, ScoreKind, confusion_accumulate,
                   confusion_new, exact_auroc, hist_accumulate, hist_auroc,
                   hist_merge, hist_new_range, optimal_threshold, roc_curve,
                   score_distribution, score_domain, seg_metrics,
                   write_metrics_report)
from pcood.cli import main as cli_main

GAUSS_N = 10 ** 6
GAUSS_SEED = 20_240_601


def _gauss_spec(delta_mu: float) -> GaussianPairSpec:
    return GaussianPairSpec(mu_id=0.0, sigma_id=1.0, mu_ood=delta_mu,
                            sigma_ood=1.0, n_id=GAUSS_N, n_ood=GAUSS_N,
                            seed=GAUSS_SEED)


def _simplex_tensor(n_points, n_classes, n_members, seed):
    """Float32 (K, N, C) probability members, normalized in float64."""
    rng = np.random.default_rng(seed)
    raw = rng.exponential(size=(n_members, n_points, n_classes))
    raw /= raw.sum(axis=-1, keepdims=True)
    return raw.astype(np.float32)


def test_exact_auroc_equals_bruteforce_pairwise_oracle():
    """1000 random instances, populations up to 1000 points, dev <= 1e-12."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 1001))
        m = int(rng.integers(1, 1001))
        if trial % 2:
            ids = rng.normal(size=n)
            oods = rng.normal(0.5, 1.0, size=m)
        else:
            # Quantized grids force heavy tie traffic.
            ids = rng.integers(0, 40, size=n) / 16.0
            oods = rng.integers(8, 48, size=m) / 16.0
        wins = int((oods[:, None] > ids[None, :]).sum())
        ties = int((oods[:, None] == ids[None, :]).sum())
        oracle = (wins + 0.5 * ties) / (n * m)
        worst = max(worst, abs(exact_auroc(ids, oods) - oracle))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 60.0
    print(f"\n[PASS] exact AUROC vs brute force: 1000 instances, "
          f"max dev {worst!r}, {elapsed:.1f} s")


def test_gaussian_pipeline_auroc_matches_analytic_value():
    """10^6 points per side: unit shift within 0.76025 +- 0.002, null at 0.5."""
    t0 = time.perf_counter()
    shifted = exact_auroc(*sample_pair(_gauss_spec(1.0)))
    null = exact_auroc(*sample_pair(_gauss_spec(0.0)))
    elapsed = time.perf_counter() - t0
    assert abs(shifted - 0.76025) <= 0.002
    assert abs(null - 0.5) <= 0.002
    assert abs(analytic_auroc(_gauss_spec(1.0)) - 0.76025) <= 5e-6
    assert elapsed < 30.0
    print(f"\n[PASS] Gaussian pipeline AUROC: shift {shifted:.6f} "
          f"(target 0.76025), null {null:.6f} (target 0.5), {elapsed:.1f} s")


def test_streaming_histogram_matches_exact_and_merges_bit_identically():
    """4096-bin AUROC within 5e-3 of exact; 16-shard merge is lossless."""
    ids, oods = sample_pair(_gauss_spec(1.0))
    exact = exact_auroc(ids, oods)
    lo = float(min(ids.min(), oods.min()))
    hi = float(max(ids.max(), oods.max()))

    single = hist_new_range(lo, hi, 4096)
    hist_accumulate(single, ids, "id")
    hist_accumulate(single, oods, "ood")
    streamed = hist_auroc(single)
    assert abs(streamed - exact) <= 5e-3

    merged = hist_new_range(lo, hi, 4096)
    for id_part, ood_part in zip(np.array_split(ids, 16),
                                 np.array_split(oods, 16)):
        shard = hist_new_range(lo, hi, 4096)
        hist_accumulate(shard, id_part, "id")
        hist_accumulate(shard, ood_part, "ood")
        merged = hist_merge(merged, shard)
    np.testing.assert_array_equal(merged.counts_id, single.counts_id)
    np.testing.assert_array_equal(merged.counts_ood, single.counts_ood)
    assert hist_auroc(merged) == streamed
    print(f"\n[PASS] streaming fidelity: hist {streamed:.6f} vs exact "
          f"{exact:.6f} (|diff| {abs(streamed - exact):.2e} <= 5e-3), "
          f"16-shard merge bit-identical")


def _fixture_histograms():
    """A spread of histogram shapes: smooth, degenerate, tied, and huge."""
    rng = np.random.default_rng(71)
    ids = rng.normal(size=100_000)
    oods = rng.normal(1.0, 1.0, size=100_000)
    fixtures = []
    for bins in (2, 20, 256, 4096):
        h = hist_new_range(-6.0, 7.0, bins)
        hist_accumulate(h, ids, "id")
        hist_accumulate(h, oods, "ood")
        fixtures.append((f"gaussian B={bins}", h))

    h = hist_new_range(0.0, 1.0, 16)
    h.counts_id[1] = 9
    h.counts_ood[14] = 4
    fixtures.append(("separated", h))

    h = hist_new_range(0.0, 1.0, 8)
    shared = rng.integers(1, 9, size=8)
    h.counts_id += shared
    h.counts_ood += shared
    fixtures.append(("identical populations", h))

    h = hist_new_range(0.0, 1.0, 4)
    h.counts_id[2] = 11
    h.counts_ood[2] = 7
    fixtures.append(("single shared bin", h))

    h = hist_new_range(0.0, 1.0, 4)
    h.counts_id += np.array([2 ** 31, 2 ** 30, 5, 0], dtype=np.int64)
    h.counts_ood += np.array([7, 2 ** 30, 2 ** 31, 3], dtype=np.int64)
    fixtures.append(("huge counts", h))

    h = hist_new_range(0.0, 1.0, 20)
    hist_accumulate(h, np.array([0.1, 0.4, 0.35]), "id")
    hist_accumulate(h, np.array([0.8, 0.4]), "ood")
    fixtures.append(("3-vs-2 with one tie", h))

    id_blob, ood_blob = synth_pair(3000, 8, 2, 2.0, 72)
    h = hist_new_range(*score_domain(ScoreKind.ENTROPY, 8), 512)
    hist_accumulate(h, score_distribution(stream_means(id_blob, [2])[2],
                                          ScoreKind.ENTROPY), "id")
    hist_accumulate(h, score_distribution(stream_means(ood_blob, [2])[2],
                                          ScoreKind.ENTROPY), "ood")
    fixtures.append(("entropy-kind tensor scores", h))
    return fixtures


def test_roc_area_equals_hist_auroc_and_youden_equals_grid_search():
    """Trapezoid area within 1e-12 of hist AUROC; Youden == grid search."""
    worst_area = 0.0
    for name, hist in _fixture_histograms():
        curve = roc_curve(hist)
        target = hist_auroc(hist)
        assert curve.auroc == target, name
        area = float(np.trapezoid(curve.tpr, curve.fpr))
        dev = abs(area - target)
        assert dev <= 1e-12, name
        worst_area = max(worst_area, dev)

        best_t, best_j = None, -math.inf
        for i, t in enumerate(curve.thresholds.tolist()):
            j = float(curve.tpr[i + 1] - curve.fpr[i + 1])
            if j > best_j or (j == best_j and t < best_t):
                best_t, best_j = t, j
        assert optimal_threshold(curve) == (best_t, best_j), name
    print(f"\n[PASS] ROC consistency on 11 fixtures: max |area - AUROC| "
          f"{worst_area:.2e} <= 1e-12, Youden == grid search everywhere")


def test_score_functions_hit_reference_values():
    """One-hot -> (0, 0); uniform C=8 -> (0.875, ln 8); [.5,.5] -> ln 2."""
    one_hot = np.zeros(8)
    one_hot[3] = 1.0
    uniform8 = np.full(8, 0.125)
    half = np.array([0.5, 0.5])

    def msp_complement(row):
        return float(score_distribution(row[np.newaxis], ScoreKind.MSP_COMPLEMENT)[0])

    def entropy(row):
        return float(score_distribution(row[np.newaxis], ScoreKind.ENTROPY)[0])

    devs = [
        abs(msp_complement(one_hot) - 0.0),
        abs(entropy(one_hot) - 0.0),
        abs(msp_complement(uniform8) - 0.875),
        abs(entropy(uniform8) - math.log(8.0)),
        abs(entropy(half) - math.log(2.0)),
    ]
    worst = max(devs)
    assert worst <= 1e-12
    assert msp_complement(one_hot) == 0.0 and entropy(one_hot) == 0.0
    assert msp_complement(uniform8) == 0.875
    print(f"\n[PASS] score reference table: max dev {worst:.2e} <= 1e-12")


def test_aggregation_prefix_consistency_and_row_sums():
    """Prefix-k equality, the two-member hand average, and 1e-6 row sums."""
    values = _simplex_tensor(500, 8, 20, 73)
    full = stream_means(pcod_bytes(values), range(1, 21))
    worst_prefix = 0.0
    for k in range(1, 21):
        prefix = stream_means(pcod_bytes(values[:k]), [k])[k]
        worst_prefix = max(worst_prefix, float(np.abs(full[k] - prefix).max()))
    assert worst_prefix <= 1e-12

    two = np.array([[[0.6, 0.4]], [[0.2, 0.8]]], dtype=np.float32)
    averaged = stream_means(pcod_bytes(two), [2])[2][0]
    # The mean of the stored member rows is exact in float64 ...
    stored = two.astype(np.float64)
    arithmetic_dev = float(np.abs(averaged - (stored[0, 0] + stored[1, 0]) / 2.0).max())
    assert arithmetic_dev <= 1e-12
    # ... and lands on the decimal target within float32 representation.
    decimal_dev = float(np.abs(averaged - np.array([0.4, 0.6])).max())
    assert decimal_dev <= 1e-6

    big = pcod_bytes(_simplex_tensor(100_000, 8, 20, 74))
    sums = stream_means(big, [20])[20].sum(axis=-1)
    worst_sum = float(np.abs(sums - 1.0).max())
    assert worst_sum <= 1e-6
    print(f"\n[PASS] aggregation: prefix dev {worst_prefix!r}, hand fixture "
          f"arithmetic dev {arithmetic_dev!r} (<= 1e-12) and decimal dev "
          f"{decimal_dev:.2e} (<= 1e-6), row-sum dev {worst_sum:.2e} <= 1e-6 "
          f"at N=10^5 C=8 K=20")


def test_segmentation_fixture_and_random_label_oracle():
    """4-point fixture exact; 100 random trials of length 10^4 vs oracle."""
    matrix = confusion_accumulate(confusion_new(2), [1, 2, 2, 2], [1, 1, 2, 2])
    metrics = seg_metrics(matrix)
    assert metrics.mean_iou == 7 / 12
    assert metrics.accuracy == 3 / 4

    rng = np.random.default_rng(75)
    for _ in range(100):
        truth = rng.integers(0, 9, size=10_000)
        pred = rng.integers(1, 9, size=10_000)
        got = seg_metrics(confusion_accumulate(confusion_new(8), pred, truth))
        iou = np.full(8, np.nan)
        mean = Fraction(0)
        defined = 0
        tp_total = 0
        for cls in range(1, 9):
            tp = int(np.sum((truth == cls) & (pred == cls)))
            fp = int(np.sum((truth != cls) & (truth > 0) & (pred == cls)))
            fn = int(np.sum((truth == cls) & (pred != cls)))
            union = tp + fp + fn
            if union:
                iou[cls - 1] = tp / union
                mean += Fraction(tp, union)
                defined += 1
            tp_total += tp
        np.testing.assert_array_equal(got.per_class_iou, iou)
        assert got.mean_iou == float(mean / defined)
        assert got.accuracy == tp_total / int(np.sum(truth > 0))
    print("\n[PASS] segmentation metrics: meanIoU == 7/12 and accuracy == 3/4 "
          "exactly; 100 random trials of 10^4 labels match the set oracle "
          "bit for bit")


def test_cli_outputs_are_byte_identical_across_worker_counts(tmp_path):
    """Each subcommand, run twice at workers 1 and 8: identical bytes."""
    work = tmp_path
    id_blob, ood_blob = synth_pair(197, 8, 4, 2.0, 76)
    id_path, ood_path = work / "id.pcod", work / "ood.pcod"
    id_path.write_bytes(id_blob)
    ood_path.write_bytes(ood_blob)

    rng = np.random.default_rng(77)
    points = work / "points.txt"
    lines = []
    for _ in range(197):
        x, y, z = rng.uniform(-10.0, 10.0, size=3)
        r, g, b = (int(v) for v in rng.integers(0, 256, size=3))
        lines.append(f"{x:.3f} {y:.3f} {z:.3f} {int(rng.integers(0, 999))} "
                     f"{r} {g} {b}")
    points.write_text("\n".join(lines) + "\n")
    labels = work / "labels.txt"
    labels.write_text("\n".join(str(int(v))
                                for v in rng.integers(0, 9, size=197)) + "\n")
    roc_ref = work / "ref_roc.csv"
    assert cli_main(["roc", "--id", str(id_path), "--ood", str(ood_path),
                     "--out", str(roc_ref)]) == 0

    def jobs(out_dir):
        d = str(out_dir) + "/"
        return [
            ("synth scores", ["synth", "scores", "--n-id", "301", "--n-ood",
                              "200", "--seed", "5", "--out-id", d + "gid.csv",
                              "--out-ood", d + "good.csv"],
             ["gid.csv", "good.csv"]),
            ("synth tensor", ["synth", "tensor", "--points", "151",
                              "--classes", "6", "--members", "2", "--seed",
                              "5", "--out-id", d + "tid.pcod", "--out-ood",
                              d + "tood.pcod"], ["tid.pcod", "tood.pcod"]),
            ("aggregate", ["aggregate", "--in", str(id_path), "--out",
                           d + "agg.pcod"], ["agg.pcod"]),
            ("score", ["score", "--in", str(id_path), "--kind", "entropy",
                       "--out", d + "scores.csv"], ["scores.csv"]),
            ("auroc", ["auroc", "--id", str(id_path), "--ood", str(ood_path),
                       "--k-list", "1,2,4", "--mode", "hist", "--bins", "512",
                       "--out", d + "auroc.txt"], ["auroc.txt"]),
            ("roc", ["roc", "--id", str(id_path), "--ood", str(ood_path),
                     "--bins", "256", "--out", d + "roc.csv"], ["roc.csv"]),
            ("iou", ["iou", "--points", str(points), "--labels", str(labels),
                     "--pred", str(id_path), "--out", d + "iou.txt"],
             ["iou.txt"]),
            ("map", ["map", "--points", str(points), "--pred", str(id_path),
                     "--roc", str(roc_ref), "--out", d + "map.txt"],
             ["map.txt"]),
        ]

    results = {}
    for workers in (1, 8):
        for attempt in (0, 1):
            out_dir = work / f"w{workers}r{attempt}"
            out_dir.mkdir()
            for name, argv, outs in jobs(out_dir):
                assert cli_main(argv + ["--workers", str(workers)]) == 0
                blob = b"".join((out_dir / o).read_bytes() for o in outs)
                results.setdefault(name, []).append(blob)
    for name, blobs in results.items():
        assert all(b == blobs[0] for b in blobs), name
    print(f"\n[PASS] determinism: {len(results)} subcommand invocations x "
          f"(workers 1, 8) x 2 runs each, all byte-identical")


_STREAM_SCRIPT = r"""
import resource, time
from pcood import (GaussianPairSpec, hist_accumulate, hist_auroc,
                   hist_new_range, sample_scores_chunk)

n = 50_000_000
chunk = 4_000_000
spec = GaussianPairSpec(mu_id=0.0, sigma_id=1.0, mu_ood=1.0, sigma_ood=1.0,
                        n_id=n, n_ood=n, seed=424242)
t0 = time.perf_counter()
hist = hist_new_range(-8.0, 9.0, 4096)
for population in ("id", "ood"):
    start = 0
    while start < n:
        stop = min(start + chunk, n)
        hist_accumulate(hist, sample_scores_chunk(spec, population, start, stop),
                        population)
        start = stop
value = hist_auroc(hist)
elapsed = time.perf_counter() - t0
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(value, elapsed, rss_mib)
"""


def test_streaming_auroc_throughput_and_memory(tmp_path):
    """10^8 scores through histogram mode in < 60 s and < 1 GiB resident."""
    script = tmp_path / "stream_bench.py"
    script.write_text(_STREAM_SCRIPT)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    value, elapsed, rss_mib = (float(tok) for tok in proc.stdout.split())
    assert elapsed < 60.0
    assert rss_mib < 1024.0
    assert abs(value - 0.76025) <= 0.002
    print(f"\n[PASS] throughput: 10^8 scores -> AUROC {value:.6f} in "
          f"{elapsed:.1f} s (< 60 s) using {rss_mib:.0f} MiB (< 1024 MiB)")


def test_report_values_parse_back_bit_exactly(tmp_path):
    """A written metrics report reproduces its own values bit for bit."""
    sweep = [(1, 0.62020), (5, 0.84013), (10, 0.87929), (15, 0.88486),
             (20, 0.89338)]
    entries = [("command", "auroc"), ("kind", "msp"),
               ("tie_rule", "ties-credited-0.5"),
               ("n_id", 10_000_000), ("n_ood", 10_000_000)]
    entries += [(f"auroc_k{k}", v) for k, v in sweep]
    entries += [("youden_threshold", 1.0 - 0.755),
                ("youden_threshold_entropy", 0.386)]
    path = tmp_path / "report.txt"
    with open(path, "wb") as f:
        write_metrics_report(entries, f)
    with open(path, "rb") as f:
        back = read_report(f)
    for key, value in entries:
        if isinstance(value, float):
            assert float(back[key]) == value, key
        else:
            assert back[key] == str(value), key
    with open(tmp_path / "again.txt", "wb") as f:
        write_metrics_report(entries, f)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
    print("\n[PASS] report fixture: all values, including the 5-entry "
          "ensemble sweep, parse back bit-exactly")
