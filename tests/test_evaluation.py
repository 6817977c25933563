"""Tests for AUROC (exact and histogram), ROC curves, and segmentation metrics.

Every derived expectation is checked against an independent oracle
computed here: brute-force pairwise AUROC, exact-rational histogram
AUROC, exhaustive threshold grid search, and per-class set counting.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from pcood import (BinnedScoreHistogram, IdOodMask, ParseError, RocCurve,
                   ScoreKind, StructuralError, ValidationError,
                   apply_threshold, argmax_labels, confusion_accumulate,
                   confusion_new, exact_auroc, hist_accumulate, hist_auroc,
                   hist_merge, hist_new, hist_new_range, optimal_threshold,
                   read_metrics_report, read_roc_csv, roc_curve, seg_metrics,
                   write_metrics_report, write_roc_csv)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def brute_auroc(id_scores, ood_scores):
    """O(n*m) pairwise statistic with 0.5 credit for ties."""
    ids = np.asarray(id_scores, dtype=np.float64)
    oods = np.asarray(ood_scores, dtype=np.float64)
    wins = int((oods[:, None] > ids[None, :]).sum())
    ties = int((oods[:, None] == ids[None, :]).sum())
    return (wins + 0.5 * ties) / (ids.size * oods.size)


def frac_hist_auroc(counts_id, counts_ood):
    """Exact-rational Mann-Whitney over bins."""
    n_id = sum(counts_id)
    n_ood = sum(counts_ood)
    below = 0
    acc = Fraction(0)
    for id_b, ood_b in zip(counts_id, counts_ood):
        acc += Fraction(ood_b) * (below + Fraction(id_b, 2))
        below += id_b
    return float(acc / (n_id * n_ood))


def grid_search_threshold(curve):
    """Exhaustive Youden search over all curve thresholds."""
    best_t, best_j = None, -math.inf
    for i, t in enumerate(curve.thresholds.tolist()):
        j = float(curve.tpr[i + 1] - curve.fpr[i + 1])
        if j > best_j or (j == best_j and t < best_t):
            best_t, best_j = t, j
    return best_t, best_j


def seg_oracle(pred, truth, c):
    """Per-class set counting; mean IoU in exact rational arithmetic."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    iou = np.full(c, np.nan)
    mean = Fraction(0)
    defined = 0
    tp_total = 0
    for cls in range(1, c + 1):
        tp = int(np.sum((truth == cls) & (pred == cls)))
        fp = int(np.sum((truth != cls) & (truth > 0) & (pred == cls)))
        fn = int(np.sum((truth == cls) & (pred != cls)))
        union = tp + fp + fn
        if union:
            iou[cls - 1] = tp / union
            mean += Fraction(tp, union)
            defined += 1
        tp_total += tp
    total = int(np.sum(truth > 0))
    return iou, float(mean / defined), tp_total / total


def _gauss_hist(rng, n=3000, bins=256):
    hist = hist_new_range(-6.0, 7.0, bins)
    hist_accumulate(hist, rng.normal(0.0, 1.0, size=n), "id")
    hist_accumulate(hist, rng.normal(1.0, 1.0, size=n), "ood")
    return hist


class TestExactAuroc:
    def test_perfect_separation(self):
        assert exact_auroc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert exact_auroc([0.5], [0.5]) == 0.5

    def test_three_vs_two_fixture(self):
        # Pairs: 0.8 beats all three; 0.4 beats 0.1 and 0.35, ties 0.4.
        assert exact_auroc([0.1, 0.4, 0.35], [0.8, 0.4]) == 5.5 / 6

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, 200))
            if rng.random() < 0.5:
                ids = rng.normal(size=n)
                oods = rng.normal(0.5, 1.0, size=m)
            else:
                # Heavy ties from a quantized grid.
                ids = rng.integers(0, 12, size=n) / 8.0
                oods = rng.integers(3, 15, size=m) / 8.0
            assert abs(exact_auroc(ids, oods) - brute_auroc(ids, oods)) <= 1e-12

    def test_complement_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.integers(0, 10, size=50) / 4.0
            b = rng.integers(0, 10, size=30) / 4.0
            assert abs(exact_auroc(a, b) + exact_auroc(b, a) - 1.0) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(33)
        ids = rng.integers(0, 20, size=80) / 16.0
        oods = rng.integers(5, 25, size=60) / 16.0
        base = exact_auroc(ids, oods)
        assert exact_auroc(np.exp(ids), np.exp(oods)) == base
        assert exact_auroc(3.0 * ids - 10.0, 3.0 * oods - 10.0) == base

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            exact_auroc([], [0.5])
        with pytest.raises(ValidationError):
            exact_auroc([0.5], [])
        with pytest.raises(ValidationError):
            exact_auroc([np.nan], [0.5])
        with pytest.raises(ValidationError):
            exact_auroc([0.5], [np.inf])


class TestHistogram:
    def test_two_bin_example(self):
        hist = hist_new_range(0.0, 1.0, 2)
        hist_accumulate(hist, np.array([0.1, 0.9]), "id")
        assert hist.counts_id.tolist() == [1, 1]
        assert hist.counts_ood.tolist() == [0, 0]

    def test_bin_assignment_formula(self):
        rng = np.random.default_rng(34)
        lo, hi, bins = -2.5, 3.75, 37
        values = rng.uniform(-4.0, 5.0, size=500)
        hist = hist_new_range(lo, hi, bins)
        hist_accumulate(hist, values, "ood")
        expected = np.zeros(bins, dtype=np.int64)
        for v in values:
            b = math.floor((v - lo) / (hi - lo) * bins)
            expected[min(max(b, 0), bins - 1)] += 1
        np.testing.assert_array_equal(hist.counts_ood, expected)

    def test_merge_identity(self):
        hist = _gauss_hist(np.random.default_rng(35))
        empty = hist_new_range(hist.domain_lo, hist.domain_hi, hist.bin_count)
        merged = hist_merge(hist, empty)
        np.testing.assert_array_equal(merged.counts_id, hist.counts_id)
        np.testing.assert_array_equal(merged.counts_ood, hist.counts_ood)

    def test_chunked_accumulation_matches_single_pass(self):
        rng = np.random.default_rng(36)
        values = rng.normal(size=1000)
        single = hist_new_range(-5.0, 5.0, 64)
        hist_accumulate(single, values, "id")
        parts = []
        for chunk in np.array_split(values, 7):
            h = hist_new_range(-5.0, 5.0, 64)
            parts.append(hist_accumulate(h, chunk, "id"))
        merged = parts[0]
        for part in parts[1:]:
            merged = hist_merge(merged, part)
        np.testing.assert_array_equal(merged.counts_id, single.counts_id)

    def test_merge_commutative_associative(self):
        rng = np.random.default_rng(37)
        hists = [_gauss_hist(rng, n=200) for _ in range(3)]
        a, b, c = hists
        ab_c = hist_merge(hist_merge(a, b), c)
        a_bc = hist_merge(a, hist_merge(b, c))
        c_ba = hist_merge(c, hist_merge(b, a))
        for other in (a_bc, c_ba):
            np.testing.assert_array_equal(ab_c.counts_id, other.counts_id)
            np.testing.assert_array_equal(ab_c.counts_ood, other.counts_ood)

    def test_out_of_domain_values_clamp_to_edge_bins(self):
        hist = hist_new_range(0.0, 1.0, 4)
        hist_accumulate(hist, np.array([-3.0, 0.0, 0.999, 1.0, 42.0]), "id")
        assert hist.counts_id.tolist() == [2, 0, 0, 3]

    def test_merge_compatibility_checks(self):
        a = hist_new_range(0.0, 1.0, 8)
        with pytest.raises(StructuralError):
            hist_merge(a, hist_new_range(0.0, 1.0, 16))
        with pytest.raises(StructuralError):
            hist_merge(a, hist_new_range(0.0, 2.0, 8))
        with pytest.raises(StructuralError):
            hist_merge(a, hist_new(ScoreKind.ENTROPY, 8, 8))
        # Histograms carry no score kind: the MSP and entropy domains
        # differ for every class count, so the domain check refuses them.
        for c in range(2, 65):
            with pytest.raises(StructuralError):
                hist_merge(hist_new(ScoreKind.MSP_COMPLEMENT, c, 8),
                           hist_new(ScoreKind.ENTROPY, c, 8))

    def test_bad_population_and_values(self):
        hist = hist_new_range(0.0, 1.0, 8)
        with pytest.raises(ValidationError):
            hist_accumulate(hist, np.array([0.5]), "both")
        with pytest.raises(ValidationError):
            hist_accumulate(hist, np.array([np.nan]), "id")

    def test_histogram_validation(self):
        with pytest.raises(ValidationError):
            hist_new_range(0.0, 1.0, 1)
        with pytest.raises(ValidationError):
            hist_new_range(1.0, 1.0, 8)
        with pytest.raises(ValidationError):
            BinnedScoreHistogram(4, 0.0, 1.0, -np.ones(4, dtype=np.int64),
                                 np.zeros(4, dtype=np.int64))


class TestHistAuroc:
    def test_perfect_separation(self):
        hist = hist_new_range(0.0, 1.0, 8)
        hist.counts_id[0] = 10
        hist.counts_ood[7] = 3
        assert hist_auroc(hist) == 1.0

    def test_identical_count_vectors(self):
        hist = hist_new_range(0.0, 1.0, 8)
        counts = np.array([3, 0, 5, 1, 0, 2, 4, 1], dtype=np.int64)
        hist.counts_id += counts
        hist.counts_ood += counts
        assert hist_auroc(hist) == 0.5

    def test_matches_exact_on_quantized_scores(self):
        rng = np.random.default_rng(38)
        bins = 64
        centers = (np.arange(bins) + 0.5) / bins
        for _ in range(20):
            ids = centers[rng.integers(0, bins, size=300)]
            oods = centers[rng.integers(10, bins, size=200)]
            hist = hist_new_range(0.0, 1.0, bins)
            hist_accumulate(hist, ids, "id")
            hist_accumulate(hist, oods, "ood")
            assert abs(hist_auroc(hist) - exact_auroc(ids, oods)) <= 1e-12

    def test_matches_rational_oracle_with_huge_counts(self):
        # Counts this large would overflow a naive int64 accumulation.
        hist = hist_new_range(0.0, 1.0, 4)
        hist.counts_id += np.array([2 ** 31, 2 ** 30, 5, 0], dtype=np.int64)
        hist.counts_ood += np.array([7, 2 ** 30, 2 ** 31, 3], dtype=np.int64)
        expected = frac_hist_auroc(hist.counts_id.tolist(),
                                   hist.counts_ood.tolist())
        assert hist_auroc(hist) == expected

    def test_empty_population(self):
        hist = hist_new_range(0.0, 1.0, 4)
        hist_accumulate(hist, np.array([0.5]), "id")
        with pytest.raises(ValidationError):
            hist_auroc(hist)

    def test_pooling_concat_equals_per_cloud_merge(self):
        rng = np.random.default_rng(39)
        id_clouds = [rng.normal(size=rng.integers(10, 50)) for _ in range(3)]
        ood_clouds = [rng.normal(0.7, 1.0, size=rng.integers(10, 50))
                      for _ in range(2)]
        pooled = hist_new_range(-5.0, 5.0, 128)
        hist_accumulate(pooled, np.concatenate(id_clouds), "id")
        hist_accumulate(pooled, np.concatenate(ood_clouds), "ood")
        merged = hist_new_range(-5.0, 5.0, 128)
        for cloud in id_clouds:
            part = hist_new_range(-5.0, 5.0, 128)
            merged = hist_merge(merged, hist_accumulate(part, cloud, "id"))
        for cloud in ood_clouds:
            part = hist_new_range(-5.0, 5.0, 128)
            merged = hist_merge(merged, hist_accumulate(part, cloud, "ood"))
        np.testing.assert_array_equal(pooled.counts_id, merged.counts_id)
        np.testing.assert_array_equal(pooled.counts_ood, merged.counts_ood)
        assert hist_auroc(pooled) == hist_auroc(merged)


class TestRocCurve:
    def test_shape_and_endpoints(self):
        hist = _gauss_hist(np.random.default_rng(40), bins=128)
        curve = roc_curve(hist)
        assert curve.thresholds.shape == (128,)
        assert curve.fpr.shape == (129,)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.thresholds) < 0)

    def test_area_equals_hist_auroc_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            hist = _gauss_hist(rng, n=500, bins=64)
            curve = roc_curve(hist)
            assert curve.auroc == hist_auroc(hist)
            area = float(np.trapezoid(curve.tpr, curve.fpr))
            assert abs(area - curve.auroc) <= 1e-12

    def test_perfect_separation_passes_through_corner(self):
        hist = hist_new_range(0.0, 1.0, 16)
        hist.counts_id[1] = 9
        hist.counts_ood[14] = 4
        curve = roc_curve(hist)
        corner = np.nonzero((curve.fpr == 0.0) & (curve.tpr == 1.0))[0]
        assert corner.size > 0
        assert curve.auroc == 1.0

    def test_identical_populations_track_the_diagonal(self):
        hist = hist_new_range(0.0, 1.0, 16)
        counts = np.random.default_rng(42).integers(0, 9, size=16)
        hist.counts_id += counts
        hist.counts_ood += counts
        curve = roc_curve(hist)
        np.testing.assert_array_equal(curve.fpr, curve.tpr)
        assert curve.auroc == 0.5

    def test_three_vs_two_fixture_binned_at_distinct_values(self):
        # Bins of width 0.05 isolate 0.1, 0.35, 0.4, and 0.8.
        hist = hist_new_range(0.0, 1.0, 20)
        hist_accumulate(hist, np.array([0.1, 0.4, 0.35]), "id")
        hist_accumulate(hist, np.array([0.8, 0.4]), "ood")
        curve = roc_curve(hist)
        assert curve.auroc == 5.5 / 6
        area = float(np.trapezoid(curve.tpr, curve.fpr))
        assert abs(area - 5.5 / 6) <= 1e-12

    def test_empty_population(self):
        with pytest.raises(ValidationError):
            roc_curve(hist_new_range(0.0, 1.0, 4))

    def test_curve_validation(self):
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.5]), np.array([0.0, 1.0]),
                     np.array([0.0, 1.0]), 0.25)
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.2, 0.5]), np.array([0.0, 0.4, 1.0]),
                     np.array([0.0, 0.8, 1.0]), 0.0)
        with pytest.raises(StructuralError):
            RocCurve(np.array([0.5]), np.array([0.0, 0.5, 1.0]),
                     np.array([0.0, 1.0]), 0.5)
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.5]), np.array([0.1, 1.0]),
                     np.array([0.0, 1.0]), 0.95)


class TestOptimalThreshold:
    def test_matches_grid_search(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            curve = roc_curve(_gauss_hist(rng, n=400, bins=64))
            assert optimal_threshold(curve) == grid_search_threshold(curve)

    def test_gap_tie_break_returns_smallest_edge(self):
        hist = hist_new_range(0.0, 1.0, 8)
        hist.counts_id[0] = 5
        hist.counts_ood[7] = 5
        curve = roc_curve(hist)
        threshold, j = optimal_threshold(curve)
        assert j == 1.0
        # Every edge from bin 1 up has J = 1; the smallest is edge 1.
        assert threshold == curve.thresholds[-2]
        assert threshold == 0.0 + (1.0 - 0.0) / 8 * 1

    def test_identical_populations_return_smallest_threshold(self):
        hist = hist_new_range(0.0, 1.0, 8)
        hist.counts_id[3] = 4
        hist.counts_ood[3] = 4
        threshold, j = optimal_threshold(roc_curve(hist))
        assert j == 0.0
        assert threshold == 0.0


class TestArgmaxLabels:
    def test_basic_and_tie_break(self):
        probs = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        np.testing.assert_array_equal(argmax_labels(probs), [2, 1, 1])

    def test_uniform_row_goes_to_class_one(self):
        assert argmax_labels(np.full((1, 8), 0.125)).tolist() == [1]

    def test_empty(self):
        labels = argmax_labels(np.zeros((0, 4)))
        assert labels.shape == (0,) and labels.dtype == np.int64


class TestConfusion:
    def test_four_point_fixture(self):
        matrix = confusion_accumulate(confusion_new(2), [1, 2, 2, 2],
                                      [1, 1, 2, 2])
        metrics = seg_metrics(matrix)
        np.testing.assert_array_equal(matrix.counts, [[1, 1], [0, 2]])
        assert metrics.per_class_iou[0] == 0.5
        assert metrics.per_class_iou[1] == 2 / 3
        assert metrics.mean_iou == 7 / 12
        assert metrics.accuracy == 3 / 4

    def test_identity_predictions(self):
        rng = np.random.default_rng(44)
        truth = rng.integers(1, 9, size=200)
        metrics = seg_metrics(confusion_accumulate(confusion_new(8),
                                                   truth, truth))
        defined = ~np.isnan(metrics.per_class_iou)
        assert np.all(metrics.per_class_iou[defined] == 1.0)
        assert metrics.mean_iou == 1.0
        assert metrics.accuracy == 1.0

    def test_truth_all_zero(self):
        matrix = confusion_accumulate(confusion_new(3), [1, 2, 3], [0, 0, 0])
        assert matrix.ignored == 3
        assert matrix.total_counted == 0
        with pytest.raises(ValidationError):
            seg_metrics(matrix)

    def test_label_range_errors_carry_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            confusion_accumulate(confusion_new(3), [1, 1], [2, 4])
        with pytest.raises(ValidationError, match="index 0"):
            confusion_accumulate(confusion_new(3), [0, 1], [2, 2])

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            confusion_accumulate(confusion_new(3), [1, 2], [1])

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(45)
        truth = rng.integers(0, 5, size=300)
        pred = rng.integers(1, 5, size=300)
        single = confusion_accumulate(confusion_new(4), pred, truth)
        parts = confusion_new(4)
        for lo in range(0, 300, 50):
            confusion_accumulate(parts, pred[lo:lo + 50], truth[lo:lo + 50])
        np.testing.assert_array_equal(single.counts, parts.counts)
        assert single.ignored == parts.ignored

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            truth = rng.integers(0, 9, size=n)
            pred = rng.integers(1, 9, size=n)
            if not (truth > 0).any():
                truth[0] = 1
            metrics = seg_metrics(confusion_accumulate(confusion_new(8),
                                                       pred, truth))
            iou, mean, acc = seg_oracle(pred, truth, 8)
            np.testing.assert_array_equal(metrics.per_class_iou, iou)
            assert metrics.mean_iou == mean
            assert metrics.accuracy == acc

    def test_absent_class_is_excluded_from_mean(self):
        matrix = confusion_accumulate(confusion_new(3), [1, 2], [1, 2])
        metrics = seg_metrics(matrix)
        assert np.isnan(metrics.per_class_iou[2])
        assert metrics.mean_iou == 1.0


class TestApplyThreshold:
    def test_basic(self):
        mask = apply_threshold(np.array([0.2, 0.8]), 0.5)
        assert isinstance(mask, IdOodMask)
        assert mask.flags.tolist() == [0, 1]

    def test_boundary_is_ood(self):
        assert apply_threshold(np.array([0.5]), 0.5).flags.tolist() == [1]

    def test_extreme_thresholds(self):
        values = np.array([0.0, 0.3, 0.5])
        assert apply_threshold(values, -1.0).flags.tolist() == [1, 1, 1]
        assert apply_threshold(values, 2.0).flags.tolist() == [0, 0, 0]

    def test_non_finite_threshold(self):
        with pytest.raises(ValidationError):
            apply_threshold(np.array([0.5]), float("nan"))


class TestReportFormats:
    def test_metrics_report_round_trip(self):
        rng = np.random.default_rng(47)
        entries = [("command", "auroc"), ("n_id", 123456789),
                   ("tie_rule", "ties-credited-0.5")]
        values = rng.uniform(size=8)
        entries += [(f"auroc_k{i}", float(v)) for i, v in enumerate(values)]
        sink = io.BytesIO()
        write_metrics_report(entries, sink)
        back = read_metrics_report(io.BytesIO(sink.getvalue()))
        assert back["command"] == "auroc"
        assert int(back["n_id"]) == 123456789
        for i, v in enumerate(values):
            assert float(back[f"auroc_k{i}"]) == float(v)

    def test_report_rejects_bad_keys(self):
        with pytest.raises(ValidationError):
            write_metrics_report([("a=b", 1)], io.BytesIO())
        with pytest.raises(ValidationError):
            write_metrics_report([("", 1)], io.BytesIO())

    def test_report_parse_error(self):
        with pytest.raises(ParseError, match="line 1"):
            read_metrics_report(io.BytesIO(b"no separator here\n"))

    def test_roc_csv_round_trip_bitwise(self):
        curve = roc_curve(_gauss_hist(np.random.default_rng(48), bins=32))
        sink = io.BytesIO()
        write_roc_csv(curve, sink, metadata=[("kind", "entropy"),
                                             ("youden_threshold", 1.25)])
        back, metadata = read_roc_csv(io.BytesIO(sink.getvalue()))
        np.testing.assert_array_equal(back.thresholds, curve.thresholds)
        np.testing.assert_array_equal(back.fpr, curve.fpr)
        np.testing.assert_array_equal(back.tpr, curve.tpr)
        assert back.auroc == curve.auroc
        assert metadata["kind"] == "entropy"
        assert float(metadata["youden_threshold"]) == 1.25

    def test_roc_csv_errors(self):
        with pytest.raises(ParseError):
            read_roc_csv(io.BytesIO(b"0.5,0.1,0.2\n"))
        with pytest.raises(ParseError):
            read_roc_csv(io.BytesIO(b"threshold,fpr,tpr\n0.5,0.1\n"))
        with pytest.raises(ParseError):
            read_roc_csv(io.BytesIO(b"threshold,fpr,tpr\n1.0,1.0,1.0\n"))
