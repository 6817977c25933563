"""Tests for AUROC (exact and histogram), ROC curves, and segmentation metrics.

Every derived expectation is checked against an independent oracle
computed here: brute-force pairwise AUROC, exact-rational histogram
AUROC, exhaustive threshold grid search, and per-class set counting.
"""

import io
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcodref import read_report
from pcood import evaluation
from pcood import (RocCurve, ValidationError, apply_threshold, argmax_labels,
                   confusion_accumulate, exact_auroc, hist_accumulate,
                   hist_auroc, optimal_threshold, read_roc_csv, roc_curve,
                   seg_metrics, write_metrics_report, write_roc_csv)
from pcood._args import DEFAULT_BIN_COUNT


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


GAUSS_DOMAIN = (-6.0, 7.0)


def _gauss_counts(rng, n=3000, bins=256):
    """(counts_id, counts_ood) of N(0, 1) and N(1, 1) over GAUSS_DOMAIN."""
    return (hist_accumulate(rng.normal(0.0, 1.0, size=n), GAUSS_DOMAIN, bins),
            hist_accumulate(rng.normal(1.0, 1.0, size=n), GAUSS_DOMAIN, bins))


def _counts(*values):
    return np.array(values, dtype=np.int64)


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

    # Integer scores from a narrow range, so most pairs tie, plus signed
    # zeros (which compare equal), the smallest subnormal and the extremes.
    _TIE_HEAVY = st.lists(
        st.one_of(st.integers(-3, 3).map(float),
                  st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308])),
        min_size=1, max_size=40)

    @settings(max_examples=300, deadline=None)
    @given(_TIE_HEAVY, _TIE_HEAVY)
    @example([0.0], [0.0])  # a single element each
    @example([2.0] * 7, [2.0] * 4)  # all equal
    @example([-1.0, 0.0], [1e308, -3.0, 0.0])  # beyond either end
    def test_tie_heavy_scores_match_pairwise_oracle(self, ids, oods):
        a, b = np.array(ids, dtype=float), np.array(oods, dtype=float)
        wins = int((b[:, None] > a[None, :]).sum())
        ties = int((b[:, None] == a[None, :]).sum())
        # The exactly rounded tie-credited statistic (2 wins + ties) / 2nm.
        want = float(Fraction(2 * wins + ties, 2 * a.size * b.size))
        assert exact_auroc(a, b) == want
        # The OOD scores searched a few at a time give the same count.
        with mock.patch.object(evaluation, "_SEARCH_BLOCK", 3):
            assert exact_auroc(a, b) == want

    @settings(max_examples=300, deadline=None)
    @given(_TIE_HEAVY, _TIE_HEAVY)
    def test_tie_heavy_swap_is_the_exact_complement(self, ids, oods):
        assert exact_auroc(ids, oods) + exact_auroc(oods, ids) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(33)
        ids = rng.integers(0, 20, size=80) / 16.0
        oods = rng.integers(5, 25, size=60) / 16.0
        base = exact_auroc(ids, oods)
        assert exact_auroc(np.exp(ids), np.exp(oods)) == base
        assert exact_auroc(3.0 * ids - 10.0, 3.0 * oods - 10.0) == base

    def test_peak_memory_per_pooled_point(self):
        # Two sorted copies take 8 B per pooled point, and the searches'
        # temporaries are sized by a block of OOD scores; the bound leaves
        # no room for a pooled argsort pass (about 56 B).
        rng = np.random.default_rng(34)
        ids = rng.normal(size=200_000)
        oods = rng.normal(0.5, 1.0, size=200_000)
        exact_auroc(ids[:10], oods[:10])  # first-call allocations
        tracemalloc.start()
        try:
            exact_auroc(ids, oods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (ids.size + oods.size)

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
        counts = hist_accumulate(np.array([0.1, 0.9]), (0.0, 1.0), 2)
        assert counts.dtype == np.int64 and counts.tolist() == [1, 1]

    def test_no_scores_give_zero_counts(self):
        counts = hist_accumulate(np.array([]), (0.0, 1.0), 5)
        assert counts.dtype == np.int64 and counts.tolist() == [0] * 5

    def test_default_bin_count(self):
        assert hist_accumulate([0.5], (0.0, 1.0)).shape == (DEFAULT_BIN_COUNT,)

    def test_bin_assignment_formula(self):
        rng = np.random.default_rng(34)
        lo, hi, bins = -2.5, 3.75, 37
        values = rng.uniform(-4.0, 5.0, size=500)
        counts = hist_accumulate(values, (lo, hi), bins)
        expected = np.zeros(bins, dtype=np.int64)
        for v in values:
            b = math.floor((v - lo) / (hi - lo) * bins)
            expected[min(max(b, 0), bins - 1)] += 1
        np.testing.assert_array_equal(counts, expected)

    def test_chunked_counts_add_up_to_the_single_pass(self):
        rng = np.random.default_rng(36)
        values = rng.normal(size=1000)
        single = hist_accumulate(values, (-5.0, 5.0), 64)
        parts = [hist_accumulate(chunk, (-5.0, 5.0), 64)
                 for chunk in np.array_split(values, 7)]
        np.testing.assert_array_equal(sum(parts), single)

    def test_out_of_domain_values_clamp_to_edge_bins(self):
        counts = hist_accumulate(np.array([-3.0, 0.0, 0.999, 1.0, 42.0]),
                                 (0.0, 1.0), 4)
        assert counts.tolist() == [2, 0, 0, 3]

    def test_scores_far_outside_the_domain_clamp_without_a_warning(self):
        # (s - lo) / width * bins overflows to +-inf here; pytest turns any
        # warning into an error, and the clip maps +-inf to the edge bins.
        counts = hist_accumulate(np.array([1e308, -1e308]), (0.0, 1.0), 16)
        assert counts[-1] == 1 and counts[0] == 1 and counts.sum() == 2
        counts = hist_accumulate(np.array([1.7976931348623157e308]),
                                 (-1.0, 1.0), 4)
        assert counts.tolist() == [0, 0, 0, 1]

    def test_non_finite_scores(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="^scores must be finite$"):
                hist_accumulate(np.array([0.5, bad]), (0.0, 1.0), 8)

    def test_bin_count_must_be_at_least_two(self):
        for bins in (1, 0, -3):
            with pytest.raises(ValidationError,
                               match=f"^bin_count must be >= 2, got {bins}$"):
                hist_accumulate(np.array([0.5]), (0.0, 1.0), bins)

    @pytest.mark.parametrize("domain", [(1.0, 1.0), (2.0, 1.0), (0.0, np.inf),
                                        (np.nan, 1.0)])
    def test_domain_must_be_an_interval(self, domain):
        message = rf"^domain \[{domain[0]!r}, {domain[1]!r}\] is not an interval$"
        with pytest.raises(ValidationError, match=message):
            hist_accumulate(np.array([0.5]), domain, 8)
        # roc_curve places its thresholds over the same checked domain.
        with pytest.raises(ValidationError, match=message):
            roc_curve(_counts(1, 0), _counts(0, 1), domain)

    def test_domain_must_have_a_finite_width(self):
        # Both ends are doubles, but hi - lo overflows; binning would divide
        # by inf. Ends given as numpy scalars raise no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                           (-np.finfo(float).max, np.finfo(float).max)]:
                with pytest.raises(ValidationError, match="wider than the largest double"):
                    hist_accumulate(np.array([0.0]), (lo, hi), 4)
                with pytest.raises(ValidationError, match="wider than the largest double"):
                    roc_curve(_counts(1, 0, 0, 0), _counts(0, 0, 0, 1), (lo, hi))
        # A width just below the largest double is accepted.
        counts = hist_accumulate(np.array([-8.5e307, 0.0, 8.5e307]),
                                 (-8.5e307, 8.5e307), 4)
        assert counts.tolist() == [1, 0, 1, 1]


# Bin counts hist_auroc and roc_curve refuse, with the message of each.
_BAD_COUNTS = [
    (_counts(1), _counts(1), r"^counts must share one 1-D shape of at least 2 "
                             r"bins, got \(1,\) and \(1,\)$"),
    (_counts(1, 1, 1), _counts(1, 1),
     r"^counts must share one 1-D shape of at least 2 bins, got \(3,\) and \(2,\)$"),
    (np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64),
     r"^counts must share one 1-D shape of at least 2 bins, got \(2, 2\) and \(2, 2\)$"),
    (_counts(2, -1), _counts(1, 1), "^counts must be nonnegative$"),
    (_counts(1, 1), _counts(-1, 3), "^counts must be nonnegative$"),
    (_counts(1, 0), _counts(0, 0),
     "^both populations need at least one accumulated point$"),
    (_counts(0, 0), _counts(0, 1),
     "^both populations need at least one accumulated point$"),
]


class TestHistAuroc:
    def test_perfect_separation(self):
        counts_id, counts_ood = np.zeros((2, 8), dtype=np.int64)
        counts_id[0] = 10
        counts_ood[7] = 3
        assert hist_auroc(counts_id, counts_ood) == 1.0

    def test_identical_count_vectors(self):
        counts = _counts(3, 0, 5, 1, 0, 2, 4, 1)
        assert hist_auroc(counts, counts) == 0.5

    def test_matches_exact_on_quantized_scores(self):
        rng = np.random.default_rng(38)
        bins = 64
        centers = (np.arange(bins) + 0.5) / bins
        for _ in range(20):
            ids = centers[rng.integers(0, bins, size=300)]
            oods = centers[rng.integers(10, bins, size=200)]
            got = hist_auroc(hist_accumulate(ids, (0.0, 1.0), bins),
                             hist_accumulate(oods, (0.0, 1.0), bins))
            assert abs(got - exact_auroc(ids, oods)) <= 1e-12

    def test_matches_rational_oracle_with_huge_counts(self):
        # Counts this large would overflow a naive int64 accumulation.
        counts_id = [2 ** 31, 2 ** 30, 5, 0]
        counts_ood = [7, 2 ** 30, 2 ** 31, 3]
        expected = frac_hist_auroc(counts_id, counts_ood)
        assert hist_auroc(counts_id, counts_ood) == expected

    @pytest.mark.parametrize("counts_id, counts_ood, message", _BAD_COUNTS)
    def test_count_checks(self, counts_id, counts_ood, message):
        with pytest.raises(ValidationError, match=message):
            hist_auroc(counts_id, counts_ood)
        with pytest.raises(ValidationError, match=message):
            roc_curve(counts_id, counts_ood, (0.0, 1.0))

    def test_pooled_counts_equal_the_sum_of_per_cloud_counts(self):
        rng = np.random.default_rng(39)
        id_clouds = [rng.normal(size=rng.integers(10, 50)) for _ in range(3)]
        ood_clouds = [rng.normal(0.7, 1.0, size=rng.integers(10, 50))
                      for _ in range(2)]
        pooled = [hist_accumulate(np.concatenate(clouds), (-5.0, 5.0), 128)
                  for clouds in (id_clouds, ood_clouds)]
        summed = [sum(hist_accumulate(cloud, (-5.0, 5.0), 128) for cloud in clouds)
                  for clouds in (id_clouds, ood_clouds)]
        for a, b in zip(pooled, summed):
            np.testing.assert_array_equal(a, b)
        assert hist_auroc(*pooled) == hist_auroc(*summed)


class TestRocCurve:
    def test_shape_and_endpoints(self):
        curve = roc_curve(*_gauss_counts(np.random.default_rng(40), bins=128),
                          GAUSS_DOMAIN)
        assert curve.thresholds.shape == (128,)
        assert curve.fpr.shape == (129,)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert curve.thresholds[-1] == -6.0

    def test_area_equals_hist_auroc_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            counts = _gauss_counts(rng, n=500, bins=64)
            curve = roc_curve(*counts, GAUSS_DOMAIN)
            assert curve.auroc == hist_auroc(*counts)
            area = float(np.trapezoid(curve.tpr, curve.fpr))
            assert abs(area - curve.auroc) <= 1e-12

    def test_perfect_separation_passes_through_corner(self):
        counts_id, counts_ood = np.zeros((2, 16), dtype=np.int64)
        counts_id[1] = 9
        counts_ood[14] = 4
        curve = roc_curve(counts_id, counts_ood, (0.0, 1.0))
        corner = np.nonzero((curve.fpr == 0.0) & (curve.tpr == 1.0))[0]
        assert corner.size > 0
        assert curve.auroc == 1.0

    def test_identical_populations_track_the_diagonal(self):
        counts = np.random.default_rng(42).integers(0, 9, size=16)
        curve = roc_curve(counts, counts, (0.0, 1.0))
        np.testing.assert_array_equal(curve.fpr, curve.tpr)
        assert curve.auroc == 0.5

    def test_three_vs_two_fixture_binned_at_distinct_values(self):
        # Bins of width 0.05 isolate 0.1, 0.35, 0.4, and 0.8.
        curve = roc_curve(hist_accumulate([0.1, 0.4, 0.35], (0.0, 1.0), 20),
                          hist_accumulate([0.8, 0.4], (0.0, 1.0), 20), (0.0, 1.0))
        assert curve.auroc == 5.5 / 6
        area = float(np.trapezoid(curve.tpr, curve.fpr))
        assert abs(area - 5.5 / 6) <= 1e-12

    def test_curve_validation(self):
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.5]), np.array([0.0, 1.0]),
                     np.array([0.0, 1.0]), 0.25)
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.2, 0.5]), np.array([0.0, 0.4, 1.0]),
                     np.array([0.0, 0.8, 1.0]), 0.0)
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.5]), np.array([0.0, 0.5, 1.0]),
                     np.array([0.0, 1.0]), 0.5)
        with pytest.raises(ValidationError):
            RocCurve(np.array([0.5]), np.array([0.1, 1.0]),
                     np.array([0.0, 1.0]), 0.95)
        with pytest.raises(ValidationError, match="at least one threshold"):
            RocCurve(np.array([]), np.array([0.0]), np.array([0.0]), 0.0)
        with pytest.raises(ValidationError, match="fpr must be nondecreasing"):
            RocCurve(np.array([0.5, 0.3, 0.2]), np.array([0.0, 0.6, 0.4, 1.0]),
                     np.array([0.0, 0.5, 0.8, 1.0]), 0.5)

    @pytest.mark.parametrize("thresholds, fpr, tpr, auroc", [
        ([0.5, 0.25], [0.0, np.nan, 1.0], [0.0, 0.75, 1.0], 0.5),
        ([0.5, 0.25], [0.0, 0.5, 1.0], [0.0, np.nan, 1.0], 0.5),
        ([np.nan, 0.25], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], 0.5),
        ([np.inf, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.5),
        ([0.5, -np.inf], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.5),
        ([0.5], [0.0, 1.0], [0.0, 1.0], np.nan),
        ([0.5], [0.0, 1.0], [0.0, 1.0], np.inf),
    ])
    def test_non_finite_curve_values_are_refused(self, thresholds, fpr, tpr,
                                                 auroc):
        # A NaN passes every ordering and area comparison, so each would
        # be accepted without the finite check.
        with pytest.raises(ValidationError, match="^curve values must be finite$"):
            RocCurve(np.array(thresholds), np.array(fpr), np.array(tpr), auroc)


class TestOptimalThreshold:
    def test_matches_grid_search(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            curve = roc_curve(*_gauss_counts(rng, n=400, bins=64), GAUSS_DOMAIN)
            assert optimal_threshold(curve) == grid_search_threshold(curve)

    def test_gap_tie_break_returns_smallest_edge(self):
        counts_id, counts_ood = np.zeros((2, 8), dtype=np.int64)
        counts_id[0] = 5
        counts_ood[7] = 5
        curve = roc_curve(counts_id, counts_ood, (0.0, 1.0))
        threshold, j = optimal_threshold(curve)
        assert j == 1.0
        # Every edge from bin 1 up has J = 1; the smallest is edge 1.
        assert threshold == curve.thresholds[-2]
        assert threshold == 0.0 + (1.0 - 0.0) / 8 * 1

    def test_identical_populations_return_smallest_threshold(self):
        counts = _counts(0, 0, 0, 4, 0, 0, 0, 0)
        threshold, j = optimal_threshold(roc_curve(counts, counts, (0.0, 1.0)))
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
        counts, ignored = confusion_accumulate([1, 2, 2, 2], [1, 1, 2, 2], 2)
        metrics = seg_metrics(counts)
        assert counts.dtype == np.int64 and ignored == 0
        np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])
        assert metrics.per_class_iou[0] == 0.5
        assert metrics.per_class_iou[1] == 2 / 3
        assert metrics.mean_iou == 7 / 12
        assert metrics.accuracy == 3 / 4

    def test_identity_predictions(self):
        rng = np.random.default_rng(44)
        truth = rng.integers(1, 9, size=200)
        counts, _ = confusion_accumulate(truth, truth, 8)
        metrics = seg_metrics(counts)
        defined = ~np.isnan(metrics.per_class_iou)
        assert np.all(metrics.per_class_iou[defined] == 1.0)
        assert metrics.mean_iou == 1.0
        assert metrics.accuracy == 1.0

    def test_truth_all_zero(self):
        counts, ignored = confusion_accumulate([1, 2, 3], [0, 0, 0], 3)
        assert ignored == 3
        assert counts.sum() == 0
        with pytest.raises(ValidationError, match="^no labeled points accumulated; "
                                                  "metrics undefined$"):
            seg_metrics(counts)

    def test_no_points(self):
        counts, ignored = confusion_accumulate([], [], 2)
        assert counts.tolist() == [[0, 0], [0, 0]] and ignored == 0

    def test_label_range_errors_carry_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            confusion_accumulate([1, 1], [2, 4], 3)
        with pytest.raises(ValidationError, match="index 0"):
            confusion_accumulate([0, 1], [2, 2], 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError,
                           match="^2 predictions vs 1 truth labels$"):
            confusion_accumulate([1, 2], [1], 3)

    def test_n_classes_must_be_positive(self):
        for c in (0, -1):
            with pytest.raises(ValidationError,
                               match=f"^n_classes must be >= 1, got {c}$"):
                confusion_accumulate([], [], c)

    @pytest.mark.parametrize("counts, message", [
        (np.zeros((2, 3)), r"counts must be a square matrix, got shape \(2, 3\)"),
        (np.zeros(4), r"counts must be a square matrix, got shape \(4,\)"),
        ([[1, 0], [-1, 2]], "confusion counts must be nonnegative"),
        (np.zeros((0, 0)), "no labeled points accumulated; metrics undefined"),
    ])
    def test_seg_metrics_validation(self, counts, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            seg_metrics(counts)

    def test_chunked_counts_add_up_to_the_single_pass(self):
        rng = np.random.default_rng(45)
        truth = rng.integers(0, 5, size=300)
        pred = rng.integers(1, 5, size=300)
        single = confusion_accumulate(pred, truth, 4)
        parts = [confusion_accumulate(pred[lo:lo + 50], truth[lo:lo + 50], 4)
                 for lo in range(0, 300, 50)]
        np.testing.assert_array_equal(sum(c for c, _ in parts), single[0])
        assert sum(i for _, i in parts) == single[1]

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            truth = rng.integers(0, 9, size=n)
            pred = rng.integers(1, 9, size=n)
            if not (truth > 0).any():
                truth[0] = 1
            metrics = seg_metrics(confusion_accumulate(pred, truth, 8)[0])
            iou, mean, acc = seg_oracle(pred, truth, 8)
            np.testing.assert_array_equal(metrics.per_class_iou, iou)
            assert metrics.mean_iou == mean
            assert metrics.accuracy == acc

    def test_absent_class_is_excluded_from_mean(self):
        metrics = seg_metrics(confusion_accumulate([1, 2], [1, 2], 3)[0])
        assert np.isnan(metrics.per_class_iou[2])
        assert metrics.mean_iou == 1.0


# Scores that tie often, fall outside the domain [-1, 2], or both.
_SCORES = st.one_of(st.floats(-1.5, 2.5, allow_nan=False),
                    st.integers(-2, 3).map(float))


@st.composite
def _partitioned(draw, elements, min_size=0):
    """A list and the (start, stop) bounds of a partition of it into chunks,
    some possibly empty, listed in a drawn order."""
    values = draw(st.lists(elements, min_size=min_size, max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=6)))
    bounds = [0, *cuts, len(values)]
    return values, draw(st.permutations(list(zip(bounds, bounds[1:]))))


class TestPartitionProperties:
    """Counts of the parts of a partition add up to the counts of the whole,
    and histogram AUROC brackets the exact."""

    @settings(deadline=None)
    @given(_partitioned(_SCORES), st.integers(2, 16))
    def test_hist_counts_are_additive(self, partitioned, bins):
        values, chunks = partitioned
        whole = hist_accumulate(values, (-1.0, 2.0), bins)
        total = np.zeros(bins, dtype=np.int64)
        for a, b in chunks:
            total += hist_accumulate(values[a:b], (-1.0, 2.0), bins)
        np.testing.assert_array_equal(total, whole)
        assert whole.sum() == len(values)

    @settings(deadline=None)
    @given(st.integers(1, 5).flatmap(lambda c: st.tuples(
        st.just(c), _partitioned(st.tuples(st.integers(0, c), st.integers(1, c))))))
    def test_confusion_counts_are_additive(self, drawn):
        c, (pairs, chunks) = drawn
        truth = np.array([t for t, _ in pairs], dtype=np.int64)
        pred = np.array([p for _, p in pairs], dtype=np.int64)
        whole, whole_ignored = confusion_accumulate(pred, truth, c)
        total, ignored = np.zeros((c, c), dtype=np.int64), 0
        for a, b in chunks:
            counts, part_ignored = confusion_accumulate(pred[a:b], truth[a:b], c)
            total += counts
            ignored += part_ignored
        np.testing.assert_array_equal(total, whole)
        assert ignored == whole_ignored
        assert whole.sum() + whole_ignored == len(pairs)

    @settings(deadline=None)
    @given(st.lists(_SCORES, min_size=1, max_size=60),
           st.lists(_SCORES, min_size=1, max_size=60), st.integers(2, 64))
    def test_hist_auroc_within_the_bin_bound_of_exact(self, ids, oods, bins):
        # Binning is monotone, so only ID/OOD pairs sharing a bin can be
        # credited differently: 0.5 there, 0, 0.5 or 1 by the exact scores.
        counts_id = hist_accumulate(ids, (-1.0, 2.0), bins)
        counts_ood = hist_accumulate(oods, (-1.0, 2.0), bins)
        shared = int(np.dot(counts_id, counts_ood))
        bound = 0.5 * shared / (len(ids) * len(oods))
        got = hist_auroc(counts_id, counts_ood)
        assert abs(got - exact_auroc(ids, oods)) <= bound + 1e-12


class TestApplyThreshold:
    def test_basic(self):
        flags = apply_threshold(np.array([0.2, 0.8]), 0.5)
        assert flags.dtype == np.uint8 and flags.tolist() == [0, 1]
        with pytest.raises(ValueError):
            flags[0] = 1

    def test_boundary_is_ood(self):
        assert apply_threshold(np.array([0.5]), 0.5).tolist() == [1]

    def test_extreme_thresholds(self):
        values = np.array([0.0, 0.3, 0.5])
        assert apply_threshold(values, -1.0).tolist() == [1, 1, 1]
        assert apply_threshold(values, 2.0).tolist() == [0, 0, 0]

    def test_non_finite_threshold(self):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValidationError,
                               match=f"^threshold must be finite, got {value}$"):
                apply_threshold(np.array([0.5]), float(value))


class TestReportFormats:
    def test_metrics_report_round_trip(self):
        rng = np.random.default_rng(47)
        entries = [("command", "auroc"), ("n_id", 123456789),
                   ("tie_rule", "ties-credited-0.5")]
        values = rng.uniform(size=8)
        entries += [(f"auroc_k{i}", float(v)) for i, v in enumerate(values)]
        sink = io.BytesIO()
        write_metrics_report(entries, sink)
        back = read_report(io.BytesIO(sink.getvalue()))
        assert back["command"] == "auroc"
        assert int(back["n_id"]) == 123456789
        for i, v in enumerate(values):
            assert float(back[f"auroc_k{i}"]) == float(v)

    def test_report_rejects_bad_keys(self):
        with pytest.raises(ValidationError):
            write_metrics_report([("a=b", 1)], io.BytesIO())
        with pytest.raises(ValidationError):
            write_metrics_report([("", 1)], io.BytesIO())

    def test_roc_csv_round_trip_bitwise(self):
        curve = roc_curve(*_gauss_counts(np.random.default_rng(48), bins=32), GAUSS_DOMAIN)
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

    def test_numpy_floats_are_written_as_floats(self):
        # Under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)".
        sink = io.BytesIO()
        write_metrics_report([("auroc", np.float64(0.5))], sink)
        assert sink.getvalue() == b"auroc=0.5\n"
        curve = roc_curve(*_gauss_counts(np.random.default_rng(48), bins=4), GAUSS_DOMAIN)
        sink = io.BytesIO()
        write_roc_csv(curve, sink, metadata=[("youden_threshold", np.float64(0.25))])
        assert sink.getvalue().decode().splitlines()[-1] == "# youden_threshold=0.25"

    @pytest.mark.parametrize("text, message, quoted", [
        ("threshold,fpr,tpr\n# X\n", "line 2: bad metadata line {}", "# X"),
        ("threshold,fpr,tpr\n# X=1\n# X=2\n", "line 3: repeated metadata key {}", "X"),
        ("X\n", "line 1: expected header 'threshold,fpr,tpr', got {}", "X"),
        ("threshold,fpr,tpr\nX\n", "line 2: expected 3 fields, got {}", "X"),
        ("threshold,fpr,tpr\n0.5,X,1\n", "line 2: malformed row {}", "0.5,X,1"),
        ("threshold,fpr,tpr\n# auroc=X\n", "bad auroc metadata: {}", "X"),
    ])
    def test_roc_csv_errors_quote_at_most_80_characters(self, text, message, quoted):
        long = "x" * 10_000
        with pytest.raises(ValidationError) as exc:
            read_roc_csv(io.BytesIO(text.replace("X", long).encode()))
        cut = quoted.replace("X", long)[:80]
        assert str(exc.value) == message.format(repr(cut) + "...")

    def test_roc_csv_skips_blank_lines_and_needs_its_header(self):
        text = b"\nthreshold,fpr,tpr\n\n0.5,1.0,1.0\n  \n# auroc=0.5\n\n"
        curve, metadata = read_roc_csv(io.BytesIO(text))
        assert (curve.thresholds.tolist(), curve.auroc) == ([0.5], 0.5)
        assert metadata == {"auroc": "0.5"}
        with pytest.raises(ValidationError,
                           match="^missing 'threshold,fpr,tpr' header$"):
            read_roc_csv(io.BytesIO(b"\n# auroc=0.5\n"))

    def test_roc_csv_reads_metadata_before_its_header(self):
        text = (b"# kind=entropy\n\n# auroc=0.5\nthreshold,fpr,tpr\n"
                b"0.5,1.0,1.0\n# youden_threshold=0.5\n")
        curve, metadata = read_roc_csv(io.BytesIO(text))
        assert (curve.thresholds.tolist(), curve.auroc) == ([0.5], 0.5)
        assert metadata == {"kind": "entropy", "auroc": "0.5",
                            "youden_threshold": "0.5"}
        for text, message in [
                (b"# x\nthreshold,fpr,tpr\n", "line 1: bad metadata line '# x'"),
                (b"# auroc=0.5\nthreshold,fpr,tpr\n# auroc=0.25\n",
                 "line 3: repeated metadata key 'auroc'")]:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                read_roc_csv(io.BytesIO(text))

    def test_roc_csv_rejects_a_repeated_metadata_key(self):
        # A second value after the first must not take its place unseen.
        text = (b"threshold,fpr,tpr\n0.5,1.0,1.0\n# auroc=0.5\n"
                b"# youden_threshold=0.5\n# youden_threshold=0.0\n")
        with pytest.raises(ValidationError, match="^line 5: repeated metadata key "
                                                  "'youden_threshold'$"):
            read_roc_csv(io.BytesIO(text))

    @pytest.mark.parametrize("metadata, key", [
        ([("kind", "msp_complement"), ("kind", "entropy")], "kind"),
        ([("auroc", 0.5)], "auroc"),
    ])
    def test_roc_csv_writer_refuses_a_repeated_metadata_key(self, metadata, key):
        # read_roc_csv refuses such a file, so it is never written.
        curve = roc_curve(*_gauss_counts(np.random.default_rng(48), bins=4), GAUSS_DOMAIN)
        sink = io.BytesIO()
        with pytest.raises(ValidationError,
                           match=f"^repeated metadata key: '{key}'$"):
            write_roc_csv(curve, sink, metadata)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("rows", [
        "0.5,nan,0.75\n0.25,1.0,1.0\n# auroc=0.5\n",
        "0.5,0.5,nan\n0.25,1.0,1.0\n# auroc=0.5\n",
        "nan,0.5,0.5\n0.25,1.0,1.0\n# auroc=0.5\n",
        "inf,0.0,0.0\n0.5,1.0,1.0\n# auroc=0.5\n",
        "0.5,1.0,1.0\n# auroc=nan\n",
    ])
    def test_roc_csv_refuses_non_finite_values(self, rows):
        # Each of these files was read without error before the finite check.
        with pytest.raises(ValidationError, match="^curve values must be finite$"):
            read_roc_csv(io.BytesIO(f"threshold,fpr,tpr\n{rows}".encode()))

    def test_roc_csv_errors(self):
        with pytest.raises(ValidationError):
            read_roc_csv(io.BytesIO(b"0.5,0.1,0.2\n"))
        with pytest.raises(ValidationError):
            read_roc_csv(io.BytesIO(b"threshold,fpr,tpr\n0.5,0.1\n"))
        with pytest.raises(ValidationError):
            read_roc_csv(io.BytesIO(b"threshold,fpr,tpr\n1.0,1.0,1.0\n"))
