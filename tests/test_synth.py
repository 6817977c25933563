"""Tests for the synthetic Gaussian scores and prediction tensors.

The closed-form Gaussian AUROC is cross-checked against scipy's normal
CDF, and the empirical statistics of the generated data are held to
oracle values within standard-error bounds. Bit-level reproducibility
under chunking is asserted everywhere, since it is what makes worker
counts irrelevant to the output.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from pcodref import members, stream_means, synth_pair
from pcood import (GaussianPairSpec, ScoreKind, ValidationError,
                   analytic_auroc, exact_auroc, sample_scores,
                   sample_scores_chunk, score_distribution, synth_member,
                   synth_true_classes)
from pcood.synth import _check_tensor_args


def hanley_mcneil_se(auc, n1, n2):
    """Standard error of an empirical AUROC (Hanley-McNeil)."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (auc * (1.0 - auc) + (n1 - 1) * (q1 - auc * auc)
           + (n2 - 1) * (q2 - auc * auc)) / (n1 * n2)
    return math.sqrt(var)


def _spec(**overrides):
    base = dict(mu_id=0.0, sigma_id=1.0, mu_ood=1.0, sigma_ood=1.0,
                n_id=100, n_ood=100, seed=11)
    base.update(overrides)
    return GaussianPairSpec(**base)


class TestSpecValidation:
    def test_accepts_reasonable_spec(self):
        spec = _spec()
        assert spec.n_id == 100

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            _spec(mu_id=float("nan"))
        with pytest.raises(ValidationError):
            _spec(sigma_ood=0.0)
        with pytest.raises(ValidationError):
            _spec(sigma_id=-1.0)
        with pytest.raises(ValidationError):
            _spec(n_id=0)
        with pytest.raises(ValidationError):
            _spec(seed=-1)
        with pytest.raises(ValidationError):
            _spec(seed=2 ** 64)


class TestAnalyticAuroc:
    def test_equal_means_give_half(self):
        assert analytic_auroc(_spec(mu_ood=0.0)) == 0.5
        assert analytic_auroc(_spec(mu_ood=0.0, sigma_ood=3.0)) == 0.5

    def test_unit_shift_value(self):
        assert abs(analytic_auroc(_spec()) - 0.76025) <= 5e-6

    def test_three_sigma_shift_value(self):
        assert abs(analytic_auroc(_spec(mu_ood=3.0)) - 0.98305) <= 5e-6

    def test_matches_normal_cdf_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            spec = _spec(mu_id=float(rng.normal()), mu_ood=float(rng.normal()),
                         sigma_id=float(rng.uniform(0.1, 3.0)),
                         sigma_ood=float(rng.uniform(0.1, 3.0)))
            z = (spec.mu_ood - spec.mu_id) / math.hypot(spec.sigma_id,
                                                        spec.sigma_ood)
            assert abs(analytic_auroc(spec) - norm.cdf(z)) <= 1e-12

    def test_swapping_populations_complements(self):
        spec = _spec(mu_ood=0.7, sigma_ood=2.0)
        flipped = _spec(mu_id=0.7, sigma_id=2.0, mu_ood=0.0, sigma_ood=1.0)
        assert abs(analytic_auroc(spec) + analytic_auroc(flipped) - 1.0) <= 1e-12


class TestSampling:
    def test_deterministic(self):
        a_id, a_ood = sample_scores(_spec())
        b_id, b_ood = sample_scores(_spec())
        np.testing.assert_array_equal(a_id, b_id)
        np.testing.assert_array_equal(a_ood, b_ood)

    def test_chunks_concatenate_to_full_draw(self):
        spec = _spec(n_id=97)
        full = sample_scores_chunk(spec, "id", 0, 97)
        # Odd offsets exercise mid-block counter positioning.
        parts = [sample_scores_chunk(spec, "id", a, b)
                 for a, b in ((0, 5), (5, 6), (6, 31), (31, 97))]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_chunk_is_a_slice_of_the_full_draw(self):
        spec = _spec(n_ood=50)
        full = sample_scores_chunk(spec, "ood", 0, 50)
        np.testing.assert_array_equal(sample_scores_chunk(spec, "ood", 13, 42),
                                      full[13:42])

    def test_populations_and_seeds_are_independent(self):
        id_scores, ood_scores = sample_scores(_spec(mu_ood=0.0))
        assert not np.array_equal(id_scores, ood_scores)
        other_id, _ = sample_scores(_spec(seed=12))
        assert not np.array_equal(id_scores, other_id)

    def test_moments_match_spec(self):
        spec = _spec(mu_id=2.0, sigma_id=0.5, n_id=200000)
        scores = sample_scores_chunk(spec, "id", 0, spec.n_id)
        # 5 sigma bounds on the sample mean and sd.
        assert abs(scores.mean() - 2.0) <= 5 * 0.5 / math.sqrt(spec.n_id)
        assert abs(scores.std() - 0.5) <= 0.01

    def test_empirical_auroc_converges_to_analytic(self):
        for n in (1000, 20000):
            spec = _spec(n_id=n, n_ood=n, seed=1234)
            ids, oods = sample_scores(spec)
            target = analytic_auroc(spec)
            se = hanley_mcneil_se(target, n, n)
            assert abs(exact_auroc(ids, oods) - target) <= 5 * se

    def test_chunk_bounds(self):
        spec = _spec(n_id=10)
        with pytest.raises(ValidationError):
            sample_scores_chunk(spec, "id", -1, 5)
        with pytest.raises(ValidationError):
            sample_scores_chunk(spec, "id", 0, 11)
        with pytest.raises(ValidationError):
            sample_scores_chunk(spec, "id", 7, 6)
        with pytest.raises(ValidationError):
            sample_scores_chunk(spec, "train", 0, 5)


class TestTrueClasses:
    def test_range_and_determinism(self):
        a = synth_true_classes(500, 8, 21, 0, 500)
        b = synth_true_classes(500, 8, 21, 0, 500)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 7

    def test_partition_invariance(self):
        full = synth_true_classes(100, 5, 22, 0, 100)
        parts = [synth_true_classes(100, 5, 22, a, b)
                 for a, b in ((0, 3), (3, 50), (50, 100))]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_roughly_uniform(self):
        labels = synth_true_classes(8000, 8, 23, 0, 8000)
        counts = np.bincount(labels, minlength=8)
        assert counts.min() > 850 and counts.max() < 1150


class TestTensors:
    def test_deterministic(self):
        assert synth_pair(40, 6, 3, 2.0, 31) == synth_pair(40, 6, 3, 2.0, 31)

    def test_block_partition_invariance(self):
        edges = [0, 7, 8, 33, 60]
        for m in (0, 1):
            full_id, full_ood = synth_member(60, 4, 1.5, 32, m, 0, 60)
            parts = [synth_member(60, 4, 1.5, 32, m, a, b)
                     for a, b in zip(edges, edges[1:])]
            np.testing.assert_array_equal(
                np.concatenate([p[0] for p in parts]), full_id)
            np.testing.assert_array_equal(
                np.concatenate([p[1] for p in parts]), full_ood)

    def test_member_blocks_do_not_depend_on_member_count(self):
        one_id, one_ood = map(members, synth_pair(50, 4, 1, 2.0, 33))
        many_id, many_ood = map(members, synth_pair(50, 4, 3, 2.0, 33))
        np.testing.assert_array_equal(many_id[0], one_id[0])
        np.testing.assert_array_equal(many_ood[0], one_ood[0])
        for m in range(3):
            id_rows, ood_rows = synth_member(50, 4, 2.0, 33, m, 0, 50)
            assert id_rows.dtype == ood_rows.dtype == np.float32
            np.testing.assert_array_equal(id_rows, many_id[m])
            np.testing.assert_array_equal(ood_rows, many_ood[m])

    def test_rows_are_probabilities(self):
        for values in map(members, synth_pair(200, 8, 2, 3.0, 34)):
            assert values.dtype == np.float32
            assert values.min() >= 0.0
            sums = values.sum(axis=-1, dtype=np.float64)
            assert np.abs(sums - 1.0).max() <= 1e-5

    def test_id_and_ood_use_separate_noise(self):
        id_values, ood_values = map(members, synth_pair(30, 4, 1, 0.0, 35))
        assert not np.array_equal(id_values, ood_values)

    def test_zero_separability_gives_chance_auroc(self):
        n = 20000
        scores = []
        for blob in synth_pair(n, 8, 1, 0.0, 36):
            dist = stream_means(blob, [1])[1]
            scores.append(score_distribution(dist, ScoreKind.MSP_COMPLEMENT))
        auroc = exact_auroc(scores[0], scores[1])
        assert abs(auroc - 0.5) <= 5 * hanley_mcneil_se(0.5, n, n)

    def test_high_separability_is_nearly_perfect(self):
        scores = []
        for blob in synth_pair(2000, 8, 2, 50.0, 37):
            dist = stream_means(blob, [2])[2]
            scores.append(score_distribution(dist, ScoreKind.ENTROPY))
        auroc = exact_auroc(scores[0], scores[1])
        assert auroc >= 0.995

    def test_separability_orders_auroc(self):
        aurocs = []
        for sep in (0.5, 2.0, 6.0):
            pair = []
            for blob in synth_pair(3000, 8, 1, sep, 38):
                dist = stream_means(blob, [1])[1]
                pair.append(score_distribution(dist, ScoreKind.MSP_COMPLEMENT))
            aurocs.append(exact_auroc(pair[0], pair[1]))
        assert aurocs[0] < aurocs[1] < aurocs[2]

    def test_argument_validation(self):
        with pytest.raises(ValidationError, match="n_points must be >= 0"):
            synth_member(-1, 8, 1.0, 39, 0, 0, 0)
        # `synth tensor` checks its member count before it writes a header.
        with pytest.raises(ValidationError, match="at least one member"):
            _check_tensor_args(10, 8, 0, 1.0, 39)
        with pytest.raises(ValidationError):
            synth_member(10, 8, float("inf"), 39, 0, 0, 10)
        with pytest.raises(ValidationError):
            synth_member(10, 8, 1.0, -3, 0, 0, 10)
        for start, stop in ((4, 11), (-1, 3), (6, 5)):
            with pytest.raises(ValidationError, match="outside 0..10"):
                synth_member(10, 8, 1.0, 39, 0, start, stop)
        with pytest.raises(ValidationError, match="member index"):
            synth_member(10, 8, 1.0, 39, -1, 0, 10)
        with pytest.raises(ValidationError, match="two classes"):
            synth_member(10, 1, 1.0, 39, 0, 0, 10)
