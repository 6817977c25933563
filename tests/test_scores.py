"""Tests for the MSP-complement and entropy scores and their CSV dump."""

import functools
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from pcodref import pcod_bytes
from pcood import (ScoreKind, TensorKind, TensorStream,
                   ValidationError, exact_auroc, write_header,
                   write_member, hist_accumulate, hist_auroc,
                   read_scores_csv, score_distribution, score_domain,
                   write_scores_csv)
from pcood import scores


def _simplex_rows(rng, n, c):
    probs = rng.dirichlet(np.ones(c), size=n)
    return probs / probs.sum(axis=1, keepdims=True)


def msp_complement(row) -> float:
    return float(score_distribution(np.array([row], dtype=np.float64),
                                    ScoreKind.MSP_COMPLEMENT)[0])


def entropy(row) -> float:
    return float(score_distribution(np.array([row], dtype=np.float64),
                                    ScoreKind.ENTROPY)[0])


def _reference_entropy(row) -> float:
    """Shannon entropy in plain floats, 0 ln 0 = 0 below the score's floor."""
    return -sum(p * math.log(p) for p in row if p >= 1e-12)


class TestRowScores:
    """Scores of one-row arrays; rows are checked only where tensors are."""

    def test_one_hot_is_zero_for_both(self):
        row = [1.0, 0.0, 0.0, 0.0]
        assert msp_complement(row) == 0.0
        assert entropy(row) == 0.0

    def test_uniform_maximizes_both(self):
        row = [0.125] * 8
        assert msp_complement(row) == 0.875
        assert abs(entropy(row) - math.log(8)) <= 1e-12

    def test_two_class_closed_forms(self):
        assert abs(entropy([0.5, 0.5]) - math.log(2)) <= 1e-12
        assert abs(msp_complement([0.7, 0.2, 0.1]) - 0.3) <= 1e-12

    def test_row_sum_tolerance(self):
        def member(row):
            write_member(io.BytesIO(), np.array([row], dtype=np.float32),
                         TensorKind.PROBABILITIES, 0)

        member([0.7, 0.2, 0.1 + 9e-6])
        with pytest.raises(ValidationError,
                           match=r"^member 0 point 0: probability row sums to 1\.09+"):
            member([0.7, 0.2, 0.2])

    def test_bad_rows(self):
        for row, message in (([-0.1, 1.1], "probability entries must lie in [0, 1]"),
                             ([0.5, np.nan], "tensor values must be finite")):
            with pytest.raises(ValidationError) as exc:
                write_member(io.BytesIO(), np.array([row]),
                             TensorKind.PROBABILITIES, 0)
            assert str(exc.value) == message
        with pytest.raises(ValidationError):
            write_header(io.BytesIO(), TensorKind.PROBABILITIES, 1, 0, 1)

    def test_denormal_entries_do_not_produce_nan(self):
        row = [1.0, 5e-324, 0.0, 0.0]
        assert entropy(row) == 0.0
        assert msp_complement(row) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            row = _simplex_rows(rng, 1, int(rng.integers(2, 9)))[0]
            perm = rng.permutation(row.size)
            assert msp_complement(row) == msp_complement(row[perm])
            assert abs(entropy(row) - entropy(row[perm])) <= 1e-12

    def test_zero_scores_only_for_one_hot(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            row = _simplex_rows(rng, 1, 5)[0]
            if row.max() < 1.0:
                assert msp_complement(row) > 0.0
                assert entropy(row) > 0.0


class TestDomain:
    def test_bounds(self):
        assert score_domain(ScoreKind.MSP_COMPLEMENT, 8) == (0.0, 0.875)
        lo, hi = score_domain(ScoreKind.ENTROPY, 8)
        assert lo == 0.0 and hi == math.log(8)
        with pytest.raises(ValidationError):
            score_domain(ScoreKind.ENTROPY, 1)

    @pytest.mark.parametrize("kind", ["entropy", TensorKind.PROBABILITIES, None])
    def test_kind_that_is_no_score_kind(self, kind):
        message = f"^unknown score kind: {re.escape(repr(kind))}$"
        with pytest.raises(ValidationError, match=message):
            score_domain(kind, 8)
        with pytest.raises(ValidationError, match=message):
            score_distribution(np.full((2, 4), 0.25), kind)

    def test_scores_of_valid_rows_stay_in_domain(self):
        rng = np.random.default_rng(23)
        for c in (2, 3, 8):
            probs = _simplex_rows(rng, 200, c)
            for kind in ScoreKind:
                lo, hi = score_domain(kind, c)
                values = score_distribution(probs, kind)
                assert values.min() >= lo
                assert values.max() <= hi + 1e-9


class TestScoreDistribution:
    def test_matches_row_functions(self):
        rng = np.random.default_rng(24)
        probs = _simplex_rows(rng, 64, 6)
        msp = score_distribution(probs, ScoreKind.MSP_COMPLEMENT)
        ent = score_distribution(probs, ScoreKind.ENTROPY)
        np.testing.assert_array_equal(msp, [1.0 - max(row) for row in probs.tolist()])
        np.testing.assert_allclose(
            ent, [_reference_entropy(row) for row in probs.tolist()], rtol=0, atol=1e-12)

    def test_one_hot_and_uniform_rows(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        ent = score_distribution(probs, ScoreKind.ENTROPY)
        assert ent[0] == 0.0
        assert abs(ent[1] - math.log(4)) <= 1e-12

    def test_empty_distribution(self):
        for kind in ScoreKind:
            assert score_distribution(np.zeros((0, 3)), kind).shape == (0,)

    def test_result_is_a_frozen_float64_array(self):
        for kind in ScoreKind:
            values = score_distribution(np.array([[0.9, 0.1]]), kind)
            assert values.dtype == np.float64
            with pytest.raises(ValueError):
                values[0] = 0.5

    def test_order_preserved(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.6, 0.4]])
        values = score_distribution(probs, ScoreKind.MSP_COMPLEMENT)
        np.testing.assert_allclose(values, [0.1, 0.5, 0.4],
                                   rtol=0, atol=1e-12)

    def test_two_class_rankings_coincide(self):
        # For C = 2 entropy is a strictly increasing function of the MSP
        # complement, so both kinds induce the same AUROC.
        rng = np.random.default_rng(25)
        for _ in range(10):
            id_probs = _simplex_rows(rng, 80, 2)
            ood_probs = _simplex_rows(rng, 60, 2)
            aurocs = []
            for kind in ScoreKind:
                a = score_distribution(id_probs, kind)
                b = score_distribution(ood_probs, kind)
                aurocs.append(exact_auroc(a, b))
            assert aurocs[0] == aurocs[1]


@st.composite
def _probability_row(draw, c):
    """A float32 row near the simplex: random, one-hot, or 1/C shifted by
    a few ulps per entry, then maybe scaled by up to 1e-5 either way."""
    shape = draw(st.sampled_from(["random", "one_hot", "near_uniform"]))
    if shape == "random":
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=c,
                                         max_size=c)))
        assume(weights.sum() > 0.0)
        row = weights / weights.sum()
    elif shape == "one_hot":
        row = np.eye(c)[draw(st.integers(0, c - 1))]
    else:
        ulps = draw(st.lists(st.integers(-4, 4), min_size=c, max_size=c))
        row = (np.full(c, np.float32(1 / c)).view(np.int32)
               + np.array(ulps, dtype=np.int32)).view(np.float32)
    scale = draw(st.sampled_from([0.0, 0.0, 9.9e-6, -9.9e-6])
                 | st.floats(-9.9e-6, 9.9e-6))
    return np.clip(row * (1.0 + scale), 0.0, 1.0).astype(np.float32)


@st.composite
def _accepted_tensors(draw):
    """PCOD bytes of probability members that the writer accepts."""
    k, n, c = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(2, 9))
    rows = [draw(_probability_row(c)) for _ in range(k * n)]
    try:
        return pcod_bytes(np.reshape(rows, (k, n, c)))
    except ValidationError:
        assume(False)


class TestValidatedTensorsScore:
    """A tensor checked on write and read is trusted all the way to the AUROC."""

    @settings(max_examples=300, deadline=None)
    @given(_accepted_tensors())
    @example(pcod_bytes(np.full((1, 2, 2), 0.500004, dtype=np.float32)))
    @example(pcod_bytes(
        np.full((2, 3, 3), np.nextafter(np.float32(1 / 3), np.float32(0)))))
    def test_accepted_tensor_goes_through_every_stage(self, blob):
        stream = TensorStream(io.BytesIO(blob))
        for k, total in stream.sums(range(1, stream.n_members + 1)):
            probs = total / k
            for kind in ScoreKind:
                values = score_distribution(probs, kind)
                assert values.shape == (stream.n_points,)
                assert np.isfinite(values).all()
                counts = hist_accumulate(values,
                                         score_domain(kind, stream.n_classes))
                assert hist_auroc(counts, counts) == 0.5
                assert exact_auroc(values, values) == 0.5


_FLOOR = scores.ENTROPY_PROB_FLOOR
_FLOOR_NEIGHBOURS = (np.nextafter(_FLOOR, 0.0), _FLOOR, np.nextafter(_FLOOR, 1.0))


@functools.cache
def _hard_probabilities() -> list:
    """float32 values whose numpy log differs from libm's: rows of them are
    where an entropy by numpy's log would differ from the exact one."""
    p = np.random.default_rng(32).uniform(0.01, 0.5, 50_000)
    p = p.astype(np.float32).astype(np.float64)
    differs = np.log(p) != np.array([math.log(v) for v in p.tolist()])
    return p[differs].tolist() or [0.3]


@st.composite
def _two_hot_row(draw, c):
    """A float32 row of p and 1 - p, p one of the hard probabilities."""
    p = np.float32(draw(st.sampled_from(_hard_probabilities())))
    i = draw(st.integers(0, c - 1))
    row = np.zeros(c, dtype=np.float32)
    row[i], row[(i + draw(st.integers(1, c - 1))) % c] = p, 1 - p
    return row


@st.composite
def _member_means(draw):
    """(N, C) float64 means of k float32 members, as TensorStream forms
    them, with some entries set at or next to the entropy floor."""
    c = draw(st.sampled_from([2, 8, 19, 64]))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rows = np.array([draw(_probability_row(c) | _two_hot_row(c))
                     for _ in range(k * n)])
    probs = rows.reshape(k, n, c).astype(np.float64).sum(axis=0) / k
    for i, j, value in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, c - 1),
            st.sampled_from(_FLOOR_NEIGHBOURS)), max_size=6)):
        probs[i, j] = value
    return probs


def _xlogy_entropy(probs) -> np.ndarray:
    """Entropy by scipy's xlogy, the definition the score must match."""
    c = np.where(probs < _FLOOR, 0.0, probs)
    return np.maximum(-xlogy(c, c).sum(axis=1), 0.0)


class TestExactEntropy:
    """Entropy scores carry the bits of scipy's xlogy, without scipy."""

    @settings(max_examples=200, deadline=None)
    @given(_member_means())
    @example(np.full((1, 8), 0.125))
    @example(np.eye(19)[:3])
    def test_entropy_is_xlogy_bit_for_bit(self, probs):
        want = _xlogy_entropy(probs).view(np.int64)
        got = score_distribution(probs, ScoreKind.ENTROPY)
        np.testing.assert_array_equal(got.view(np.int64), want)
        # The same bits where libm's log is taken through math.log.
        with mock.patch.object(scores, "_strided_log_is_libm", lambda: False):
            got = score_distribution(probs, ScoreKind.ENTROPY)
        np.testing.assert_array_equal(got.view(np.int64), want)


class TestCsv:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(26)
        values = rng.uniform(0, 0.875, size=100)
        sink = io.BytesIO()
        write_scores_csv(values, sink)
        back = read_scores_csv(io.BytesIO(sink.getvalue()))
        np.testing.assert_array_equal(back, values)

    def test_raw_array_accepted(self):
        sink = io.BytesIO()
        write_scores_csv(np.array([1.5, -2.25]), sink)
        text = sink.getvalue().decode()
        assert text.splitlines()[0] == "index,score"
        np.testing.assert_array_equal(read_scores_csv(io.BytesIO(sink.getvalue())),
                                      [1.5, -2.25])

    def test_missing_header(self):
        with pytest.raises(ValidationError):
            read_scores_csv(io.BytesIO(b"0,0.5\n"))

    def test_malformed_row(self):
        with pytest.raises(ValidationError, match="line 2"):
            read_scores_csv(io.BytesIO(b"index,score\n0;0.5\n"))

    def test_out_of_order_index(self):
        with pytest.raises(ValidationError):
            read_scores_csv(io.BytesIO(b"index,score\n1,0.5\n"))
