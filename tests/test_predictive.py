"""Tests for softmax, member averaging, and the PCOD tensor format."""

import io
import math
import struct

import numpy as np
import pytest

from pcood import (CapacityError, FormatError, PredictiveDistribution,
                   PredictiveTensor, StructuralError, TensorKind,
                   TruncatedStreamError, ValidationError, aggregate,
                   read_tensor, softmax_row, write_tensor)

_HEADER = struct.Struct("<4sHBBQHH")


def _prob_tensor(rng, k, n, c):
    """Random float32 probability tensor via float64 softmax of noise."""
    logits = rng.normal(size=(k, n, c))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=-1, keepdims=True)
    return PredictiveTensor(probs.astype(np.float32), TensorKind.PROBABILITIES)


class TestSoftmaxRow:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_row([0.0, 0.0, 0.0]),
                                   [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_max_shift_avoids_overflow(self):
        # Unshifted exp(1000) would overflow; exp(-1000) underflows to 0.
        out = softmax_row([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_closed_form_ratio(self):
        # exp(ln 2) / (exp(ln 2) + exp(0)) = 2/3.
        out = softmax_row([math.log(2.0), 0.0])
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], rtol=0, atol=1e-12)

    def test_shift_invariance_and_argmax(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = int(rng.integers(2, 10))
            z = rng.normal(scale=5.0, size=c)
            shift = float(rng.normal(scale=100.0))
            a = softmax_row(z)
            b = softmax_row(z + shift)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            assert abs(a.sum() - 1.0) <= 1e-12
            assert int(np.argmax(a)) == int(np.argmax(z))

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            softmax_row([np.nan, 0.0])
        with pytest.raises(ValidationError):
            softmax_row([np.inf, 0.0])
        with pytest.raises(ValidationError):
            softmax_row([])
        with pytest.raises(StructuralError):
            softmax_row([[0.0, 1.0]])


class TestTensorValidation:
    def test_shape_and_kind(self):
        with pytest.raises(StructuralError):
            PredictiveTensor(np.zeros((2, 3)), TensorKind.PROBABILITIES)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.zeros((2, 3, 4)), "probabilities")
        with pytest.raises(ValidationError):
            PredictiveTensor(np.zeros((0, 3, 4)), TensorKind.LOGITS)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.zeros((2, 3, 1)), TensorKind.LOGITS)

    def test_probability_invariants(self):
        good = np.full((1, 1, 2), 0.5, dtype=np.float32)
        PredictiveTensor(good, TensorKind.PROBABILITIES)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.array([[[0.7, 0.2]]]), TensorKind.PROBABILITIES)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.array([[[1.5, -0.5]]]), TensorKind.PROBABILITIES)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.array([[[np.nan, 1.0]]]), TensorKind.PROBABILITIES)

    def test_logits_may_be_any_finite_values(self):
        PredictiveTensor(np.array([[[-100.0, 250.0]]]), TensorKind.LOGITS)
        with pytest.raises(ValidationError):
            PredictiveTensor(np.array([[[np.inf, 0.0]]]), TensorKind.LOGITS)

    def test_distribution_invariants(self):
        PredictiveDistribution(np.array([[0.25, 0.75]]), members_used=1)
        with pytest.raises(ValidationError):
            PredictiveDistribution(np.array([[0.3, 0.6]]), members_used=1)
        with pytest.raises(ValidationError):
            PredictiveDistribution(np.array([[0.5, 0.5]]), members_used=0)
        with pytest.raises(ValidationError):
            PredictiveDistribution(np.array([[1.2, -0.2]]), members_used=1)

    def test_tensor_is_frozen(self):
        tensor = _prob_tensor(np.random.default_rng(0), 2, 3, 4)
        with pytest.raises(ValueError):
            tensor.values[0, 0, 0] = 0.5


class TestAggregate:
    def test_identical_members(self):
        member = np.array([[0.7, 0.3]], dtype=np.float32)
        tensor = PredictiveTensor(np.stack([member] * 4),
                                  TensorKind.PROBABILITIES)
        dist = aggregate(tensor, 4)
        np.testing.assert_array_equal(dist.probs,
                                      member.astype(np.float64))
        assert dist.members_used == 4

    def test_two_member_symmetry(self):
        values = np.array([[[1.0, 0.0]], [[0.0, 1.0]]], dtype=np.float32)
        tensor = PredictiveTensor(values, TensorKind.PROBABILITIES)
        np.testing.assert_array_equal(aggregate(tensor, 2).probs,
                                      np.array([[0.5, 0.5]]))

    def test_hand_average_of_first_two_members(self):
        values = np.array([[[0.6, 0.4]], [[0.2, 0.8]], [[0.4, 0.6]]],
                          dtype=np.float32)
        tensor = PredictiveTensor(values, TensorKind.PROBABILITIES)
        dist = aggregate(tensor, 2)
        # Oracle: average the two stored float32 rows by hand in float64.
        hand = (values[0].astype(np.float64) + values[1].astype(np.float64)) / 2
        np.testing.assert_allclose(dist.probs, hand, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.probs, [[0.4, 0.6]], rtol=0, atol=1e-6)

    def test_k_one_is_exact_passthrough(self):
        rng = np.random.default_rng(5)
        tensor = _prob_tensor(rng, 3, 20, 5)
        dist = aggregate(tensor, 1)
        np.testing.assert_array_equal(dist.probs,
                                      tensor.values[0].astype(np.float64))

    def test_logits_softmax_applied_per_member(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(2, 4, 3)).astype(np.float32)
        tensor = PredictiveTensor(logits, TensorKind.LOGITS)
        dist = aggregate(tensor, 1)
        expected = np.stack([softmax_row(row)
                             for row in logits[0].astype(np.float64)])
        np.testing.assert_array_equal(dist.probs, expected)

    def test_prefix_consistency(self):
        rng = np.random.default_rng(7)
        tensor = _prob_tensor(rng, 6, 15, 4)
        for k in (1, 2, 3, 6):
            prefix = PredictiveTensor(tensor.values[:k], tensor.kind)
            np.testing.assert_array_equal(aggregate(tensor, k).probs,
                                          aggregate(prefix, k).probs)

    def test_point_partition_consistency(self):
        rng = np.random.default_rng(10)
        probs = _prob_tensor(rng, 4, 12, 3)
        logits = PredictiveTensor(rng.normal(size=(4, 12, 3)).astype(np.float32),
                                  TensorKind.LOGITS)
        # Bounds of each partition of the 12 points, with empty and
        # one-point shards among them.
        partitions = ((0, 12), (0, 0, 12), (0, 1, 2, 7, 7, 12),
                      (0, 5, 6, 11, 12, 12))
        for tensor in (probs, logits):
            for k in (1, 3, 4):
                whole = aggregate(tensor, k).probs
                for bounds in partitions:
                    parts = [aggregate(tensor, k, a, b).probs
                             for a, b in zip(bounds, bounds[1:])]
                    np.testing.assert_array_equal(np.concatenate(parts), whole)
            with pytest.raises(ValidationError):
                aggregate(tensor, 0, 2, 5)
            with pytest.raises(ValidationError):
                aggregate(tensor, 5, 2, 5)

    def test_point_range_outside_tensor(self):
        tensor = _prob_tensor(np.random.default_rng(11), 2, 4, 2)
        for start, stop in ((-1, 2), (3, 2), (0, 5)):
            with pytest.raises(ValidationError):
                aggregate(tensor, 1, start, stop)

    def test_row_sums_near_one(self):
        rng = np.random.default_rng(8)
        tensor = _prob_tensor(rng, 10, 500, 8)
        for k in (1, 3, 10):
            dev = np.abs(aggregate(tensor, k).probs.sum(axis=1) - 1.0)
            assert dev.max() <= 1e-6

    def test_k_out_of_range(self):
        tensor = _prob_tensor(np.random.default_rng(9), 3, 4, 2)
        with pytest.raises(ValidationError):
            aggregate(tensor, 0)
        with pytest.raises(ValidationError):
            aggregate(tensor, 4)


class TestTensorFormat:
    def test_round_trip_probabilities(self):
        tensor = _prob_tensor(np.random.default_rng(10), 2, 3, 4)
        sink = io.BytesIO()
        write_tensor(tensor, sink)
        back = read_tensor(io.BytesIO(sink.getvalue()))
        assert back.kind is TensorKind.PROBABILITIES
        np.testing.assert_array_equal(back.values, tensor.values)

    def test_round_trip_logits(self):
        rng = np.random.default_rng(11)
        tensor = PredictiveTensor(rng.normal(size=(3, 5, 2)).astype(np.float32),
                                  TensorKind.LOGITS)
        sink = io.BytesIO()
        write_tensor(tensor, sink)
        back = read_tensor(io.BytesIO(sink.getvalue()))
        assert back.kind is TensorKind.LOGITS
        np.testing.assert_array_equal(back.values, tensor.values)

    def test_header_layout(self):
        tensor = _prob_tensor(np.random.default_rng(12), 2, 3, 4)
        blob = io.BytesIO()
        write_tensor(tensor, blob)
        data = blob.getvalue()
        magic, version, kind, reserved, n, c, k = _HEADER.unpack(data[:20])
        assert magic == b"PCOD"
        assert (version, kind, reserved) == (1, 0, 0)
        assert (n, c, k) == (3, 4, 2)
        assert len(data) == 20 + 4 * 2 * 3 * 4

    def test_bad_magic(self):
        blob = b"XXXX" + bytes(16)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(blob))

    def test_bad_version(self):
        blob = _HEADER.pack(b"PCOD", 2, 0, 0, 1, 2, 1) + bytes(8)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(blob))

    def test_bad_kind_code(self):
        blob = _HEADER.pack(b"PCOD", 1, 7, 0, 1, 2, 1) + bytes(8)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(blob))

    def test_nonzero_reserved_byte(self):
        blob = _HEADER.pack(b"PCOD", 1, 0, 9, 1, 2, 1) + bytes(8)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(blob))

    def test_degenerate_dimensions(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(_HEADER.pack(b"PCOD", 1, 0, 0, 1, 2, 0)))
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(_HEADER.pack(b"PCOD", 1, 0, 0, 1, 1, 1)))

    def test_truncated_header(self):
        with pytest.raises(TruncatedStreamError):
            read_tensor(io.BytesIO(b"PCOD\x01"))

    def test_truncated_payload(self):
        # Declares N=1, C=2, K=1 (8 payload bytes) but carries one float.
        blob = _HEADER.pack(b"PCOD", 1, 1, 0, 1, 2, 1) + struct.pack("<f", 0.5)
        with pytest.raises(TruncatedStreamError):
            read_tensor(io.BytesIO(blob))

    def test_capacity_guard(self):
        blob = _HEADER.pack(b"PCOD", 1, 1, 0, 2 ** 60, 8, 20)
        with pytest.raises(CapacityError):
            read_tensor(io.BytesIO(blob))

    def test_empty_tensor_round_trip(self):
        tensor = PredictiveTensor(np.zeros((2, 0, 3), dtype=np.float32),
                                  TensorKind.PROBABILITIES)
        sink = io.BytesIO()
        write_tensor(tensor, sink)
        back = read_tensor(io.BytesIO(sink.getvalue()))
        assert back.n_points == 0
        assert back.n_classes == 3
