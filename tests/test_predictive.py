"""Tests for softmax, member averaging, and the PCOD tensor format.

Tensors are written with ``write_header``/``write_member`` and read with
``TensorStream``; every mean is held bit for bit to the reference in
``pcodref``, which decodes the bytes by hand.
"""

import hashlib
import io
import math
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcodref import (HEADER, members, pcod_bytes, reference_check,
                     reference_mean, stream_means)
from pcood import (TensorKind, TensorStream, TruncatedStreamError,
                   ValidationError, write_header, write_member)
from pcood import predictive
from pcood.predictive import (PROB_ROW_SUM_TOL, _check_member, _row_max,
                              _softmax_rows)

PROBS, LOGITS = TensorKind.PROBABILITIES, TensorKind.LOGITS


def _prob_values(rng, k, n, c):
    """Random float32 (K, N, C) probabilities via float64 softmax of noise."""
    logits = rng.normal(size=(k, n, c))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=-1, keepdims=True)
    return probs.astype(np.float32)


def _prob_tensor(rng, k, n, c):
    """PCOD bytes of random float32 probability members."""
    return pcod_bytes(_prob_values(rng, k, n, c))


def _same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def softmax_row(logits):
    """The softmax of one row, through the (N, C) routine the means use."""
    return _softmax_rows(np.array([logits], dtype=np.float64))[0]


@st.composite
def _row_arrays(draw, nan: bool):
    """(N, C) float64 arrays with signed zeros, huge magnitudes and, if
    `nan`, NaN entries."""
    n, c = draw(st.integers(0, 5)), draw(st.integers(2, 64))
    specials = [0.0, -0.0, 1e300, -1e300, 5e-324] + ([math.nan] if nan else [])
    elements = st.sampled_from(specials) | st.floats(-1e300, 1e300)
    values = draw(st.lists(elements, min_size=n * c, max_size=n * c))
    return np.array(values, dtype=np.float64).reshape(n, c)


class TestRowKernels:
    """The row kernels against plain numpy, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_row_arrays(nan=True))
    def test_row_max_is_the_numpy_max(self, x):
        want = x.max(axis=1)
        got = _row_max(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        # A zero maximum may carry either sign; 1 - max cannot see it.
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert (got[~nonzero] == 0.0).all()
        assert (1.0 - got).tobytes() == (1.0 - want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_row_arrays(nan=False), st.booleans())
    def test_softmax_rows_is_the_numpy_softmax(self, x, single):
        if single:  # float32 logits, as a logit tensor holds them
            x = np.clip(x, -3e38, 3e38).astype(np.float32)
        wide = x.astype(np.float64)
        expd = np.exp(wide - wide.max(axis=1, keepdims=True))
        want = expd / expd.sum(axis=1, keepdims=True)
        got = _softmax_rows(x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@st.composite
def _rows_at_the_tolerance(draw):
    """(N, C) float32 rows in [0, 1] whose float64 sums lie a few float32
    ulps of their last entry on either side of 1 - TOL or 1 + TOL."""
    c = draw(st.sampled_from([2, 8, 17, 64, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        target = 1.0 + draw(st.sampled_from([-1, 1])) * PROB_ROW_SUM_TOL
        weights = rng.random(c)
        head = (weights[1:] * (target / weights.sum())).astype(np.float32)
        last = np.float32(target - math.fsum(head.tolist()))
        shift = draw(st.integers(-8, 8))
        for _ in range(abs(shift)):
            last = np.nextafter(last, np.float32(shift))
        rows.append(rng.permutation(np.append(head, last)))
    return np.array(rows, dtype=np.float32)


class TestRowSumScreen:
    """The float32 row-sum screen changes no check outcome and no message."""

    @settings(max_examples=400, deadline=None)
    @given(_rows_at_the_tolerance(), st.integers(0, 30))
    # Float64 row sums off 1 by 1.0015e-5 and 1.0006e-5, rejected, whose
    # float32 sums (einsum, numpy 2.4, x86-64) lie inside the tolerance.
    @example(np.array([
        [0.21307016909122467, 0.12106054276227951, 0.024519985541701317,
         0.157087042927742, 0.15465441346168518, 0.05520396679639816,
         0.10974744707345963, 0.16464641690254211],
        [0.311257928609848, 0.0762673169374466, 0.08436189591884613,
         0.2500166893005371, 0.21460551023483276, 0.04838653281331062,
         0.010538454167544842, 0.004575678147375584]], dtype=np.float32), 0)
    def test_check_is_the_float64_rule(self, rows, member):
        want = reference_check(rows, member)
        if want is None:
            _check_member(rows, PROBS, member)
        else:
            with pytest.raises(ValidationError) as got:
                _check_member(rows, PROBS, member)
            assert str(got.value) == want


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
        # Logits are checked where a tensor is written or read, never again.
        for row in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
            values = np.array([row], dtype=np.float32)
            with pytest.raises(ValidationError, match="^tensor values must be finite$"):
                write_member(io.BytesIO(), values, LOGITS, 0)
            sink = io.BytesIO()
            sink.write(HEADER.pack(b"PCOD", 1, 1, 0, 1, 2, 1))
            sink.write(values.astype("<f4").tobytes())
            sink.seek(0)
            with pytest.raises(ValidationError, match="^tensor values must be finite$"):
                list(TensorStream(sink).sums([1]))
        with pytest.raises(ValidationError):
            write_header(io.BytesIO(), LOGITS, 1, 0, 1)


class TestTensorValidation:
    def test_shape_and_kind(self):
        # A header the reader would reject is never written.
        for n, c, k in ((3, 4, 0), (3, 1, 2), (3, 0, 2)):
            sink = io.BytesIO()
            with pytest.raises(ValidationError,
                               match=f"^a PCOD header cannot hold {k} members "
                                     f"x {n} points x {c} classes$"):
                write_header(sink, PROBS, n, c, k)
            assert sink.getvalue() == b""
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(HEADER.pack(b"PCOD", 1, 0, 0, 3, 4, 0)))

    @pytest.mark.parametrize("kind", ["probabilities", "logits", 0, None])
    def test_kind_that_is_no_tensor_kind_writes_nothing(self, kind):
        # A kind's value, even one naming a TensorKind, is not a kind.
        message = f"^tensor kind must be a TensorKind, got {kind!r}$"
        sink = io.BytesIO()
        with pytest.raises(ValidationError, match=message):
            write_header(sink, kind, 2, 3, 1)
        with pytest.raises(ValidationError, match=message):
            write_member(sink, np.full((2, 3), 1 / 3), kind, 0)
        assert sink.getvalue() == b""

    def test_probability_invariants(self):
        write_member(io.BytesIO(), np.full((1, 2), 0.5, dtype=np.float32), PROBS, 0)
        for row in ([0.7, 0.2], [1.5, -0.5], [np.nan, 1.0]):
            with pytest.raises(ValidationError):
                write_member(io.BytesIO(), np.array([row]), PROBS, 0)

    def test_logits_may_be_any_finite_values(self):
        write_member(io.BytesIO(), np.array([[-100.0, 250.0]]), LOGITS, 0)
        with pytest.raises(ValidationError):
            write_member(io.BytesIO(), np.array([[np.inf, 0.0]]), LOGITS, 0)


class TestWriteMember:
    @pytest.mark.parametrize("kind, row, message", [
        (PROBS, [0.9, 0.3, 0.0], r"^member 2 point 3: probability row sums to 1\.19999"),
        (PROBS, [1.5, -0.5, 0.0], r"^probability entries must lie in \[0, 1\]$"),
        (LOGITS, [0.0, np.inf, 1.0], "^tensor values must be finite$"),
        (LOGITS, [np.nan, 0.0, 1.0], "^tensor values must be finite$"),
    ])
    def test_bad_row_raises_before_any_byte(self, kind, row, message):
        rows = np.full((5, 3), 1 / 3, dtype=np.float32)
        rows[3] = row
        sink = io.BytesIO()
        with pytest.raises(ValidationError, match=message):
            write_member(sink, rows, kind, 2)
        assert sink.getvalue() == b""

    def test_rows_are_checked_as_the_float32_they_are_written_as(self):
        # The float64 mean of two rows that pass the 1e-5 check passes it
        # too, but rounds to a float32 row that does not.
        pair = np.array([[0.5, 0.50000995], [0.49999997, 0.50001]], dtype=np.float32)
        rows = np.array([[0.5, 0.5], pair.astype(np.float64).mean(axis=0)])
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-5
        with pytest.raises(ValidationError, match=r"^member 0 point 1: probability "
                                                  r"row sums to 1\.0000100135803223$"):
            write_member(io.BytesIO(), rows, PROBS, 0)

    def test_writes_the_float32_bytes_of_the_rows(self):
        rows = _prob_values(np.random.default_rng(1), 1, 4, 3)[0]
        sink = io.BytesIO()
        write_member(sink, rows.astype(np.float64), PROBS, 0)
        assert sink.getvalue() == rows.astype("<f4").tobytes()


class TestAggregate:
    def test_identical_members(self):
        member = np.array([[0.7, 0.3]], dtype=np.float32)
        blob = pcod_bytes(np.stack([member] * 4))
        np.testing.assert_array_equal(stream_means(blob, [4])[4],
                                      member.astype(np.float64))

    def test_result_is_a_frozen_float64_array(self):
        blob = _prob_tensor(np.random.default_rng(4), 2, 5, 3)
        sums = TensorStream(io.BytesIO(blob)).sums([1, 2])
        _, first = next(sums)
        assert first.dtype == np.float64 and first.shape == (5, 3)
        with pytest.raises(ValueError):
            first[0, 0] = 0.5
        # One running sum: advancing the pass overwrites the view.
        _, second = next(sums)
        assert np.shares_memory(first, second)
        _same_bits(first / 2, reference_mean(blob, 2))

    def test_collected_sums_all_hold_the_last_sum(self):
        # The contract of sums(): collecting the pass without dividing
        # keeps one array, the sum of the largest k, under every k.
        blob = _prob_tensor(np.random.default_rng(5), 3, 5, 3)
        got = dict(TensorStream(io.BytesIO(blob)).sums([1, 2, 3]))
        assert list(got) == [1, 2, 3]
        assert got[1] is got[2] is got[3]
        _same_bits(got[1] / 3, reference_mean(blob, 3))

    def test_two_member_symmetry(self):
        blob = pcod_bytes([[[1.0, 0.0]], [[0.0, 1.0]]])
        np.testing.assert_array_equal(stream_means(blob, [2])[2],
                                      np.array([[0.5, 0.5]]))

    def test_hand_average_of_first_two_members(self):
        values = np.array([[[0.6, 0.4]], [[0.2, 0.8]], [[0.4, 0.6]]],
                          dtype=np.float32)
        dist = stream_means(pcod_bytes(values), [2])[2]
        # Oracle: average the two stored float32 rows by hand in float64.
        hand = (values[0].astype(np.float64) + values[1].astype(np.float64)) / 2
        np.testing.assert_allclose(dist, hand, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist, [[0.4, 0.6]], rtol=0, atol=1e-6)

    def test_k_one_is_exact_passthrough(self):
        values = _prob_values(np.random.default_rng(5), 3, 20, 5)
        dist = stream_means(pcod_bytes(values), [1])[1]
        np.testing.assert_array_equal(dist, values[0].astype(np.float64))

    def test_logits_softmax_applied_per_member(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(2, 4, 3)).astype(np.float32)
        dist = stream_means(pcod_bytes(logits, LOGITS), [1])[1]
        # Oracle: the max-shifted softmax of each row on its own.
        rows = logits[0].astype(np.float64)
        expd = [np.exp(row - row.max()) for row in rows]
        np.testing.assert_array_equal(dist, [e / e.sum() for e in expd])

    def test_prefix_consistency(self):
        values = _prob_values(np.random.default_rng(7), 6, 15, 4)
        full = stream_means(pcod_bytes(values), [1, 2, 3, 6])
        for k in (1, 2, 3, 6):
            prefix = stream_means(pcod_bytes(values[:k]), [k])[k]
            _same_bits(full[k], prefix)

    def test_row_sums_near_one(self):
        blob = _prob_tensor(np.random.default_rng(8), 10, 500, 8)
        for mean in stream_means(blob, [1, 3, 10]).values():
            dev = np.abs(mean.sum(axis=1) - 1.0)
            assert dev.max() <= 1e-6

    def test_k_out_of_range(self):
        blob = _prob_tensor(np.random.default_rng(9), 3, 4, 2)
        for k in (0, 4):
            with pytest.raises(ValidationError):
                TensorStream(io.BytesIO(blob)).sums([k])


class TestTensorFormat:
    def _round_trip(self, values, kind):
        blob = pcod_bytes(values, kind)
        np.testing.assert_array_equal(members(blob), values)
        stream = TensorStream(io.BytesIO(blob))
        assert stream.kind is kind
        ks = range(1, len(values) + 1)
        for k, total in stream.sums(ks):
            _same_bits(total / k, reference_mean(blob, k))

    def test_round_trip_probabilities(self):
        self._round_trip(_prob_values(np.random.default_rng(10), 2, 3, 4), PROBS)

    def test_round_trip_logits(self):
        rng = np.random.default_rng(11)
        self._round_trip(rng.normal(size=(3, 5, 2)).astype(np.float32), LOGITS)

    def test_header_layout(self):
        data = _prob_tensor(np.random.default_rng(12), 2, 3, 4)
        magic, version, kind, reserved, n, c, k = HEADER.unpack(data[:20])
        assert magic == b"PCOD"
        assert (version, kind, reserved) == (1, 0, 0)
        assert (n, c, k) == (3, 4, 2)
        assert len(data) == 20 + 4 * 2 * 3 * 4

    def test_bad_magic(self):
        blob = b"XXXX" + bytes(16)
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(blob))

    def test_bad_version(self):
        blob = HEADER.pack(b"PCOD", 2, 0, 0, 1, 2, 1) + bytes(8)
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(blob))

    @pytest.mark.parametrize("code", [2, 7, 255])
    def test_bad_kind_code(self, code):
        blob = HEADER.pack(b"PCOD", 1, code, 0, 1, 2, 1) + bytes(8)
        with pytest.raises(ValidationError,
                           match=f"^unknown tensor kind code {code}$"):
            TensorStream(io.BytesIO(blob))

    def test_nonzero_reserved_byte(self):
        blob = HEADER.pack(b"PCOD", 1, 0, 9, 1, 2, 1) + bytes(8)
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(blob))

    def test_degenerate_dimensions(self):
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(HEADER.pack(b"PCOD", 1, 0, 0, 1, 2, 0)))
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(HEADER.pack(b"PCOD", 1, 0, 0, 1, 1, 1)))

    def test_truncated_header(self):
        with pytest.raises(TruncatedStreamError):
            TensorStream(io.BytesIO(b"PCOD\x01"))

    def test_truncated_payload(self):
        # Declares N=1, C=2, K=1 (8 payload bytes) but carries one float.
        blob = HEADER.pack(b"PCOD", 1, 1, 0, 1, 2, 1) + struct.pack("<f", 0.5)
        with pytest.raises(TruncatedStreamError):
            TensorStream(io.BytesIO(blob))

    def test_capacity_guard(self):
        blob = HEADER.pack(b"PCOD", 1, 1, 0, 2 ** 60, 8, 20)
        with pytest.raises(ValidationError):
            TensorStream(io.BytesIO(blob))

    def test_empty_tensor_round_trip(self):
        blob = pcod_bytes(np.zeros((2, 0, 3), dtype=np.float32))
        stream = TensorStream(io.BytesIO(blob))
        assert (stream.n_points, stream.n_classes, stream.n_members) == (0, 3, 2)
        [(_, total)] = stream.sums([2])
        assert total.shape == (0, 3)


class _Pipe(io.RawIOBase):
    """A non-seekable source that hands out at most `step` bytes per read."""

    def __init__(self, data, step=7):
        self._data, self._pos, self._step = data, 0, step

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), self._step, len(self._data) - self._pos)
        buf[:n] = self._data[self._pos:self._pos + n]
        self._pos += n
        return n


def _sources(blob, path):
    """Yield the same bytes as an in-memory file, a file on disk and a pipe."""
    path.write_bytes(blob)
    yield io.BytesIO(blob)
    with open(path, "rb") as f:
        yield f
    yield _Pipe(blob)


def _corrupt(values, member, point, row):
    """Probability PCOD bytes of `values` with one row overwritten, unchecked."""
    values = values.copy()
    values[member, point] = row
    k, n, c = values.shape
    return values, HEADER.pack(b"PCOD", 1, 0, 0, n, c, k) + values.astype("<f4").tobytes()


class TestTensorStream:
    @pytest.mark.parametrize("logits", [False, True])
    def test_every_mean_is_aggregate_bit_for_bit(self, logits, tmp_path):
        # Every k-member sum over k equals the reference mean, from every
        # kind of source, with or without a head read by the caller.
        rng = np.random.default_rng(20)
        if logits:
            blob = pcod_bytes(rng.normal(scale=4.0, size=(7, 23, 5)), LOGITS)
        else:
            blob = _prob_tensor(rng, 7, 23, 5)
        for head_size in (0, 4):
            for source in _sources(blob, tmp_path / "t.pcod"):
                stream = TensorStream(source, source.read(head_size))
                got = []
                for k, total in stream.sums([6, 1, 3, 6, 2]):
                    assert not total.flags.writeable
                    _same_bits(total / k, reference_mean(blob, k))
                    got.append(k)
                assert got == [1, 2, 3, 6]
                assert stream.sha256 == hashlib.sha256(blob).hexdigest()

    def test_head_read_by_the_caller_starts_the_stream(self):
        blob = _prob_tensor(np.random.default_rng(27), 3, 5, 2)
        for source in (io.BytesIO(blob), _Pipe(blob)):
            head = source.read(4)
            stream = TensorStream(source, head)
            [(_, total)] = stream.sums([3])
            _same_bits(total / 3, reference_mean(blob, 3))
            assert stream.sha256 == hashlib.sha256(blob).hexdigest()

    def test_header_fields_and_single_pass(self):
        stream = TensorStream(io.BytesIO(_prob_tensor(np.random.default_rng(21),
                                                      3, 4, 2)))
        assert (stream.kind, stream.n_points, stream.n_classes,
                stream.n_members) == (TensorKind.PROBABILITIES, 4, 2, 3)
        with pytest.raises(RuntimeError):
            stream.sha256
        list(stream.sums([3]))
        with pytest.raises(RuntimeError):
            list(stream.sums([1]))

    def test_k_above_members_fails_before_the_payload(self):
        source = io.BytesIO(_prob_tensor(np.random.default_rng(22), 3, 4, 2))
        stream = TensorStream(source)
        with pytest.raises(ValidationError, match=r"^k must lie in 1\.\.3, got 4$"):
            stream.sums([1, 4])
        assert source.tell() == 20

    @pytest.mark.parametrize("row, message", [
        ([0.9, 0.3, 0.0], r"member 4 point 9: probability row sums to 1\.19999"),
        ([np.nan, 1.0, 0.0], "tensor values must be finite"),
        ([1.5, -0.5, 0.0], r"probability entries must lie in \[0, 1\]"),
    ])
    def test_bad_member_message_matches_the_tensor_check(self, row, message):
        values = _prob_values(np.random.default_rng(23), 6, 17, 3)
        values, blob = _corrupt(values, 4, 9, row)
        with pytest.raises(ValidationError, match=message) as direct:
            write_member(io.BytesIO(), values[4], PROBS, 4)
        stream = TensorStream(io.BytesIO(blob))
        sums = stream.sums([1, 4, 6])
        # Members before the bad one still yield their sums.
        assert [k for k, _ in zip((1, 4), sums)] == [1, 4]
        with pytest.raises(ValidationError) as streamed:
            next(sums)
        assert str(streamed.value) == str(direct.value)

    def test_first_bad_row_is_reported(self):
        values = _prob_values(np.random.default_rng(24), 2, 10, 3)
        values, _ = _corrupt(values, 1, 8, [np.nan, 1.0, 0.0])
        values, blob = _corrupt(values, 1, 2, [0.5, 0.6, 0.0])  # a small excess, met first
        with pytest.raises(ValidationError,
                           match="member 1 point 2: probability row sums to"):
            write_member(io.BytesIO(), values[1], PROBS, 1)
        with pytest.raises(ValidationError,
                           match="member 1 point 2: probability row sums to"):
            list(TensorStream(io.BytesIO(blob)).sums([2]))

    def test_trailing_bytes_are_rejected(self):
        blob = _prob_tensor(np.random.default_rng(25), 2, 3, 2) + bytes(8)
        # A seekable source fails on its length, before any member is read.
        with pytest.raises(TruncatedStreamError, match="^payload has 8 trailing bytes$"):
            TensorStream(io.BytesIO(blob))
        with pytest.raises(TruncatedStreamError, match="^payload has 8 trailing bytes$"):
            list(TensorStream(_Pipe(blob)).sums([2]))

    def test_truncated_pipe_names_the_bytes_that_arrived(self):
        blob = _prob_tensor(np.random.default_rng(26), 3, 5, 2)[:-6]
        stream = TensorStream(_Pipe(blob))
        with pytest.raises(TruncatedStreamError,
                           match="^payload truncated: got 114 of 120 bytes$"):
            list(stream.sums([1]))

    def test_huge_header_on_a_pipe_allocates_only_what_arrives(self):
        # 2**40 points x 8 classes x 20 members declares about 700 TB; the
        # running sum is allocated only once a whole member block is in.
        blob = HEADER.pack(b"PCOD", 1, 0, 0, 2 ** 40, 8, 20) + bytes(64)
        stream = TensorStream(_Pipe(blob, step=1 << 16))
        declared = 4 * 2 ** 40 * 8 * 20
        with pytest.raises(TruncatedStreamError,
                           match=f"^payload truncated: got 64 of {declared} bytes$"):
            list(stream.sums([1, 20]))


class _SlowDigest:
    """A digest that takes its time over each block. `pending` is set by
    `_MarkingPool` when a block is submitted and cleared once the block is
    in the digest."""

    def __init__(self, digest):
        self._digest, self.pending = digest, False

    def update(self, data):
        time.sleep(0.005)
        self._digest.update(data)
        self.pending = False

    def hexdigest(self):
        return self._digest.hexdigest()


class _MarkingPool(ThreadPoolExecutor):
    """A pool that marks a `_SlowDigest` pending as soon as a block is
    submitted to it, before the helper thread may have started the job."""

    def submit(self, fn, *args):
        fn.__self__.pending = True
        return super().submit(fn, *args)


class _GuardedSource(io.BytesIO):
    """A source that fails a read while a block is pending in `digest`."""

    digest = None

    def readinto(self, buf):
        if self.digest is not None and self.digest.pending:
            raise AssertionError("a block was refilled while it was hashed")
        return super().readinto(buf)


class TestMemberDigest:
    """The helper thread that hashes each member while the pass checks and
    sums it."""

    def test_one_helper_runs_during_the_pass_only(self):
        blob = _prob_tensor(np.random.default_rng(28), 4, 300, 3)
        before = threading.active_count()
        stream = TensorStream(io.BytesIO(blob))
        during = [threading.active_count() - before
                  for _ in stream.sums([1, 2, 3])]
        assert during == [1, 1, 0]
        assert threading.active_count() == before
        assert stream.sha256 == hashlib.sha256(blob).hexdigest()

    def test_a_block_is_never_refilled_while_it_is_hashed(self, monkeypatch):
        # Two passes in step, as `auroc` reads --id and --ood, with the
        # interpreter switching threads often.
        monkeypatch.setattr(predictive, "ThreadPoolExecutor", _MarkingPool)
        rng = np.random.default_rng(29)
        blobs = [_prob_tensor(rng, 5, 400, 4) for _ in range(2)]
        streams = []
        for blob in blobs:
            source = _GuardedSource(blob)
            streams.append(TensorStream(source))
            streams[-1]._digest = source.digest = _SlowDigest(streams[-1]._digest)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            passes = [stream.sums([1, 3, 5]) for stream in streams]
            for _ in range(3):
                for blob, sums in zip(blobs, passes):
                    k, total = next(sums)
                    _same_bits(total / k, reference_mean(blob, k))
            for sums in passes:
                assert next(sums, None) is None
        finally:
            sys.setswitchinterval(interval)
        for blob, stream in zip(blobs, streams):
            assert stream.sha256 == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("ks", [[3], [2]])
    def test_the_buffer_is_freed_before_the_last_sum(self, ks):
        # The last member's hash is waited for, so its buffer is gone when
        # the caller scores: only the running sum is held.
        blob = _prob_tensor(np.random.default_rng(31), 3, 2000, 8)
        stream = TensorStream(io.BytesIO(blob))
        stream._digest = _SlowDigest(stream._digest)
        tracemalloc.start()
        try:
            for k, total in stream.sums(ks):
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < total.nbytes + 4 * 2000 * 8 // 2

    @pytest.mark.parametrize("ks", [[1, 2], [1, 3]])
    def test_the_last_sum_ends_the_pass(self, ks):
        # With the largest k's sum, below the member count or at it, the
        # digest is final and the helper gone, without resuming the pass;
        # and the caller alone holds that sum.
        blob = _prob_tensor(np.random.default_rng(32), 3, 2000, 8)
        before = threading.active_count()
        stream = TensorStream(io.BytesIO(blob))
        sums = stream.sums(ks)
        tracemalloc.start()
        try:
            next(sums)
            k, total = next(sums)
            assert k == ks[-1]
            assert threading.active_count() == before
            assert stream.sha256 == hashlib.sha256(blob).hexdigest()
            nbytes, held = total.nbytes, tracemalloc.get_traced_memory()[0]
            del total
            assert held - tracemalloc.get_traced_memory()[0] >= nbytes
        finally:
            tracemalloc.stop()
        assert next(sums, None) is None

    def test_sha256_is_withheld_until_the_pass_ends(self):
        blob = _prob_tensor(np.random.default_rng(30), 4, 50, 3)
        before = threading.active_count()
        stream = TensorStream(io.BytesIO(blob))
        sums = stream.sums([1, 2])
        next(sums)
        with pytest.raises(RuntimeError):
            stream.sha256
        sums.close()  # the helper ends with the pass it served
        assert threading.active_count() == before
        with pytest.raises(RuntimeError):
            stream.sha256
