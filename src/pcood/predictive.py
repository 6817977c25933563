"""Prediction tensors, softmax, and member averaging.

A prediction tensor stacks the per-point class scores of K ensemble
members (or K stochastic forward passes) as a (K, N, C) float32 array,
either probabilities or raw logits. Averaging the first k members in
probability space yields the predictive distribution that all scores
are computed from; accumulation runs in float64.

The on-disk container is the PCOD format: a 20-byte little-endian
header (magic ``PCOD``, version u16, kind u8, reserved u8, point count
u64, class count u16, member count u16) followed by the float32 values
laid out member-major. ``TensorStream`` reads such a file front to back
once: it checks and hashes each member block as it arrives and keeps a
float64 running sum, so the sums for every k of a sweep cost one pass
and memory of order N x C, whatever the member count. ``write_header``
and ``write_member`` write one member at a time, with the same member
check, so pcood never writes a tensor it cannot read.
"""

from __future__ import annotations

import enum
import hashlib
import io
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._io import frozen
from .errors import TruncatedStreamError, ValidationError

TENSOR_MAGIC = b"PCOD"
TENSOR_VERSION = 1

_HEADER = struct.Struct("<4sHBBQHH")
_MAX_PAYLOAD_BYTES = 2 ** 62
# Most bytes asked of the source per read: a header may declare any size,
# so reads grow with the bytes that arrive, never with the declaration.
_READ_CHUNK = 1 << 24

# Probability rows may drift from exact normalization by float32
# rounding. This is the one row-sum check: everything derived from a
# validated tensor (member averages, scores) is trusted downstream.
PROB_ROW_SUM_TOL = 1e-5

# The float32 row-sum screen of _check_member accepts a member when every
# float32 row sum s32 has |s32 - 1| <= TOL - C * _SCREEN_MARGIN_PER_CLASS,
# TOL being PROB_ROW_SUM_TOL. That margin bounds |s32 - s64|, where s64 is
# the float64 sum the exact check computes, so a screened member also
# passes |s64 - 1| <= TOL:
# - Any summation order of C terms rounds each term through at most
#   n = C - 1 additions, so a sum in precision u is off the exact sum S by
#   at most g(n, u) * sum|x| = g(n, u) * S for entries in [0, 1], where
#   g(n, u) = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
#   Algorithms, 2nd ed., section 4.2). Subnormal sums are exact and no sum
#   of C <= 2**16 entries of at most 1 overflows, so the bound holds
#   throughout.
# - The screen runs only while the margin is below the tolerance, that is
#   C <= 41, so n u32 <= 40 * 2**-24 < 2.4e-6 and g(n, u) < 1.000003 n u.
# - A screened row has s32 <= 1 + TOL, so
#   S <= s32 / (1 - g(n, u32)) < 1.00002.
# - Then |s32 - s64| <= (g(n, u32) + g(n, u64)) * S
#   < 1.00002 * 1.000003 * n * (2**-24 + 2**-53) < C * 2**-23.
# The margin of C * 2**-22 is twice that bound; the slack also covers
# the rounding of the limit itself and of s32 - 1 (exact for s32 in
# [0.5, 2] by Sterbenz's lemma, and far outside the limit otherwise).
_SCREEN_MARGIN_PER_CLASS = 2.0 ** -22


class TensorKind(enum.Enum):
    """What a tensor's values are; each value is its PCOD header code."""
    PROBABILITIES = 0
    LOGITS = 1


def _kind_code(kind: TensorKind) -> int:
    if not isinstance(kind, TensorKind):
        raise ValidationError(f"tensor kind must be a TensorKind, got {kind!r}")
    return kind.value


def _check_member(rows: np.ndarray, kind: TensorKind, member: int,
                  start: int = 0) -> None:
    """Check the (N, C) rows of one member, the first of them point
    `start`; raise ValidationError for the first bad row."""
    if not rows.size:
        return
    if kind is TensorKind.LOGITS:
        if not np.isfinite(rows).all():
            raise ValidationError("tensor values must be finite")
        return
    # min/max propagate NaN, so in-range extremes also rule out NaN and inf.
    in_range = rows.min() >= 0.0 and rows.max() <= 1.0
    limit = PROB_ROW_SUM_TOL - _SCREEN_MARGIN_PER_CLASS * rows.shape[1]
    if in_range and limit > 0.0:
        # A member passes the screen only if it passes the float64 check
        # below, so the screen changes no outcome and no message.
        sums32 = np.einsum("ij->i", rows)
        if 1.0 - float(sums32.min()) <= limit and \
                float(sums32.max()) - 1.0 <= limit:
            return
    # Widening a signalling NaN to float64 raises the invalid flag; the
    # NaN is reported below as a non-finite value, not as a warning.
    with np.errstate(invalid="ignore"):
        sums = np.sum(rows, axis=-1, dtype=np.float64)
    off = np.abs(sums - 1.0) > PROB_ROW_SUM_TOL
    if in_range and not off.any():
        return
    nonfinite = ~np.isfinite(rows).all(axis=-1)
    outside = ((rows < 0.0) | (rows > 1.0)).any(axis=-1)
    i = int(np.argmax(nonfinite | outside | off))
    if nonfinite[i]:
        raise ValidationError("tensor values must be finite")
    if outside[i]:
        raise ValidationError("probability entries must lie in [0, 1]")
    raise ValidationError(
        f"member {member} point {start + i}: probability row sums to "
        f"{float(sums[i])!r}"
    )


def _row_max(rows: np.ndarray) -> np.ndarray:
    """The maximum of each row of an (N, C) array, as a new (N,) array.

    Equal to ``rows.max(axis=1)``, NaN included; only the sign of a zero
    maximum may differ, which no caller can see (``1.0 - 0.0`` and
    ``exp(x - 0.0)`` do not depend on it). C column passes of
    ``np.maximum`` beat the reduction over short rows about threefold.
    """
    out = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(out, rows[:, j], out=out)
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (N, C) array, as a new float64 array."""
    # Shift by the row max so exp() cannot overflow. The row sums keep
    # the order of ``sum(axis=1)``, which sets the bits of the result.
    expd = np.subtract(logits, _row_max(logits)[:, np.newaxis],
                       dtype=np.float64)
    np.exp(expd, out=expd)
    expd /= expd.sum(axis=1, keepdims=True)
    return expd


def write_header(sink, kind: TensorKind, n_points: int, n_classes: int,
                 n_members: int) -> None:
    """Write the PCOD header; ``n_members`` calls of ``write_member`` follow."""
    code = _kind_code(kind)
    if not (0 <= n_points < 2 ** 64 and 2 <= n_classes < 2 ** 16
            and 1 <= n_members < 2 ** 16):
        raise ValidationError(
            f"a PCOD header cannot hold {n_members} members x {n_points} "
            f"points x {n_classes} classes")
    sink.write(_HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION, code, 0,
                            n_points, n_classes, n_members))


def write_member(sink, rows: np.ndarray, kind: TensorKind, member: int,
                 start: int = 0) -> None:
    """Write member `member`'s (N, C) rows in the PCOD layout.

    The rows may be a slice of the member, the first of them point `start`:
    consecutive slices written in order give the member's bytes. The
    float32 rows get the check a reader makes first, so a bad row raises
    ValidationError, naming its point in the whole member, before any byte
    of them is written.
    """
    _kind_code(kind)
    rows = np.ascontiguousarray(rows, dtype="<f4")
    _check_member(rows, kind, member, start)
    # A flat byte view of the rows: no copy, and len() counts bytes.
    sink.write(memoryview(rows.reshape(-1).view(np.uint8)))


def _read_upto(source, nbytes: int) -> np.ndarray:
    """Up to nbytes from source as a uint8 array, fewer only where it ends.

    The array grows in place by at most ``_READ_CHUNK`` bytes before each
    read into its tail, so it holds no more than one chunk beyond the bytes
    that arrived, however large nbytes is. (A bytearray cannot grow without
    a temporary of the added size before Python 3.14.)
    """
    buf = np.empty(0, dtype=np.uint8)
    while len(buf) < nbytes:
        got = len(buf)
        buf.resize(min(nbytes, got + _READ_CHUNK), refcheck=False)
        got += _read_into(source, buf[got:])
        if got < len(buf):
            buf.resize(got, refcheck=False)
            break
    return buf


def _read_into(source, buf) -> int:
    """Fill the writable buffer buf from source; return the bytes read,
    fewer only where it ends."""
    view, got = memoryview(buf), 0
    while got < len(view):
        n = source.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _length_error(got: int, declared: int) -> TruncatedStreamError:
    if got < declared:
        return TruncatedStreamError(
            f"payload truncated: got {got} of {declared} bytes")
    return TruncatedStreamError(f"payload has {got - declared} trailing bytes")


class TensorStream:
    """One forward pass over a PCOD source: every member read, checked and
    hashed once.

    The constructor reads and checks the header. For a seekable source it
    also checks that exactly the declared payload follows, so a short or
    overlong file fails before any member is read; a pipe is read in
    chunks of at most ``_READ_CHUNK`` bytes and fails where it ends, so no
    allocation is ever sized by the header alone. ``sums`` then makes the
    single pass, and ``sha256`` is the digest of every byte it read.
    ``head`` holds bytes already read from the start of the source, for a
    caller that sniffed the magic of a pipe.

    The source must have ``read`` and ``readinto``, as every binary
    ``io`` stream does: members are read into one reused buffer. One
    helper thread hashes each member while the pass checks and sums it;
    members reach the digest in order, so it is the same. The helper has
    ended, and the buffer is freed, before the last sum is handed out.
    """

    def __init__(self, source, head: bytes = b""):
        self._source = source
        self._digest = hashlib.sha256()
        self._started = self._done = False
        header = head + _read_upto(source, _HEADER.size - len(head)).tobytes()
        if len(header) < _HEADER.size:
            raise TruncatedStreamError(
                f"header truncated: got {len(header)} of {_HEADER.size} bytes"
            )
        magic, version, kind_code, reserved, n_points, n_classes, n_members = \
            _HEADER.unpack(header)
        if magic != TENSOR_MAGIC:
            raise ValidationError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
        if version != TENSOR_VERSION:
            raise ValidationError(f"unsupported format version {version}")
        try:
            self.kind = TensorKind(kind_code)
        except ValueError:
            raise ValidationError(f"unknown tensor kind code {kind_code}") from None
        if reserved != 0:
            raise ValidationError(f"reserved header byte must be 0, got {reserved}")
        if n_members < 1 or n_classes < 2:
            raise ValidationError(
                f"header declares {n_members} members and {n_classes} classes"
            )
        self._payload_bytes = 4 * n_members * n_points * n_classes
        if self._payload_bytes > _MAX_PAYLOAD_BYTES:
            raise ValidationError(f"declared payload of {self._payload_bytes} "
                                  f"bytes exceeds the supported size")
        if source.seekable():
            pos = source.tell()
            available = source.seek(0, io.SEEK_END) - pos
            source.seek(pos)
            if available != self._payload_bytes:
                raise _length_error(available, self._payload_bytes)
        self._digest.update(header)
        self.n_points, self.n_classes, self.n_members = \
            n_points, n_classes, n_members

    @property
    def sha256(self) -> str:
        """Hex digest of the header and payload, ready with the last sum."""
        if not self._done:
            raise RuntimeError("the tensor stream has not been read to its end")
        return self._digest.hexdigest()

    def sums(self, ks):
        """Yield ``(k, sum of the first k members)`` for each distinct k.

        The ks are checked against the member count now; the pass runs as
        the result is iterated, in increasing k. Each sum is the (N, C)
        float64 sum of the first k members in member order, logits through
        a per-row softmax, so ``total / k`` is the mean in probability
        space, and k=1 gives member 0 exactly. ``total`` is a read-only
        view of the running sum, which the pass overwrites when iteration
        advances: use it, or copy it, before asking for the next k.
        Every member, also past the largest k, is checked; members past it
        are not added. The largest k's sum comes after the whole stream is
        read, with ``sha256`` ready, and the pass holds no reference to it.
        """
        for k in ks:
            if not 1 <= k <= self.n_members:
                raise ValidationError(
                    f"k must lie in 1..{self.n_members}, got {k}")
        return self._sums(set(ks))

    def _sums(self, wanted):
        if self._started:
            raise RuntimeError("a tensor stream can be read only once")
        self._started = True
        last = max(wanted, default=0)
        acc = total = None
        block_bytes = 4 * self.n_points * self.n_classes
        # One buffer holds every block: it grows with the bytes of the
        # first block as they arrive, and each later block is read into it.
        buf = _read_upto(self._source, block_bytes)
        got = len(buf)
        # One helper thread hashes each block while this thread checks and
        # sums it. The pass waits for the hash before the buffer is
        # refilled; leaving the `with` waits for the last one.
        with ThreadPoolExecutor(1) as hasher:
            for m in range(self.n_members):
                if m:
                    hashed.result()
                    got = _read_into(self._source, buf)
                if got < block_bytes:
                    raise _length_error(m * block_bytes + got,
                                        self._payload_bytes)
                hashed = hasher.submit(self._digest.update, buf)
                block = frozen(np.frombuffer(buf, dtype="<f4")).reshape(
                    self.n_points, self.n_classes)
                _check_member(block, self.kind, m)
                if m < last:
                    if acc is None:
                        acc = np.zeros(block.shape, dtype=np.float64)
                        total = frozen(acc.view())
                    # Float32 entries widen to float64 exactly, so adding
                    # them directly equals adding their float64 copy;
                    # _softmax_rows widens logits before it subtracts.
                    acc += (_softmax_rows(block)
                            if self.kind is TensorKind.LOGITS else block)
                if m + 1 < last and m + 1 in wanted:
                    yield m + 1, total
            extra = 0
            while chunk := self._source.read(_READ_CHUNK):
                extra += len(chunk)
            if extra:
                raise _length_error(self._payload_bytes + extra,
                                    self._payload_bytes)
        self._done = True
        # The largest k's sum leaves through a list, so that the suspended
        # pass holds no reference to it, nor to the freed buffer.
        final = [(last, total)]
        del block, buf, acc, total
        if last:
            yield final.pop()
