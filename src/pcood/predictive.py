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
float64 running sum, so the means for every k of a sweep cost one pass
and memory of order N x C, whatever the member count. ``write_header``
and ``write_member`` write one member at a time, with the same member
check, so pcood never writes a tensor it cannot read.
"""

from __future__ import annotations

import enum
import hashlib
import io
import struct

import numpy as np

from ._io import frozen
from .errors import (CapacityError, FormatError, TruncatedStreamError,
                     ValidationError)

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


class TensorKind(enum.Enum):
    PROBABILITIES = "probabilities"
    LOGITS = "logits"


_KIND_CODES = {TensorKind.PROBABILITIES: 0, TensorKind.LOGITS: 1}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def _check_member(rows: np.ndarray, kind: TensorKind, member: int) -> None:
    """Check the (N, C) rows of one member; raise ValidationError for the
    first bad row."""
    if not rows.size:
        return
    if kind is TensorKind.LOGITS:
        if not np.isfinite(rows).all():
            raise ValidationError("tensor values must be finite")
        return
    sums = np.sum(rows, axis=-1, dtype=np.float64)
    off = np.abs(sums - 1.0) > PROB_ROW_SUM_TOL
    # min/max propagate NaN, so in-range extremes also rule out NaN and inf.
    if rows.min() >= 0.0 and rows.max() <= 1.0 and not off.any():
        return
    nonfinite = ~np.isfinite(rows).all(axis=-1)
    outside = ((rows < 0.0) | (rows > 1.0)).any(axis=-1)
    i = int(np.argmax(nonfinite | outside | off))
    if nonfinite[i]:
        raise ValidationError("tensor values must be finite")
    if outside[i]:
        raise ValidationError("probability entries must lie in [0, 1]")
    raise ValidationError(
        f"member {member} point {i}: probability row sums to "
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


def _check_k(k: int, n_members: int) -> None:
    if not 1 <= k <= n_members:
        raise ValidationError(f"k must lie in 1..{n_members}, got {k}")


def write_header(sink, kind: TensorKind, n_points: int, n_classes: int,
                 n_members: int) -> None:
    """Write the PCOD header; ``n_members`` calls of ``write_member`` follow."""
    if not (0 <= n_points < 2 ** 64 and 2 <= n_classes < 2 ** 16
            and 1 <= n_members < 2 ** 16):
        raise ValidationError(
            f"a PCOD header cannot hold {n_members} members x {n_points} "
            f"points x {n_classes} classes")
    sink.write(_HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION, _KIND_CODES[kind], 0,
                            n_points, n_classes, n_members))


def write_member(sink, rows: np.ndarray, kind: TensorKind, member: int) -> None:
    """Write member `member`'s (N, C) rows in the PCOD layout.

    The float32 rows get the check a reader makes first, so a bad row
    raises ValidationError before any byte is written.
    """
    rows = np.ascontiguousarray(rows, dtype="<f4")
    _check_member(rows, kind, member)
    # A flat byte view of the rows: no copy, and len() counts bytes.
    sink.write(memoryview(rows.reshape(-1).view(np.uint8)))


def _read_upto(source, nbytes: int) -> bytes:
    """Up to nbytes from source, fewer only where it ends; read in chunks."""
    parts = []
    while nbytes:
        chunk = source.read(min(nbytes, _READ_CHUNK))
        if not chunk:
            break
        parts.append(chunk)
        nbytes -= len(chunk)
    return b"".join(parts)


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
    allocation is ever sized by the header alone. ``means`` then makes the
    single pass, and ``sha256`` is the digest of every byte it read.
    ``head`` holds bytes already read from the start of the source, for a
    caller that sniffed the magic of a pipe.
    """

    def __init__(self, source, head: bytes = b""):
        self._source = source
        self._digest = hashlib.sha256()
        self._started = self._done = False
        header = head + _read_upto(source, _HEADER.size - len(head))
        if len(header) < _HEADER.size:
            raise TruncatedStreamError(
                f"header truncated: got {len(header)} of {_HEADER.size} bytes"
            )
        magic, version, kind_code, reserved, n_points, n_classes, n_members = \
            _HEADER.unpack(header)
        if magic != TENSOR_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
        if version != TENSOR_VERSION:
            raise FormatError(f"unsupported format version {version}")
        if kind_code not in _CODE_KINDS:
            raise FormatError(f"unknown tensor kind code {kind_code}")
        if reserved != 0:
            raise FormatError(f"reserved header byte must be 0, got {reserved}")
        if n_members < 1 or n_classes < 2:
            raise FormatError(
                f"header declares {n_members} members and {n_classes} classes"
            )
        self._payload_bytes = 4 * n_members * n_points * n_classes
        if self._payload_bytes > _MAX_PAYLOAD_BYTES:
            raise CapacityError(f"declared payload of {self._payload_bytes} "
                                f"bytes exceeds the supported size")
        if source.seekable():
            pos = source.tell()
            available = source.seek(0, io.SEEK_END) - pos
            source.seek(pos)
            if available != self._payload_bytes:
                raise _length_error(available, self._payload_bytes)
        self._digest.update(header)
        self.kind = _CODE_KINDS[kind_code]
        self.n_points, self.n_classes, self.n_members = \
            n_points, n_classes, n_members

    @property
    def sha256(self) -> str:
        """Hex digest of the header and payload, once ``means`` has ended."""
        if not self._done:
            raise RuntimeError("the tensor stream has not been read to its end")
        return self._digest.hexdigest()

    def _blocks(self):
        """Yield each member's unchecked (N, C) float32 block, hashed."""
        if self._started:
            raise RuntimeError("a tensor stream can be read only once")
        self._started = True
        block_bytes = 4 * self.n_points * self.n_classes
        for m in range(self.n_members):
            data = _read_upto(self._source, block_bytes)
            if len(data) < block_bytes:
                raise _length_error(m * block_bytes + len(data),
                                    self._payload_bytes)
            self._digest.update(data)
            yield np.frombuffer(data, dtype="<f4").reshape(self.n_points,
                                                           self.n_classes)
        extra = 0
        while chunk := self._source.read(_READ_CHUNK):
            extra += len(chunk)
        if extra:
            raise _length_error(self._payload_bytes + extra, self._payload_bytes)
        self._done = True

    def means(self, ks):
        """Yield ``(k, mean of the first k members)`` for each distinct k.

        The ks are checked against the member count now; the pass runs as
        the result is iterated, in increasing k. Each mean is a read-only
        (N, C) float64 array: the float64 sum of the first k members in
        member order, logits through a per-row softmax, divided by k. So
        averaging always happens in probability space, and k=1 gives
        member 0 exactly. Every member, also past the largest k, is checked;
        members past it are not added. After the last mean the rest of
        the stream is read, so iterate to the end for ``sha256``.
        """
        for k in ks:
            _check_k(k, self.n_members)
        return self._means(set(ks))

    def _means(self, wanted):
        last = max(wanted, default=0)
        acc = None
        for m, block in enumerate(self._blocks()):
            _check_member(block, self.kind, m)
            if m < last:
                if acc is None:
                    acc = np.zeros(block.shape, dtype=np.float64)
                # Float32 entries widen to float64 exactly, so adding them
                # directly equals adding their float64 copy; _softmax_rows
                # widens logits before it subtracts.
                acc += (_softmax_rows(block) if self.kind is TensorKind.LOGITS
                        else block)
            if m + 1 in wanted:
                yield m + 1, frozen(acc / float(m + 1))

