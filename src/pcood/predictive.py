"""Prediction tensors, softmax, and member averaging.

A prediction tensor stacks the per-point class scores of K ensemble
members (or K stochastic forward passes) as a (K, N, C) float32 array,
either probabilities or raw logits. Averaging the first k members in
probability space yields the predictive distribution that all scores
are computed from; accumulation runs in float64.

The on-disk container is the PCOD format: a 20-byte little-endian
header (magic ``PCOD``, version u16, kind u8, reserved u8, point count
u64, class count u16, member count u16) followed by the float32 values
laid out member-major, so a prefix of members can be streamed without
touching the rest of the file.
"""

from __future__ import annotations

import enum
import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, FormatError, StructuralError,
                     TruncatedStreamError, ValidationError)

TENSOR_MAGIC = b"PCOD"
TENSOR_VERSION = 1

_HEADER = struct.Struct("<4sHBBQHH")
_MAX_PAYLOAD_BYTES = 2 ** 62

# Probability rows may drift from exact normalization by float32
# rounding. This is the one row-sum check: everything derived from a
# validated tensor (member averages, scores) is trusted downstream.
PROB_ROW_SUM_TOL = 1e-5

_SOFTMAX_SUM_FLOOR = 1e-12


class TensorKind(enum.Enum):
    PROBABILITIES = "probabilities"
    LOGITS = "logits"


_KIND_CODES = {TensorKind.PROBABILITIES: 0, TensorKind.LOGITS: 1}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class PredictiveTensor:
    """(K, N, C) float32 member outputs, immutable after construction."""

    values: np.ndarray
    kind: TensorKind

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float32, copy=True, order="C")
        if values.ndim != 3:
            raise StructuralError(
                f"tensor must have shape (members, points, classes), got {values.shape}"
            )
        if not isinstance(self.kind, TensorKind):
            raise ValidationError(f"unknown tensor kind: {self.kind!r}")
        k, _, c = values.shape
        if k < 1:
            raise ValidationError("tensor needs at least one member")
        if c < 2:
            raise ValidationError(f"tensor needs at least two classes, got {c}")
        if not np.isfinite(values).all():
            raise ValidationError("tensor values must be finite")
        if self.kind is TensorKind.PROBABILITIES:
            if values.size and (values.min() < 0.0 or values.max() > 1.0):
                raise ValidationError("probability entries must lie in [0, 1]")
            sums = np.sum(values, axis=-1, dtype=np.float64)
            dev = np.abs(sums - 1.0)
            if dev.size and dev.max() > PROB_ROW_SUM_TOL:
                m, i = np.unravel_index(int(dev.argmax()), dev.shape)
                raise ValidationError(
                    f"member {m} point {i}: probability row sums to "
                    f"{float(sums[m, i])!r}"
                )
        self.values = _frozen(values)

    @property
    def n_members(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return self.values.shape[2]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # Shift by the row max so exp() cannot overflow; the max term then
    # contributes exp(0) = 1, which keeps every row sum well above zero.
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    sums = expd.sum(axis=1, keepdims=True)
    if sums.size and sums.min() < _SOFTMAX_SUM_FLOOR:
        raise ValidationError("softmax row sum vanished; logits are degenerate")
    return expd / sums


def softmax_row(logits) -> np.ndarray:
    """Numerically stable softmax of one row of logits (float64)."""
    row = np.asarray(logits, dtype=np.float64)
    if row.ndim != 1:
        raise StructuralError(f"expected a single row of logits, got shape {row.shape}")
    if row.size == 0:
        raise ValidationError("cannot take softmax of an empty row")
    if not np.isfinite(row).all():
        raise ValidationError("logits must be finite")
    return _softmax_rows(row.reshape(1, -1))[0]


def aggregate(tensor: PredictiveTensor, k: int, start: int = 0,
              stop: int | None = None) -> np.ndarray:
    """Average the first k members over points [start, stop) of a tensor.

    Returns the read-only (stop - start, C) float64 mean. Logit tensors
    are converted with a per-row softmax before the mean, so averaging
    always happens in probability space. With k=1 the result reproduces
    member 0 exactly. Every row is computed on its own, so concatenating
    the results over any partition of the points equals the full-range
    result bit for bit.
    """
    if not 1 <= k <= tensor.n_members:
        raise ValidationError(
            f"k must lie in 1..{tensor.n_members}, got {k}"
        )
    stop = tensor.n_points if stop is None else stop
    if not 0 <= start <= stop <= tensor.n_points:
        raise ValidationError(
            f"point range [{start}, {stop}) outside 0..{tensor.n_points}"
        )
    acc = np.zeros((stop - start, tensor.n_classes), dtype=np.float64)
    for m in range(k):
        member = tensor.values[m, start:stop].astype(np.float64)
        if tensor.kind is TensorKind.LOGITS:
            member = _softmax_rows(member)
        acc += member
    return _frozen(acc / float(k))


def write_tensor(tensor: PredictiveTensor, sink) -> None:
    """Serialize a tensor to a binary sink in the PCOD layout."""
    kind_code = _KIND_CODES[tensor.kind]
    sink.write(_HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION, kind_code, 0,
                            tensor.n_points, tensor.n_classes, tensor.n_members))
    for m in range(tensor.n_members):
        sink.write(np.ascontiguousarray(tensor.values[m], dtype="<f4").tobytes())


def read_tensor(source) -> PredictiveTensor:
    """Read a PCOD tensor from a binary source; round-trips are lossless."""
    header = source.read(_HEADER.size)
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
    total = n_members * n_points * n_classes
    payload_bytes = 4 * total
    if payload_bytes > _MAX_PAYLOAD_BYTES:
        raise CapacityError(
            f"declared payload of {payload_bytes} bytes exceeds the supported size"
        )
    # Measure what a seekable source holds before reading, so a header
    # that declares more than that never sizes an allocation.
    available = payload_bytes
    if source.seekable():
        pos = source.tell()
        available = source.seek(0, io.SEEK_END) - pos
        source.seek(pos)
    if available >= payload_bytes:
        buf = source.read(payload_bytes)
        available = len(buf)
    if available < payload_bytes:
        raise TruncatedStreamError(
            f"payload truncated: got {available} of {payload_bytes} bytes"
        )
    values = np.frombuffer(buf, dtype="<f4", count=total)
    values = values.reshape(n_members, n_points, n_classes)
    return PredictiveTensor(values, _CODE_KINDS[kind_code])
