"""PCOD tensors for the tests, and the reference member mean.

Tensors are written with pcood's writer (``write_header`` and
``write_member``) and read back with ``TensorStream``. The decoder and the
mean here share no code with pcood's reader: they are the independent
reference that streamed means are held to, bit for bit.
"""

import io
import struct

import numpy as np

from pcood import (TensorKind, TensorStream, synth_member, write_header,
                   write_member)

HEADER = struct.Struct("<4sHBBQHH")


def pcod_bytes(values, kind=TensorKind.PROBABILITIES) -> bytes:
    """The PCOD bytes of (K, N, C) member rows."""
    values = np.asarray(values, dtype=np.float32)
    k, n, c = values.shape
    sink = io.BytesIO()
    write_header(sink, kind, n, c, k)
    for m in range(k):
        write_member(sink, values[m], kind, m)
    return sink.getvalue()


def synth_pair(n_points, n_classes, n_members, separability, seed):
    """The (ID, OOD) PCOD bytes that ``synth tensor`` writes for these flags."""
    members = [synth_member(n_points, n_classes, separability, seed, m, 0, n_points)
               for m in range(n_members)]
    return tuple(pcod_bytes([member[i] for member in members]) for i in (0, 1))


def members(blob) -> np.ndarray:
    """The (K, N, C) float32 members of PCOD bytes, decoded by hand."""
    _, _, _, _, n, c, k = HEADER.unpack(blob[:HEADER.size])
    return np.frombuffer(blob[HEADER.size:], "<f4").reshape(k, n, c)


def reference_mean(blob, k) -> np.ndarray:
    """The float64 sum of the first k members in member order, over k.

    Members of a logit tensor (kind byte 1) first go through the
    max-shifted softmax of each row.
    """
    logits = blob[6] == 1
    values = members(blob)
    acc = np.zeros(values.shape[1:])
    for rows in values[:k]:
        rows = rows.astype(np.float64)
        if logits:
            rows = np.exp(rows - rows.max(axis=1, keepdims=True))
            rows /= rows.sum(axis=1, keepdims=True)
        acc += rows
    return acc / k


def stream_means(blob, ks) -> dict:
    """``{k: mean}`` for each distinct k of one TensorStream pass over the bytes."""
    return dict(TensorStream(io.BytesIO(blob)).means(ks))
