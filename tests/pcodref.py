"""PCOD tensors for the tests, the reference member mean and check, the
closed-form Gaussian AUROC, and the readers of what the tests draw and
report.

Tensors are written with pcood's writer (``write_header`` and
``write_member``) and read back with ``TensorStream``. The decoder, the
mean and the row check here share no code with pcood's reader: they are
the independent reference that streamed means are held to, bit for bit,
and member checks message for message.
"""

import io
import math
import struct

import numpy as np

from pcood import (TensorKind, TensorStream, sample_scores_chunk, synth_member,
                   write_header, write_member)
from pcood.predictive import PROB_ROW_SUM_TOL

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
    members = [synth_member(n_points, n_classes, n_members, separability, seed,
                            m, 0, n_points)
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
    return {k: total / k for k, total in TensorStream(io.BytesIO(blob)).sums(ks)}


def reference_check(rows, member):
    """The message of the first bad row of a probability member, or None.

    The float64 rule row by row: a row is bad if an entry is not finite,
    lies outside [0, 1], or its float64 row sum is off 1 by more than
    ``PROB_ROW_SUM_TOL``; the first of these that holds names the fault.
    """
    sums = np.sum(rows, axis=-1, dtype=np.float64)
    nonfinite = ~np.isfinite(rows).all(axis=-1)
    outside = ((rows < 0.0) | (rows > 1.0)).any(axis=-1)
    off = np.abs(sums - 1.0) > PROB_ROW_SUM_TOL
    bad = np.flatnonzero(nonfinite | outside | off)
    if not bad.size:
        return None
    i = int(bad[0])
    if nonfinite[i]:
        return "tensor values must be finite"
    if outside[i]:
        return "probability entries must lie in [0, 1]"
    return (f"member {member} point {i}: probability row sums to "
            f"{float(sums[i])!r}")


def analytic_auroc(spec) -> float:
    """Closed-form AUROC of a GaussianPairSpec's two Gaussians:
    Phi(dmu / sqrt(s1^2 + s2^2)), the oracle empirical AUROCs are held to."""
    z = (spec.mu_ood - spec.mu_id) / math.hypot(spec.sigma_id, spec.sigma_ood)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def sample_pair(spec):
    """The full (ID, OOD) score draws of a GaussianPairSpec, as ``synth scores``
    writes them."""
    return (sample_scores_chunk(spec, "id", 0, spec.n_id),
            sample_scores_chunk(spec, "ood", 0, spec.n_ood))


def read_report(source) -> dict:
    """The ``key=value`` lines of a binary metrics report, as an ordered dict
    of strings; blank lines are skipped, and any other line must hold ``=``."""
    entries = {}
    for lineno, line in enumerate(source.read().decode("utf-8").split("\n"), 1):
        text = line.strip()
        if text:
            key, sep, value = text.partition("=")
            assert sep, f"line {lineno}: expected key=value, got {text!r}"
            entries[key] = value
    return entries
