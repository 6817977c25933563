"""Synthetic score populations and prediction tensors with known discrimination.

All randomness flows through a counter-based generator keyed by (seed,
stream) and addressed by absolute value index: a worker producing
indices [a, b) positions the counter at a and draws b - a values, so
any partitioning of the index space reproduces bit-identical output.
Normal deviates come from the inverse CDF of one uniform draw per
index, with no rejection loop that could desynchronize shards.

Gaussian score pairs have a closed-form AUROC, which makes them the
ground-truth oracle for the evaluation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .predictive import _softmax_rows

# Stream ids keep the draws of unrelated quantities independent.
_STREAM_ID_SCORES = 0
_STREAM_OOD_SCORES = 1
_STREAM_TRUE_CLASS = 2
_STREAM_ID_NOISE = 3
_STREAM_OOD_NOISE = 4

# Philox emits 64-bit words in blocks of 4 and advance() skips whole
# blocks, so positioning at index i means advance(i // 4) plus i % 4
# discarded draws.
_BLOCK = 4

_MAX_SEED = 2 ** 64 - 1

# Smallest uniform fed to the inverse CDF; keeps it off the pole at 0.
_UNIFORM_FLOOR = 2.0 ** -53


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _MAX_SEED:
        raise ValidationError(f"seed must be in 0..2^64-1, got {seed}")
    return seed


def _uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws at absolute indices [start, start + count)."""
    # Imported here: numpy.random costs every other command about 10 ms.
    from numpy.random import Generator, Philox

    bitgen = Philox(key=np.array([seed, stream], dtype=np.uint64))
    bitgen.advance(start // _BLOCK)
    gen = Generator(bitgen)
    rem = start % _BLOCK
    if rem:
        gen.random(rem)
    return gen.random(count)


def _standard_normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    from scipy.special import ndtri

    u = _uniforms(seed, stream, start, count)
    np.maximum(u, _UNIFORM_FLOOR, out=u)
    return ndtri(u, out=u)


@dataclass(frozen=True)
class GaussianPairSpec:
    """Two Gaussian score populations (ID and OOD) plus sample sizes."""

    mu_id: float
    sigma_id: float
    mu_ood: float
    sigma_ood: float
    n_id: int
    n_ood: int
    seed: int

    def __post_init__(self):
        for name in ("mu_id", "sigma_id", "mu_ood", "sigma_ood"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.sigma_id <= 0 or self.sigma_ood <= 0:
            raise ValidationError("sigmas must be positive")
        if self.n_id < 1 or self.n_ood < 1:
            raise ValidationError("population sizes must be >= 1")
        _check_seed(self.seed)


def sample_scores_chunk(spec: GaussianPairSpec, population: str,
                        start: int, stop: int) -> np.ndarray:
    """Scores at indices [start, stop) of one population.

    Chunking is free: concatenating chunks over any partition of
    [0, n) equals the single full draw bit for bit.
    """
    if population == "id":
        n, mu, sigma, stream = spec.n_id, spec.mu_id, spec.sigma_id, _STREAM_ID_SCORES
    elif population == "ood":
        n, mu, sigma, stream = spec.n_ood, spec.mu_ood, spec.sigma_ood, _STREAM_OOD_SCORES
    else:
        raise ValidationError(f"population must be 'id' or 'ood', got {population!r}")
    if not 0 <= start <= stop <= n:
        raise ValidationError(f"chunk [{start}, {stop}) outside population of {n}")
    return mu + sigma * _standard_normals(spec.seed, stream, start, stop - start)


def _check_tensor_args(n_points, n_classes, n_members, separability, seed):
    if n_points < 0:
        raise ValidationError(f"n_points must be >= 0, got {n_points}")
    if n_classes < 2:
        raise ValidationError(f"need at least two classes, got {n_classes}")
    if n_members < 1:
        raise ValidationError(f"need at least one member, got {n_members}")
    if not math.isfinite(separability):
        raise ValidationError("separability must be finite")
    _check_seed(seed)


def synth_true_classes(n_points: int, n_classes: int, seed: int,
                       start: int, stop: int) -> np.ndarray:
    """0-based true classes the ID tensor concentrates its mass on."""
    u = _uniforms(seed, _STREAM_TRUE_CLASS, start, stop - start)
    return np.minimum((u * n_classes).astype(np.int64), n_classes - 1)


def synth_member(n_points: int, n_classes: int, separability: float,
                 seed: int, m: int, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 (ID, OOD) probability rows of member m for points [start, stop).

    Members share nothing: member m of the ID tensor adds `separability`
    to the true-class logit of standard-normal noise, the OOD tensor is
    the softmax of the noise alone. At separability 0 the two laws
    coincide; as it grows, ID rows approach one-hot while OOD rows keep
    their moderate spread. The draws of member m sit at fixed counter
    positions, so they depend neither on the member count nor on how the
    points are split.
    """
    if m < 0:
        raise ValidationError(f"member index must be >= 0, got {m}")
    _check_tensor_args(n_points, n_classes, m + 1, separability, seed)
    if not 0 <= start <= stop <= n_points:
        raise ValidationError(f"chunk [{start}, {stop}) outside 0..{n_points}")
    count = stop - start
    base = (m * n_points + start) * n_classes
    z = _standard_normals(seed, _STREAM_ID_NOISE, base,
                          count * n_classes).reshape(count, n_classes)
    z[np.arange(count),
      synth_true_classes(n_points, n_classes, seed, start, stop)] += separability
    id_rows = _softmax_rows(z).astype(np.float32)
    z = _standard_normals(seed, _STREAM_OOD_NOISE, base,
                          count * n_classes).reshape(count, n_classes)
    return id_rows, _softmax_rows(z).astype(np.float32)

