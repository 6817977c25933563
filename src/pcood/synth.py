"""Synthetic score populations and prediction tensors with known discrimination.

All randomness flows through a counter-based generator keyed by (seed,
stream) and addressed by absolute value index: a worker producing
indices [a, b) positions the counter at a and draws b - a values, so
any partitioning of the index space reproduces bit-identical output.
Normal deviates come from the inverse CDF of one uniform draw per
index, with no rejection loop that could desynchronize shards. That
inverse CDF has the bits of scipy.special.ndtri; a run of up to 2**23
draws takes them from a numpy port of the same code (_ndtri), and does
not load scipy.

Gaussian score pairs have a closed-form AUROC, which makes them the
ground-truth oracle for the evaluation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .predictive import _softmax_rows
from .scores import _libm_log

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


# _ndtri is Cephes' ndtri (S. L. Moshier, Cephes Math Library, ndtri.c),
# the code scipy.special.ndtri runs, with its coefficients, its reflection
# at 1 - e**-2 and its order of operations, so it gives scipy's bits:
# - Away from the tails it uses only +, -, * and /, each rounded once
#   to nearest in numpy as in C.
# - In the tails it takes two logs, and these come from libm, the log
#   scipy calls (see scores._libm_log): numpy's vectorized log is 1 ulp off
#   libm's on some inputs (with it, 719 of 12,000,000 Philox draws
#   differed).
# This holds only if scipy's build contracts no a * x + b into one fused
# multiply-add; the differential tests check that it gives scipy's bits on
# over 10**7 draws, bit patterns and the branch edges.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# For z = sqrt(-2 log y) in [2, 8), i.e. y down to e**-32.
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# For z in [8, 64).
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189

# Draws _ndtri works on at a time, so its temporaries stay small whatever
# the tile. Small blocks pay numpy's per-call overhead, which holds the GIL
# against a second tile thread. On a 2-vCPU x86-64 machine, per draw in
# blocks of 4096 / 16384 / 32768: 32-48 / 21-30 / 19-20 ns in one thread,
# 65 / 23-29 / 16-20 ns of wall time with two threads converting at once
# (scipy's ndtri: 14.5 ns in one thread). Whole `synth` runs were no
# faster at 32768, which holds twice the temporaries per thread.
_NDTRI_BLOCK = 1 << 14

# Most normals a synth run (a tensor pair or a score population pair) draws
# with _ndtri; above it, the run loads scipy for its ndtri. On a 2-vCPU
# x86-64 machine, in process, 2 x 300k draws in 16384-draw blocks cost
# _ndtri 12.9 ms against 9.1 ms for scipy's (about 6 ns more per draw), or
# 47 ms with the math.log fallback of _libm_log (about 64 ns more), and
# importing scipy.special cost 0.19-0.23 s of wall time (0.33-0.37 s of
# CPU). So in one thread _ndtri is the cheaper one up to about 30M draws,
# or 3M on the fallback. Run as `synth tensor` tiles, the scene fixture's
# 6.4M draws took less wall time on _ndtri at 1 and at 2 workers, and
# about 19 MiB less memory; 2**23 keeps them there. (In 4096-draw blocks
# _ndtri lost at 2 workers: its many small numpy calls held the GIL.)
_PORT_MAX_DRAWS = 1 << 23

def _ratio(x: np.ndarray, p, q) -> np.ndarray:
    """Cephes' (x * polevl(x, p)) / p1evl(x, q), by Horner's rule."""
    num = np.full_like(x, p[0])
    for c in p[1:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _ndtri_tails(t: np.ndarray) -> np.ndarray:
    """ndtri of each t below e**-2 or above 1 - e**-2."""
    # min(t, 1 - t) is Cephes' reflection, and a tail result is never 0, so
    # taking the sign of t - 0.5 is its negation of the lower tail.
    x = _libm_log(np.minimum(t, 1.0 - t))
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _ratio(z, _NDTRI_P1, _NDTRI_Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        x1[far] = _ratio(z[far], _NDTRI_P2, _NDTRI_Q2)
    x0 = _libm_log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    x0 -= x1
    return np.copysign(x0, t - 0.5, out=x0)


def _ndtri_block(y: np.ndarray) -> None:
    """Overwrite each float64 in (0, 1) of the 1-D array y with its ndtri."""
    central = (y > _EXP_M2) & (y <= 1.0 - _EXP_M2)
    mid, tail = np.flatnonzero(central), np.flatnonzero(~central)
    t = y[tail]
    c = y[mid]
    c -= 0.5
    r = _ratio(c * c, _NDTRI_P0, _NDTRI_Q0)
    r *= c
    r += c
    r *= _SQRT_2PI
    y[mid] = r
    y[tail] = _ndtri_tails(t)


def _ndtri(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri(u, out=u) for a C-contiguous float64 u in the
    open interval (0, 1): out must be u, which is overwritten."""
    if out is not u or not u.flags.c_contiguous:
        raise ValueError("_ndtri works in place on a contiguous array")
    flat = u.reshape(-1)
    for a in range(0, flat.size, _NDTRI_BLOCK):
        _ndtri_block(flat[a:a + _NDTRI_BLOCK])
    return u


def _ndtri_for(draws: int):
    """The inverse normal CDF for a run of `draws` normal draws: _ndtri up
    to _PORT_MAX_DRAWS draws, scipy.special.ndtri above. The two give the
    same bits, so the choice moves no output."""
    if draws <= _PORT_MAX_DRAWS:
        return _ndtri
    from scipy.special import ndtri
    return ndtri


def _standard_normals(seed: int, stream: int, start: int, count: int,
                      draws: int) -> np.ndarray:
    """Normals at absolute indices [start, start + count) of a run that
    draws `draws` normals in all; the run's size picks the inverse CDF."""
    u = _uniforms(seed, stream, start, count)
    np.maximum(u, _UNIFORM_FLOOR, out=u)
    return _ndtri_for(draws)(u, out=u)


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
    z = _standard_normals(spec.seed, stream, start, stop - start,
                          spec.n_id + spec.n_ood)
    with np.errstate(over="ignore"):
        scores = mu + sigma * z
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValidationError(
            f"{population} score {start + int(bad[0])} overflows: "
            f"{mu!r} + {sigma!r} * {float(z[bad[0]])!r} is not finite")
    return scores


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


def synth_true_classes(n_classes: int, seed: int, start: int,
                       stop: int) -> np.ndarray:
    """0-based true classes the ID tensor concentrates its mass on."""
    u = _uniforms(seed, _STREAM_TRUE_CLASS, start, stop - start)
    return np.minimum((u * n_classes).astype(np.int64), n_classes - 1)


def synth_member(n_points: int, n_classes: int, n_members: int,
                 separability: float, seed: int, m: int, start: int,
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
    _check_tensor_args(n_points, n_classes, n_members, separability, seed)
    if not 0 <= m < n_members:
        raise ValidationError(f"member index must be in 0..{n_members - 1}, got {m}")
    if not 0 <= start <= stop <= n_points:
        raise ValidationError(f"chunk [{start}, {stop}) outside 0..{n_points}")
    count = stop - start
    base = (m * n_points + start) * n_classes
    draws = 2 * n_members * n_points * n_classes
    z = _standard_normals(seed, _STREAM_ID_NOISE, base, count * n_classes,
                          draws).reshape(count, n_classes)
    z[np.arange(count),
      synth_true_classes(n_classes, seed, start, stop)] += separability
    id_rows = _softmax_rows(z).astype(np.float32)
    z = _standard_normals(seed, _STREAM_OOD_NOISE, base, count * n_classes,
                          draws).reshape(count, n_classes)
    return id_rows, _softmax_rows(z).astype(np.float32)

