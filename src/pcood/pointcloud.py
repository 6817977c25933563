"""Semantic3D point and label ingestion, and ID/OOD map output.

Clouds follow the Semantic3D ASCII conventions: one point per line with
fields ``x y z intensity r g b``, plus an optional label file carrying
one integer class id per line (0 marks unlabeled points, 1..C the
classes). The readers are the only validators. The points reader checks
all seven fields of each line and keeps only the coordinates, the one
column the map writes. What the readers return are read-only numpy
arrays, so they can be shared across threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._io import frozen, iter_blocks, quoted, read_rows
from .errors import ValidationError

# Colors for the rendered ID/OOD map.
ID_COLOR = (0, 255, 0)
OOD_COLOR = (255, 0, 0)


# One decoded points row: x y z intensity as float64, r g b as int64.
_POINT_DTYPE = np.dtype([(name, np.float64) for name in ("x", "y", "z", "intensity")]
                        + [(name, np.int64) for name in ("r", "g", "b")])
_LABEL_DTYPE = np.dtype([("label", np.int64)])
_INT64 = np.iinfo(np.int64)

# Points formatted per write in write_idood_map: about 0.5 MiB of
# temporaries per chunk, and faster than longer chunks.
_WRITE_ROWS = 1 << 12


def _parse_point(lineno: int, line: str):
    """The line parser for points: the (x, y, z) of a line, after all seven
    of its fields passed their checks, or None for a blank line."""
    fields = line.split()
    if not fields:
        return None
    if len(fields) != 7:
        raise ValidationError(
            f"points line {lineno}: expected 7 fields (x y z intensity r g b), "
            f"got {len(fields)}"
        )
    try:
        x, y, z, inten = (float(f) for f in fields[:4])
        r, g, b = (int(f) for f in fields[4:])
    except ValueError:
        raise ValidationError(f"points line {lineno}: malformed field in {quoted(line)}") from None
    if not all(math.isfinite(v) for v in (x, y, z, inten)):
        raise ValidationError(f"points line {lineno}: non-finite coordinate or intensity")
    for name, v in (("r", r), ("g", g), ("b", b)):
        if not 0 <= v <= 255:
            raise ValidationError(f"points line {lineno}: color {name}={v} outside 0..255")
    return x, y, z


def _accept_points(rec: np.ndarray):
    """The (n, 3) float64 xyz of a block numpy decoded, or None where a row
    fails a check of _parse_point: a non-finite coordinate or intensity, or
    a color outside 0..255. Intensity and color go with the block."""
    xyz = np.column_stack([rec[name] for name in "xyz"])
    if (np.isfinite(xyz).all() and np.isfinite(rec["intensity"]).all()
            and all(((rec[c] >= 0) & (rec[c] <= 255)).all() for c in "rgb")):
        return xyz
    return None


def _parse_label(lineno: int, line: str):
    """The line parser for labels: the int of a line, or None for a blank
    line. A block numpy decoded needs neither check mirrored: its int64
    reader rejects a field that is not an integer or lies outside int64."""
    text = line.strip()
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"labels line {lineno}: not an integer: {quoted(text)}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise ValidationError(f"labels line {lineno}: label {quoted(text)} outside int64")
    return value


def read_labels(stream, n_points: int, class_count: int) -> np.ndarray:
    """Read a Semantic3D labels file: one int64 per non-blank line.

    There must be one label per point of the cloud, each in
    0..class_count. Errors carry the 1-based line number of the offending
    line, or the index of the first label out of range. Returns a
    read-only array.
    """
    labels = read_rows(iter_blocks(stream), np.empty(0, dtype=np.int64), "labels line",
                       _LABEL_DTYPE, None, lambda rec: rec["label"], _parse_label)
    if labels.shape[0] != n_points:
        raise ValidationError(f"{n_points} points but {labels.shape[0]} labels")
    bad = np.flatnonzero((labels < 0) | (labels > class_count))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"label {labels[i]} at index {i} outside 0..{class_count}")
    return frozen(labels)


def parse_semantic3d(points_stream) -> np.ndarray:
    """Parse a Semantic3D points file into a read-only (N, 3) float64 xyz array.

    Blank lines are skipped, tabs and repeated spaces both separate
    fields. Every line must hold seven fields: finite coordinates and
    intensity, and r g b integers in 0..255; only the coordinates are
    kept. Errors carry the 1-based line number of the offending line.
    """
    return frozen(read_rows(iter_blocks(points_stream), np.empty((0, 3)), "points line",
                            _POINT_DTYPE, None, _accept_points, _parse_point))


@functools.cache
def _digit_words():
    """The word tables of _map_chunk: each entry is up to 4 ASCII bytes,
    NUL-padded into one uint32, so a row is a fixed number of words.

    Returns (sign, groups, fraction, colors):
    - sign[g + 5 * s]: "-" if s, then the digit g of 1..4 (none for 0);
    - groups[k], groups[1000 + k], groups[2000 + k]: the 3-digit group k
      zero-padded, without leading zeros, and without leading zeros but
      "0" for k == 0;
    - fraction[k], fraction[1000 + k]: ".ddd" and "ddd " for k;
    - colors[flag]: the ID or OOD colour and the newline, in 3 words.
    """
    k = np.arange(1000)
    digits = np.stack([k // 100, k // 10 % 10, k % 10], axis=1).astype(np.uint8) + ord("0")
    nul = np.zeros((1000, 1), dtype=np.uint8)
    padded = np.hstack([digits, nul])
    lead = padded.copy()
    lead[:, 0][k < 100] = 0
    lead[:, 1][k < 10] = 0
    lead0 = lead.copy()
    lead[0, 2] = 0
    fraction = np.vstack([np.hstack([np.full_like(nul, ord(".")), digits]),
                          np.hstack([digits, np.full_like(nul, ord(" "))])])
    g = np.arange(10) % 5
    sign = np.zeros((10, 4), dtype=np.uint8)
    sign[5:, 0] = ord("-")
    sign[:, 1] = np.where(g > 0, g + ord("0"), 0)
    colors = b"".join(("%d %d %d\n" % c).encode().ljust(12, b"\0")
                      for c in (ID_COLOR, OOD_COLOR))
    return (*(frozen(t.view(np.uint32)[:, 0])
              for t in (sign, np.vstack([padded, lead, lead0]), fraction)),
            np.frombuffer(colors, dtype=np.uint32).reshape(2, 3))


def _map_chunk(xyz: np.ndarray, flags: np.ndarray) -> bytes | None:
    """The map lines of float64 (n, 3) `xyz` and 0/1 `flags` as ASCII bytes,
    equal to "%.6f" per coordinate; None where a value is outside the
    domain this kernel spells exactly.

    "%.6f" prints the exact binary value v rounded to an integer count of
    1e-6, half to even. y = v * 1e6 is the double nearest the exact
    product. Below 2**52 every half-integer is a double, so no half-integer
    lies strictly between the exact product and y; if y is not itself a
    half-integer, rint(|y|) is the correctly rounded count. Exact ties
    (1/128), |v| >= 2**52 / 1e6 and NaN or inf fall outside.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(xyz * 1e6)
        count = np.rint(y)
        if not ((y < 2.0 ** 52).all() and (np.abs(y - count) != 0.5).all()):
            return None
    sign, groups, fraction, colors = _digit_words()
    count = count.astype(np.int64)
    whole = count // 1_000_000
    frac = count - whole * 1_000_000
    billions = whole // 1_000_000_000
    rest = whole - billions * 1_000_000_000
    millions = rest // 1_000_000
    rest -= millions * 1_000_000
    thousands = rest // 1000
    units = rest - thousands * 1000
    frac_hi = frac // 1000
    n = len(xyz)
    words = np.empty((n, 21), dtype=np.uint32)
    coords = words[:, :18].reshape(n, 3, 6)
    coords[..., 0] = sign[billions + 5 * np.signbit(xyz)]
    coords[..., 1] = groups[millions + 1000 * (whole < 1_000_000_000)]
    coords[..., 2] = groups[thousands + 1000 * (whole < 1_000_000)]
    coords[..., 3] = groups[units + 2000 * (whole < 1000)]
    coords[..., 4] = fraction[frac_hi]
    coords[..., 5] = fraction[1000 + frac - frac_hi * 1000]
    words[:, 18:] = colors[flags]
    return words.tobytes().translate(None, b"\0")


def write_idood_map(cloud: np.ndarray, flags: np.ndarray, sink) -> None:
    """Write ``x y z r g b`` lines colorized by the per-point ID/OOD flags.

    `cloud` is the (N, 3) xyz array of :func:`parse_semantic3d`. Flag 0
    (ID) points come out green (0, 255, 0) and flag 1 (OOD) points red
    (255, 0, 0), as :func:`~pcood.evaluation.apply_threshold` sets them;
    any other flag raises ``ValidationError`` before a byte is written.
    Coordinates are printed as ``"%.6f"`` prints them.
    """
    if len(flags) != len(cloud):
        raise ValidationError(
            f"mask length {len(flags)} does not match cloud length {len(cloud)}"
        )
    flags = np.asarray(flags)
    bad = np.flatnonzero((flags != 0) & (flags != 1))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"flag {flags[i]} at index {i} is not 0 or 1")
    flags = flags.astype(np.uint8, copy=False)
    colors = ("%d %d %d" % ID_COLOR, "%d %d %d" % OOD_COLOR)
    for start in range(0, len(cloud), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        xyz = np.asarray(cloud[start:stop], dtype=np.float64)
        chunk = _map_chunk(xyz, flags[start:stop])
        if chunk is None:
            rows = zip(xyz.tolist(), flags[start:stop].tolist())
            chunk = "".join(["%.6f %.6f %.6f %s\n" % (x, y, z, colors[flag])
                             for (x, y, z), flag in rows]).encode()
        sink.write(chunk)
