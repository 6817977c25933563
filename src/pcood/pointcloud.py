"""Labeled point cloud ingestion and ID/OOD map output.

Clouds follow the Semantic3D ASCII conventions: one point per line with
fields ``x y z intensity r g b``, plus an optional label file carrying
one integer class id per line (0 marks unlabeled points, 1..C the
classes). The readers are the only validators: the columns they return
are read-only numpy arrays, so clouds can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import block_lines, iter_blocks, load_block, numbered_lines, write_text
from .errors import ParseError, StructuralError, ValidationError

SEMANTIC3D_CLASS_COUNT = 8
SEMANTIC3D_CLASS_NAMES = (
    "Manmade terrain",
    "Natural terrain",
    "High vegetation",
    "Low vegetation",
    "Buildings",
    "Hardscapes",
    "Scanning artefacts",
    "Cars",
)

# Colors for the rendered ID/OOD map.
ID_COLOR = (0, 255, 0)
OOD_COLOR = (255, 0, 0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class LabeledCloud:
    """A point cloud with one class label per point (0 = unlabeled).

    The fields are read-only arrays as :func:`parse_semantic3d` decoded and
    checked them; a cloud built by hand is not checked again.
    """

    xyz: np.ndarray  # (N, 3) float64
    intensity: np.ndarray  # (N,) float64
    rgb: np.ndarray  # (N, 3) uint8
    labels: np.ndarray  # (N,) int64, values in 0..class_count
    class_count: int = SEMANTIC3D_CLASS_COUNT

    def __len__(self) -> int:
        return self.xyz.shape[0]


# One decoded points row: x y z intensity as float64, r g b as int64.
_POINT_DTYPE = np.dtype([(name, np.float64) for name in ("x", "y", "z", "intensity")]
                        + [(name, np.int64) for name in ("r", "g", "b")])
_LABEL_DTYPE = np.dtype([("label", np.int64)])
_INT64 = np.iinfo(np.int64)

# Points formatted per write in write_idood_map.
_WRITE_ROWS = 1 << 16


def _point_rows(numbered) -> list:
    """The line parser for points: one 7-tuple per non-blank numbered line."""
    rows = []
    for lineno, line in numbered:
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 7:
            raise ParseError(
                f"points line {lineno}: expected 7 fields (x y z intensity r g b), "
                f"got {len(fields)}"
            )
        try:
            x, y, z, inten = (float(f) for f in fields[:4])
            r, g, b = (int(f) for f in fields[4:])
        except ValueError:
            raise ParseError(f"points line {lineno}: malformed field in {line!r}") from None
        if not all(math.isfinite(v) for v in (x, y, z, inten)):
            raise ParseError(f"points line {lineno}: non-finite coordinate or intensity")
        for name, v in (("r", r), ("g", g), ("b", b)):
            if not 0 <= v <= 255:
                raise ParseError(f"points line {lineno}: color {name}={v} outside 0..255")
        rows.append((x, y, z, inten, r, g, b))
    return rows


def _label_values(numbered) -> list:
    """The line parser for labels: one int per non-blank numbered line."""
    values = []
    for lineno, line in numbered:
        text = line.strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"labels line {lineno}: not an integer: {text!r}") from None
        if not _INT64.min <= value <= _INT64.max:
            raise ParseError(f"labels line {lineno}: label {text!r} outside int64")
        values.append(value)
    return values


def _points_block(lineno: int, block) -> np.ndarray:
    """Decode one block of points as an (n, 7) float64 array.

    numpy's reader decodes the block; where it rejects the block, or a row
    fails the line parser's checks, the line parser reruns on the block and
    either raises its error or returns the rows numpy could not read.
    """
    rec = load_block(block, _POINT_DTYPE)
    if rec is not None:
        data = np.empty((rec.shape[0], 7))
        for j, name in enumerate(_POINT_DTYPE.names):
            data[:, j] = rec[name]
        rgb = data[:, 4:]
        if np.isfinite(data[:, :4]).all() and ((rgb >= 0) & (rgb <= 255)).all():
            return data
    rows = _point_rows(numbered_lines(block_lines(block), "points line", lineno))
    return np.array(rows, dtype=np.float64).reshape(len(rows), 7)


def _labels_block(lineno: int, block):
    """Decode one block of labels: an int64 array, or the line parser's ints."""
    rec = load_block(block, _LABEL_DTYPE)
    if rec is not None:
        return rec["label"]
    return _label_values(numbered_lines(block_lines(block), "labels line", lineno))


def read_labels(stream, n_points: int, class_count: int) -> np.ndarray:
    """Read a Semantic3D labels file: one int64 per non-blank line.

    There must be one label per point of the cloud, each in
    0..class_count. Errors carry the 1-based line number of the offending
    line, or the index of the first label out of range. Returns a
    read-only array.
    """
    labels = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.asarray(_labels_block(lineno, block), dtype=np.int64)
        for lineno, block in iter_blocks(stream)])
    if labels.shape[0] != n_points:
        raise StructuralError(f"{n_points} points but {labels.shape[0]} labels")
    bad = np.flatnonzero((labels < 0) | (labels > class_count))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"label {labels[i]} at index {i} outside 0..{class_count}")
    return _frozen(labels)


def parse_semantic3d(points_stream, labels_stream=None, *,
                     class_count: int = SEMANTIC3D_CLASS_COUNT) -> LabeledCloud:
    """Parse a Semantic3D points file and an optional labels file.

    Blank lines are skipped, tabs and repeated spaces both separate
    fields. Errors carry the 1-based line number of the offending line.
    Without a labels file every point is marked unlabeled (0).
    """
    data = _frozen(np.concatenate([np.empty((0, 7))] + [
        _points_block(lineno, block) for lineno, block in iter_blocks(points_stream)]))
    n = data.shape[0]
    labels = (_frozen(np.zeros(n, dtype=np.int64)) if labels_stream is None
              else read_labels(labels_stream, n, class_count))
    return LabeledCloud(data[:, :3], data[:, 3], _frozen(data[:, 4:].astype(np.uint8)),
                        labels, class_count=class_count)


def write_idood_map(cloud: LabeledCloud, flags: np.ndarray, sink) -> None:
    """Write ``x y z r g b`` lines colorized by the per-point ID/OOD flags.

    Flag 0 (ID) points come out green (0, 255, 0) and flag 1 (OOD) points
    red (255, 0, 0), as :func:`~pcood.evaluation.apply_threshold` sets
    them; coordinates are printed with six decimal places.
    """
    if len(flags) != len(cloud):
        raise StructuralError(
            f"mask length {len(flags)} does not match cloud length {len(cloud)}"
        )
    colors = ("%d %d %d" % ID_COLOR, "%d %d %d" % OOD_COLOR)
    for start in range(0, len(cloud), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        rows = zip(cloud.xyz[start:stop].tolist(), flags[start:stop].tolist())
        write_text(sink, "".join(["%.6f %.6f %.6f %s\n" % (x, y, z, colors[flag])
                                  for (x, y, z), flag in rows]))
