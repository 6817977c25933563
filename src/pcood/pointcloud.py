"""Labeled point cloud ingestion and ID/OOD map output.

Clouds follow the Semantic3D ASCII conventions: one point per line with
fields ``x y z intensity r g b``, plus an optional label file carrying
one integer class id per line (0 marks unlabeled points, 1..C the
classes). Columns are stored as numpy arrays and frozen after
construction, so clouds can be shared across threads.
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
    """A point cloud with one class label per point (0 = unlabeled)."""

    xyz: np.ndarray  # (N, 3) float64
    intensity: np.ndarray  # (N,)
    rgb: np.ndarray  # (N, 3) uint8
    labels: np.ndarray  # (N,) int64, values in 0..class_count
    class_count: int = SEMANTIC3D_CLASS_COUNT
    source_id: str = ""

    def __post_init__(self):
        xyz = np.array(self.xyz, dtype=np.float64, copy=True)
        intensity = np.array(self.intensity, dtype=np.float64, copy=True)
        rgb = np.array(self.rgb, dtype=np.int64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise StructuralError(f"xyz must have shape (N, 3), got {xyz.shape}")
        n = xyz.shape[0]
        if intensity.shape != (n,):
            raise StructuralError(f"expected {n} intensities, got {intensity.shape}")
        if rgb.shape != (n, 3):
            raise StructuralError(f"rgb must have shape ({n}, 3), got {rgb.shape}")
        if labels.shape != (n,):
            raise StructuralError(f"{n} points but {labels.shape[0]} labels")
        if self.class_count < 1:
            raise ValidationError(f"class_count must be >= 1, got {self.class_count}")
        if not np.isfinite(xyz).all() or not np.isfinite(intensity).all():
            raise ValidationError("coordinates and intensities must be finite")
        # Range-check before the uint8 cast so out-of-range values cannot wrap.
        if rgb.size and (rgb.min() < 0 or rgb.max() > 255):
            raise ValidationError("color components must lie in 0..255")
        bad = np.nonzero((labels < 0) | (labels > self.class_count))[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"label {int(labels[i])} at index {i} outside 0..{self.class_count}"
            )
        self.xyz = _frozen(xyz)
        self.intensity = _frozen(intensity)
        self.rgb = _frozen(rgb.astype(np.uint8))
        self.labels = _frozen(labels)

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass
class IdOodMask:
    """Per-point binary decision: 0 keeps a point in-distribution, 1 flags OOD."""

    flags: np.ndarray

    def __post_init__(self):
        flags = np.array(self.flags, dtype=np.int64, copy=True)
        if flags.ndim != 1:
            raise StructuralError(f"mask must be one-dimensional, got shape {flags.shape}")
        if flags.size and not np.isin(flags, (0, 1)).all():
            raise ValidationError("mask entries must be 0 (ID) or 1 (OOD)")
        self.flags = _frozen(flags.astype(np.uint8))

    def __len__(self) -> int:
        return self.flags.shape[0]

    @property
    def n_ood(self) -> int:
        return int(self.flags.sum())

    @property
    def n_id(self) -> int:
        return len(self) - self.n_ood


# One decoded points row: x y z intensity as float64, r g b as int64.
_POINT_DTYPE = np.dtype([(name, np.float64) for name in ("x", "y", "z", "intensity")]
                        + [(name, np.int64) for name in ("r", "g", "b")])
_LABEL_DTYPE = np.dtype([("label", np.int64)])

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
            values.append(int(text))
        except ValueError:
            raise ParseError(f"labels line {lineno}: not an integer: {text!r}") from None
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


def parse_semantic3d(points_stream, labels_stream=None, *,
                     class_count: int = SEMANTIC3D_CLASS_COUNT,
                     source_id: str = "") -> LabeledCloud:
    """Parse a Semantic3D points file and an optional labels file.

    Blank lines are skipped, tabs and repeated spaces both separate
    fields. Errors carry the 1-based line number of the offending line.
    Without a labels file every point is marked unlabeled (0).
    """
    data = np.concatenate([np.empty((0, 7))] + [
        _points_block(lineno, block) for lineno, block in iter_blocks(points_stream)])
    n = data.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    if labels_stream is not None:
        parts = [_labels_block(lineno, block)
                 for lineno, block in iter_blocks(labels_stream)]
        count = sum(len(part) for part in parts)
        if count != n:
            raise StructuralError(f"{n} points but {count} labels")
        labels = np.concatenate([labels[:0]] + [np.asarray(part, dtype=np.int64)
                                                for part in parts])

    return LabeledCloud(data[:, :3], data[:, 3], data[:, 4:7].astype(np.int64),
                        labels, class_count=class_count, source_id=source_id)


def write_idood_map(cloud: LabeledCloud, mask: IdOodMask, sink) -> None:
    """Write ``x y z r g b`` lines colorized by the ID/OOD decision.

    ID points come out green (0, 255, 0) and OOD points red (255, 0, 0);
    coordinates are printed with six decimal places.
    """
    if len(mask) != len(cloud):
        raise StructuralError(
            f"mask length {len(mask)} does not match cloud length {len(cloud)}"
        )
    colors = ("%d %d %d" % ID_COLOR, "%d %d %d" % OOD_COLOR)
    for start in range(0, len(cloud), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        rows = zip(cloud.xyz[start:stop].tolist(), mask.flags[start:stop].tolist())
        write_text(sink, "".join(["%.6f %.6f %.6f %s\n" % (x, y, z, colors[flag])
                                  for (x, y, z), flag in rows]))
