"""Mutants of the golden PCOD tensors through every command that reads one.

Each example takes a golden tensor and applies one to three drawn
mutations: a bit flip, a truncation, an inserted or a deleted slice, a
header field set to an edge value, or a float32 special value written over
a drawn payload entry. The mutant then runs in process through `score`,
`aggregate`, `auroc`, `roc`, `iou` and `map`. Whatever the mutant, each
run exits 0, 1 or 2. A failing run writes one stderr line of at most
1 KiB, which names the mutant, and leaves no output or temp file. Every
thread a run starts has ended when it returns, and no run raises a
warning.
"""

import contextlib
import io
import shutil
import struct
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pcodref import HEADER
from pcood import _args

GOLDEN = Path(__file__).resolve().parent / "golden"
BASES = ("prob_id.pcod", "prob_ood.pcod", "logit_id.pcod", "logit_ood.pcod",
         "small.pcod")
# (offset, struct format) of each header field after the magic: version,
# kind, reserved byte, point, class and member counts.
HEADER_FIELDS = ((4, "<H"), (6, "<B"), (7, "<B"), (8, "<Q"), (16, "<H"),
                 (18, "<H"))
# Set into a field, each is cut to the field's largest value.
EDGE_VALUES = (0, 1, 2 ** 16 - 1, 2 ** 63)
SIGNALLING_NAN = 0x7FA00000
# Float32 bits: a signalling NaN, a quiet NaN with a payload, +inf, -inf,
# the smallest subnormal, -0.0 and 1 + ulp.
SPECIALS = (SIGNALLING_NAN, 0x7FC00001, 0x7F800000, 0xFF800000, 0x00000001,
            0x80000000, 0x3F800001)

_POSITIONS = st.integers(0, 1 << 16)
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), _POSITIONS, st.integers(0, 7)),
    st.tuples(st.just("truncate"), _POSITIONS, st.none()),
    st.tuples(st.just("insert"), _POSITIONS, st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("delete"), _POSITIONS, st.integers(1, 64)),
    st.tuples(st.just("field"), st.integers(0, len(HEADER_FIELDS) - 1),
              st.sampled_from(EDGE_VALUES)),
    st.tuples(st.just("special"), _POSITIONS, st.sampled_from(SPECIALS)),
)


def mutate(blob: bytes, mutation) -> bytes:
    """`blob` with one mutation applied; positions wrap around its length."""
    op, at, arg = mutation
    if op == "truncate":
        return blob[:at % (len(blob) + 1)]
    if op == "insert":
        at %= len(blob) + 1
        return blob[:at] + arg + blob[at:]
    data = bytearray(blob)
    if op == "field":
        offset, fmt = HEADER_FIELDS[at]
        if len(data) >= offset + struct.calcsize(fmt):
            largest = (1 << 8 * struct.calcsize(fmt)) - 1
            struct.pack_into(fmt, data, offset, min(arg, largest))
    elif op == "special":
        entries = (len(data) - HEADER.size) // 4
        if entries > 0:
            struct.pack_into("<I", data, HEADER.size + 4 * (at % entries), arg)
    elif data:
        at %= len(data)
        if op == "flip":
            data[at] ^= 1 << arg
        else:  # delete
            del data[at:at + arg]
    return bytes(data)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """Per golden tensor: its path, and a cloud and labels of its size."""
    root = tmp_path_factory.mktemp("scenes")
    cloud, labels = ([line for line in (GOLDEN / name).read_bytes().splitlines(
        keepends=True) if line.strip()] for name in ("cloud.txt", "labels.txt"))
    found = {}
    for name in BASES:
        blob = (GOLDEN / name).read_bytes()
        (n_points,) = struct.unpack_from("<Q", blob, 8)
        paths = [root / name, root / f"{name}.cloud.txt", root / f"{name}.labels.txt"]
        paths[0].write_bytes(blob)
        paths[1].write_bytes(b"".join(cloud[:n_points]))
        paths[2].write_bytes(b"".join(labels[:n_points]))
        found[name] = paths
    return root, found


def _runs(mutant, base, cloud, labels, out):
    """(name, argv, output) of each command, the mutant in one input role."""
    return [
        ("score", ["score", "--in", mutant], out / "scores.csv"),
        ("aggregate", ["aggregate", "--in", mutant], out / "mean.pcod"),
        ("auroc", ["auroc", "--id", mutant, "--ood", base], out / "auroc.txt"),
        ("roc", ["roc", "--id", base, "--ood", mutant], out / "roc.csv"),
        ("iou", ["iou", "--points", cloud, "--labels", labels, "--pred", mutant],
         out / "iou.txt"),
        ("map", ["map", "--points", cloud, "--pred", mutant, "--threshold", "0.5"],
         out / "map.txt"),
    ]


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(base=st.sampled_from(BASES), mutations=st.lists(MUTATIONS, min_size=1,
                                                       max_size=3))
@example(base="prob_id.pcod", mutations=[("special", 123, SIGNALLING_NAN)])
def test_mutants_fail_cleanly(scenes, base, mutations):
    root, found = scenes
    base_path, cloud, labels = found[base]
    blob = base_path.read_bytes()
    for mutation in mutations:
        blob = mutate(blob, mutation)
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        mutant = work / "mutant.pcod"
        mutant.write_bytes(blob)
        out = work / "out"
        out.mkdir()
        for name, argv, output in _runs(mutant, base_path, cloud, labels, out):
            threads = threading.active_count()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("always")
                code = _args.main([str(a) for a in [*argv, "--out", output]])
            assert threading.active_count() == threads, name
            assert [str(w.message) for w in caught] == [], name
            assert code in (0, 1, 2), name
            left = sorted(p.name for p in out.iterdir())
            if code == 0:
                assert left == [output.name], name
                output.unlink()
                continue
            text = err.getvalue()
            assert left == [], name
            assert text.count("\n") == 1 and text.endswith("\n"), name
            assert len(text.encode()) <= 1024, name
            prefix = "error" if code == 1 else "io error"
            assert text.startswith(f"{prefix}: {mutant}: "), (name, text)
    finally:
        shutil.rmtree(work)
