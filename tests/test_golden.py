"""Byte identity of every report, map and message against tests/golden.

Each case of ``tests/golden/expected.json`` reruns in its own tmp_path
with relative input names, through ``cli.main`` in process (or one
``python -m pcood`` subprocess), and must reproduce the recorded exit
code, stdout, stderr and output digests. ``tests/golden/regen.py``
rewrites the file; see its docstring for when that is allowed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = json.loads((_GOLDEN / "expected.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case_reproduces_its_bytes(case, tmp_path):
    assert regen.run_case({key: case[key] for key in ("name", "argv", "subprocess")},
                          tmp_path) == case


def test_cases_match_the_generator():
    """expected.json holds exactly the cases regen.py defines, in order."""
    assert [{key: case[key] for key in ("name", "argv", "subprocess")}
            for case in CASES] == regen.cases()


def test_worker_count_never_changes_a_record():
    """Cases that differ only in --workers recorded the same bytes."""
    groups = {}
    for case in CASES:
        argv = list(case["argv"])
        if "--workers" in argv:
            i = argv.index("--workers")
            del argv[i:i + 2]
        record = {key: case[key] for key in ("exit", "stdout", "stderr", "outputs")}
        groups.setdefault(tuple(argv), []).append(record)
    paired = [records for records in groups.values() if len(records) > 1]
    assert len(paired) >= 40
    for records in paired:
        assert all(record == records[0] for record in records)


def test_inputs_stay_small():
    assert sum((_GOLDEN / name).stat().st_size for name in regen.INPUTS) < 200_000
