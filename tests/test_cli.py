"""End-to-end tests of the command-line interface.

Each subcommand runs in-process through main(argv) against real files
in a tmp directory; outputs are cross-checked bitwise against the same
computation done directly with the library. Worker-count independence
and rerun idempotence are asserted on actual output bytes.
"""

import concurrent.futures
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcood
from pcodref import (HEADER, members, pcod_bytes, read_report, reference_mean,
                     synth_pair)
from pcood import (ScoreKind, TensorKind, TensorStream, ValidationError,
                   apply_threshold, argmax_labels, exact_auroc, hist_accumulate,
                   hist_auroc, hist_new_range, read_roc_csv,
                   read_scores_csv, score_distribution, score_domain,
                   write_member)
from pcood import _args, cli, synth
from pcood.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _read_report(path):
    with open(path, "rb") as f:
        return read_report(f)


def _write_points_file(path, n, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        x, y, z = rng.uniform(-10.0, 10.0, size=3)
        i = int(rng.integers(0, 2048))
        r, g, b = (int(v) for v in rng.integers(0, 256, size=3))
        lines.append(f"{x:.3f} {y:.3f} {z:.3f} {i} {r} {g} {b}")
    path.write_text("\n".join(lines) + "\n")


def _write_labels_file(path, labels):
    path.write_text("\n".join(str(int(v)) for v in labels) + "\n")


def _pcod_env():
    """Environment for a child `python -m pcood` that imports this pcood."""
    env = dict(os.environ)
    src = str(Path(pcood.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# The golden help and usage-error records: each exits before a file is read.
_NUMPY_FREE_CASES = [
    case for case in json.loads((Path(__file__).resolve().parent / "golden"
                                 / "expected.json").read_text())["cases"]
    if case["name"].startswith("help-") or case["name"] in (
        "error-usage-unknown-kind", "error-score-workers-zero",
        "error-map-threshold-nan", "error-map-threshold-inf",
        "error-map-both-sources")]


# Every path flag of each subcommand, in the order its parser adds them,
# after the arguments that complete the command line.
_PATH_FLAGS = {
    "aggregate": ([], ["--in", "--out"]),
    "score": ([], ["--in", "--out"]),
    "auroc": ([], ["--id", "--ood", "--out"]),
    "roc": ([], ["--id", "--ood", "--out"]),
    "iou": ([], ["--points", "--labels", "--pred", "--out"]),
    "map": ([], ["--points", "--pred", "--roc", "--out"]),
    "synth scores": (["--n-id", "3", "--n-ood", "3"], ["--out-id", "--out-ood"]),
    "synth tensor": (["--points", "3"], ["--out-id", "--out-ood"]),
}


def _empty_path_cases():
    """(id, argv, stderr) of each command line with one or two path flags
    empty: the message names the first empty one the parser added."""
    cases = []
    for command, (rest, flags) in _PATH_FLAGS.items():
        for empty in [*((flag,) for flag in flags),
                      *itertools.combinations(flags, 2)]:
            argv = [*command.split(), *rest]
            for flag in flags:
                argv += [flag, "" if flag in empty else f"{flag[2:]}.dat"]
            role = empty[0][2:].replace("-", "_")
            cases.append((f"{command} {' '.join(empty)}", argv,
                          f"error: {command.split()[0]}: empty path for {role}\n"))
    return cases


_EMPTY_PATH_CASES = _empty_path_cases()


def _pyenv_pythons():
    """Interpreters of Python 3.10 or later in pyenv's versions directory."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = []
    for python in sorted((root / "versions").glob("3.*/bin/python3")):
        minor = python.parents[1].name.split(".")[1]
        if minor.isdigit() and int(minor) >= 10:
            found.append(python)
    return found


def _console_entry():
    """(module, function) of the pyproject.toml [project.scripts] entry."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["pcood"]
    module, _, func = entry.partition(":")
    return module, func


@pytest.fixture
def tensor_pair(tmp_path):
    id_blob, ood_blob = synth_pair(80, 6, 3, 2.5, 101)
    id_path = tmp_path / "id.pcod"
    ood_path = tmp_path / "ood.pcod"
    id_path.write_bytes(id_blob)
    ood_path.write_bytes(ood_blob)
    return id_path, ood_path, id_blob, ood_blob


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run("score", "--in", tmp_path / "absent.pcod",
                   "--out", tmp_path / "out.csv") == 2

    def test_bad_magic_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.pcod"
        bad.write_bytes(b"JUNK" + b"\x00" * 24)
        assert run("score", "--in", bad, "--out", tmp_path / "out.csv") == 1

    def test_truncated_tensor_is_io_error(self, tmp_path):
        blob, _ = synth_pair(10, 4, 1, 1.0, 5)
        cut = tmp_path / "cut.pcod"
        cut.write_bytes(blob[:-8])
        assert run("score", "--in", cut, "--out", tmp_path / "out.csv") == 2

    def test_oversized_header_is_io_error(self, tmp_path, capsys):
        # The header declares 2**36 points x 8 classes (2 TiB of payload)
        # but the file holds 64 bytes; nothing that size may be allocated.
        huge = tmp_path / "huge.pcod"
        huge.write_bytes(struct.pack("<4sHBBQHH", b"PCOD", 1, 0, 0, 2 ** 36, 8, 1)
                         + bytes(64))
        assert huge.stat().st_size == 84
        assert run("score", "--in", huge, "--out", tmp_path / "out.csv") == 2
        assert f"payload truncated: got 64 of {4 * 8 * 2 ** 36} bytes" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "hist"])
    @pytest.mark.parametrize("body, message", [
        (b"index,score\n0,\xff\n", "line 2: not valid UTF-8"),
        (b"index,score\n0,0.5\n1,nan\n", "line 3: non-finite score"),
        (b"index,score\n0,-inf\n", "line 2: non-finite score"),
    ])
    def test_hostile_score_csv_names_the_line(self, tmp_path, capsys, mode,
                                              body, message):
        good = tmp_path / "good.csv"
        good.write_text("index,score\n0,0.5\n1,0.25\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        assert run("auroc", "--id", good, "--ood", bad, "--mode", mode,
                   "--out", tmp_path / "r.txt") == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("argv", [["roc"], ["auroc", "--mode", "hist"]])
    def test_score_range_wider_than_a_double_is_rejected(self, tmp_path, capsys,
                                                         argv):
        # The pooled range [-1e308, 1e308] is finite, but its width is not.
        ids, oods = tmp_path / "id.csv", tmp_path / "ood.csv"
        ids.write_text("index,score\n0,1e+308\n")
        oods.write_text("index,score\n0,-1e+308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--id", ids, "--ood", oods, "--out", out) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: domain [-1e+308, 1e+308] is wider than the largest double\n")
        assert not out.exists()

    @pytest.mark.parametrize("head, message", [
        (b"", "line 1: expected header 'index,score', got"),
        (b"index,score\n0,0.5\n1,0.25\n", "line 4: expected 'index,score', got"),
    ])
    def test_huge_score_line_makes_a_short_error(self, tmp_path, head, message):
        # The message quotes 80 characters of the 10 MB line, not all of it.
        good = tmp_path / "good.csv"
        good.write_text("index,score\n0,0.5\n1,0.25\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(head + b"a" * (10 << 20) + b"\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pcood", "auroc", "--id", str(good), "--ood", str(bad),
             "--out", str(tmp_path / "r.txt")], capture_output=True, env=_pcod_env())
        assert proc.returncode == 1
        assert len(proc.stderr) <= 1024
        assert proc.stderr.decode() == f"error: {bad}: {message} {'a' * 80!r}...\n"

    @pytest.mark.parametrize("argv, roles", [
        (["aggregate", "--in", "id.pcod", "--out", "id.pcod"], "--out and --in"),
        (["score", "--in", "id.pcod", "--out", "./id.pcod"], "--out and --in"),
        (["auroc", "--id", "id.pcod", "--ood", "ood.pcod", "--out", "id.pcod"],
         "--out and --id"),
        # A hard link names the file by another path.
        (["roc", "--id", "id.pcod", "--ood", "ood.pcod", "--out", "link.pcod"],
         "--out and --ood"),
        (["iou", "--points", "p.txt", "--labels", "l.txt", "--pred", "id.pcod",
          "--out", "l.txt"], "--out and --labels"),
        (["map", "--points", "p.txt", "--pred", "id.pcod", "--threshold", "0.5",
          "--out", "sub/../p.txt"], "--out and --points"),
        (["map", "--points", "p.txt", "--pred", "id.pcod", "--roc", "roc.csv",
          "--out", "roc.csv"], "--out and --roc"),
        # Neither output exists yet: their resolved paths are compared.
        (["synth", "scores", "--n-id", "5", "--n-ood", "5", "--out-id", "x.csv",
          "--out-ood", "./x.csv"], "--out-ood and --out-id"),
        (["synth", "tensor", "--points", "5", "--out-id", "t.pcod",
          "--out-ood", "sub/../t.pcod"], "--out-ood and --out-id"),
    ])
    def test_output_naming_an_input_or_output_is_rejected(
            self, tmp_path, tensor_pair, monkeypatch, capsys, argv, roles):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        _write_points_file(tmp_path / "p.txt", 80)
        _write_labels_file(tmp_path / "l.txt", np.ones(80))
        (tmp_path / "roc.csv").write_text("threshold,fpr,tpr\n# auroc=0.5\n")
        os.link(tmp_path / "ood.pcod", tmp_path / "link.pcod")
        before = {path.name: path.read_bytes()
                  for path in tmp_path.iterdir() if path.is_file()}
        assert run(*argv) == 1
        assert capsys.readouterr().err == \
            f"error: {argv[0]}: {roles} name the same file\n"
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir() if path.is_file()} == before

    @pytest.mark.parametrize("argv, stderr",
                             [case[1:] for case in _EMPTY_PATH_CASES],
                             ids=[case[0] for case in _EMPTY_PATH_CASES])
    def test_empty_path_is_rejected_before_any_file_is_touched(
            self, tmp_path, monkeypatch, capsys, argv, stderr):
        monkeypatch.chdir(tmp_path)
        with mock.patch("builtins.open", side_effect=AssertionError("opened")):
            assert run(*argv) == 1
        assert capsys.readouterr().err == stderr
        assert list(tmp_path.iterdir()) == []

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 1
        for text in ("1,a", ","):
            capsys.readouterr()
            with pytest.raises(SystemExit) as info:
                run("auroc", "--id", "a", "--ood", "b", "--out", "c",
                    "--k-list", text)
            assert info.value.code == 1
            assert capsys.readouterr().err.endswith(
                f"pcood auroc: error: argument --k-list: bad k list: {text!r}\n")
        with pytest.raises(SystemExit) as info:
            run("score", "--in", tmp_path / "x.pcod")
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            run("score", "--in", "a", "--out", "b", "--kind", "bogus")
        assert info.value.code == 1

    def test_map_requires_exactly_one_threshold_source(self, tmp_path):
        args = ("map", "--points", tmp_path / "p.txt", "--pred",
                tmp_path / "t.pcod", "--out", tmp_path / "m.txt")
        assert run(*args) == 1
        assert run(*args, "--threshold", "0.5", "--roc", tmp_path / "r.csv") == 1

    def test_k_and_k_list_exclude_each_other(self, tmp_path, tensor_pair,
                                             capsys):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--k", "3",
                   "--k-list", "1,2", "--out", out) == 1
        assert capsys.readouterr().err == \
            "error: --k and --k-list exclude each other\n"
        assert not out.exists()

    def test_empty_population_is_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("index,score\n")
        full = tmp_path / "full.csv"
        full.write_text("index,score\n0,0.5\n")
        no_points, no_points2, points, points2 = (
            tmp_path / name for name in ("e.pcod", "e2.pcod", "f.pcod", "f2.pcod"))
        assert run("synth", "tensor", "--points", 0, "--out-id", no_points,
                   "--out-ood", no_points2) == 0
        assert run("synth", "tensor", "--points", 5, "--out-id", points,
                   "--out-ood", points2) == 0
        # Exact AUROC, a histogram AUROC and a ROC, on score CSVs and on
        # tensors, either population empty: each names the empty file.
        for id_path, ood_path, named in ((empty, full, empty), (full, empty, empty),
                                         (no_points, points2, no_points),
                                         (points, no_points2, no_points2)):
            for argv in (["auroc"], ["auroc", "--mode", "hist"], ["roc"]):
                assert run(*argv, "--id", id_path, "--ood", ood_path,
                           "--out", tmp_path / "r.txt") == 1
                assert capsys.readouterr().err == \
                    f"error: {named}: population is empty\n"
        assert not (tmp_path / "r.txt").exists()

    def test_class_counts_must_match(self, tmp_path, capsys):
        three, four = tmp_path / "c3.pcod", tmp_path / "c4.pcod"
        three.write_bytes(synth_pair(10, 3, 1, 1.0, 5)[0])
        four.write_bytes(synth_pair(10, 4, 1, 1.0, 5)[1])
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", three, "--ood", four, "--out", out) == 1
        assert capsys.readouterr().err == "error: class counts differ: 3 vs 4\n"
        assert not out.exists()

    def test_k_beyond_members_is_validation_error(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--k", "9",
                   "--out", tmp_path / "r.txt") == 1

    def test_k_flags_rejected_for_score_csv_inputs(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("index,score\n0,0.5\n1,0.25\n")
        assert run("auroc", "--id", csv, "--ood", csv, "--k", "2",
                   "--out", tmp_path / "r.txt") == 1

    def test_mixed_input_forms_rejected(self, tmp_path, tensor_pair):
        id_path, _, _, _ = tensor_pair
        csv = tmp_path / "s.csv"
        csv.write_text("index,score\n0,0.5\n")
        assert run("auroc", "--id", id_path, "--ood", csv,
                   "--out", tmp_path / "r.txt") == 1

    def test_bad_numeric_flags(self, tmp_path, tensor_pair, capsys):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--k", "0") == 1
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--bins", "1") == 1
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--workers", "0") == 1
        capsys.readouterr()
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--k-list", "1,0") == 1
        assert capsys.readouterr().err == \
            "error: --k-list entries must be >= 1, got (1, 0)\n"
        # Rejected before two count arrays of that size are allocated.
        capsys.readouterr()
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--bins", 10 ** 12) == 1
        assert capsys.readouterr().err == \
            "error: --bins must be at most 1048576, got 1000000000000\n"
        assert not out.exists()

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run("score", "--in", tmp_path / "absent.pcod", "--out", out) == 2
        assert not out.exists()

    def test_module_and_console_entry_points(self, tmp_path):
        # Children import the pcood this process imported, not an
        # installed copy that may be stale.
        env = _pcod_env()
        proc = subprocess.run([sys.executable, "-m", "pcood", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "aggregate" in proc.stdout

        # The console script an installer writes for the declared
        # [project.scripts] entry: import the target, exit with its result.
        module, func = _console_entry()
        script = tmp_path / "pcood"
        script.write_text(f"import sys\n"
                          f"from {module} import {func}\n"
                          f"sys.exit({func}())\n")
        proc = subprocess.run([sys.executable, str(script), "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "aggregate" in proc.stdout

        installed = shutil.which("pcood")
        if installed is not None:
            proc = subprocess.run([installed, "--help"], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0


class TestProcessStart:
    """What a fresh process pays before pcood does any work."""

    def test_import_pcood_loads_submodules_on_first_use(self):
        script = (
            "import json, sys\n"
            "import pcood\n"
            "heavy = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
            "star = {}\n"
            "exec('from pcood import *', star)\n"
            "try:\n"
            "    pcood.no_such_name\n"
            "    unknown = None\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps({'heavy': heavy, 'all': pcood.__all__,\n"
            "                  'star': sorted(set(star) - {'__builtins__'}),\n"
            "                  'dir': dir(pcood), 'unknown': unknown}))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=_pcod_env())
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["heavy"] == []
        assert len(set(seen["all"])) == len(seen["all"]) > 0
        assert seen["star"] == sorted(seen["all"])
        assert set(seen["all"]) <= set(seen["dir"])
        assert seen["unknown"] == "module 'pcood' has no attribute 'no_such_name'"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize("preset", [None, "3"])
    def test_console_entry_runs_numpy_and_scipy_on_one_thread(self, preset,
                                                              tmp_path):
        # `roc --help` exits before numpy loads; the synth run loads it
        # through the entry, as every real command does.
        module, func = _console_entry()
        script = (
            "import json, os, sys\n"
            f"from {module} import {func}\n"
            "try:\n"
            f"    {func}(['roc', '--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            f"code = {func}(['synth', 'scores', '--n-id', '3', '--n-ood', '2',\n"
            "                 '--out-id', 'id.csv', '--out-ood', 'ood.csv'])\n"
            "numpy = 'numpy' in sys.modules\n"
            "import scipy.special\n"
            "print(json.dumps([code, numpy, len(os.listdir('/proc/self/task')),\n"
            "                  os.environ['OPENBLAS_NUM_THREADS']]))\n")
        env = _pcod_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        code, numpy, threads, value = json.loads(proc.stdout.splitlines()[-1])
        assert (code, numpy) == (0, True)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["id.csv",
                                                                   "ood.csv"]
        if preset is None:
            assert (threads, value) == (1, "1")
        else:
            assert value == preset

    @pytest.mark.parametrize("case", _NUMPY_FREE_CASES,
                             ids=[case["name"] for case in _NUMPY_FREE_CASES])
    def test_help_and_usage_errors_exit_before_numpy_loads(self, case, tmp_path):
        # A fresh process through the console entry writes the recorded
        # bytes, then reports whether numpy was imported on the way.
        module, func = _console_entry()
        script = (
            "import sys\n"
            f"from {module} import {func}\n"
            "try:\n"
            f"    code = {func}(sys.argv[2:])\n"
            "finally:\n"
            "    with open(sys.argv[1], 'w') as f:\n"
            "        f.write(repr('numpy' in sys.modules))\n"
            "sys.exit(code)\n")
        flag = tmp_path / "numpy_loaded"
        work = tmp_path / "work"
        work.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, flag, *case["argv"]],
                              cwd=work, capture_output=True,
                              env={**_pcod_env(), "COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["exit"], case["stdout"].encode(), case["stderr"].encode())
        assert flag.read_text() == "False"
        assert list(work.iterdir()) == []

    def test_argument_layer_imports_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pcood._args\n"
             "print(sorted({'numpy', 'scipy', 'pcood.cli'} & set(sys.modules)))"],
            capture_output=True, text=True, env=_pcod_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_every_kind_flag_has_a_score_kind(self):
        assert sorted(_args.SCORE_KINDS.values()) == sorted(
            kind.value for kind in ScoreKind)

    def test_argument_layer_behaves_alike_on_every_local_python(self, tmp_path):
        # argparse's merging of subparser defaults, which the path checks
        # read, has changed between releases (bpo-45235). Each interpreter
        # runs the same command lines in one process, without numpy.
        pythons = _pyenv_pythons()
        if not pythons:
            pytest.skip("no pyenv interpreter of Python 3.10 or later")
        argvs = [case["argv"] for case in _NUMPY_FREE_CASES]
        argvs += [argv for _, argv, _ in _EMPTY_PATH_CASES]
        argvs += [["synth", "scores", "--n-id", "5", "--n-ood", "5",
                   "--out-id", "x.csv", "--out-ood", "./x.csv"],
                  ["auroc", "--id", "a", "--ood", "b", "--out", "sub/../a"]]
        script = (
            "import contextlib, io, json, sys\n"
            "from pcood._args import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            code = main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    results.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n")
        src = str(Path(pcood.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

        def results(python):
            proc = subprocess.run([python, "-c", script, json.dumps(argvs)],
                                  cwd=tmp_path, capture_output=True, text=True,
                                  env=env)
            assert proc.returncode == 0, (python, proc.stderr)
            return json.loads(proc.stdout)

        expected = results(sys.executable)
        assert {code for code, _, _ in expected} == {0, 1}
        for python in pythons:
            for argv, got, want in zip(argvs, results(python), expected,
                                       strict=True):
                if argv[-1] == "--help" and got[1] != want[1]:
                    # Python 3.13 wraps a usage line without parting an
                    # option from its metavar, so `synth scores --help` is
                    # laid out differently there; its words must match.
                    got[1], want = got[1].split(), [want[0], want[1].split(),
                                                    want[2]]
                assert got == want, (python, argv)
        assert list(tmp_path.iterdir()) == []


class TestEntropyWithoutScipy:
    """Entropy is scored with libm's log and loads no scipy; only a synth
    run above the ndtri cut-off does."""

    def test_decisions_leave_scipy_unloaded(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        roc = tmp_path / "roc.csv"
        entropy = ["--kind", "entropy"]
        pair = ["--id", id_path, "--ood", ood_path]
        runs = [
            (["roc", *pair, "--out", roc, *entropy], False),
            (["map", "--points", points, "--pred", id_path, "--roc", roc,
              "--out", tmp_path / "map.txt", *entropy], False),
            (["score", "--in", id_path, "--out", tmp_path / "s.csv", *entropy], False),
            *((["auroc", *pair, "--mode", mode, "--out", tmp_path / "a.txt",
                *entropy], False) for mode in ("exact", "auto", "hist")),
            # 2 x 4 members x 262145 points x 4 classes: just above 2**23 draws.
            (["synth", "tensor", "--points", 262145, "--classes", 4, "--members",
              4, "--out-id", tmp_path / "a.pcod", "--out-ood", tmp_path / "b.pcod"],
             True),
        ]
        script = ("import json, sys\n"
                  "from pcood.cli import main\n"
                  "code = main(json.loads(sys.argv[1]))\n"
                  "print(json.dumps([code, 'scipy' in sys.modules]))\n")
        for argv, loads_scipy in runs:
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps([str(a) for a in argv])],
                capture_output=True, text=True, env=_pcod_env())
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == [0, loads_scipy], argv


class TestSynthCommand:
    def test_tensor_outputs_match_library(self, tmp_path):
        out_id = tmp_path / "id.pcod"
        out_ood = tmp_path / "ood.pcod"
        assert run("synth", "tensor", "--points", 60, "--classes", 6,
                   "--members", 3, "--separability", "2.0", "--seed", 9,
                   "--out-id", out_id, "--out-ood", out_ood) == 0
        want_id, want_ood = synth_pair(60, 6, 3, 2.0, 9)
        assert out_id.read_bytes() == want_id
        assert out_ood.read_bytes() == want_ood

    def test_scores_round_trip(self, tmp_path):
        out_id = tmp_path / "id.csv"
        out_ood = tmp_path / "ood.csv"
        assert run("synth", "scores", "--n-id", 50, "--n-ood", 40,
                   "--mu-ood", "1.5", "--seed", 77,
                   "--out-id", out_id, "--out-ood", out_ood) == 0
        with open(out_id, "rb") as f:
            ids = read_scores_csv(f)
        with open(out_ood, "rb") as f:
            oods = read_scores_csv(f)
        assert ids.shape == (50,) and oods.shape == (40,)
        assert oods.mean() > ids.mean()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_overflowing_scores_exit_1_and_write_nothing(self, tmp_path, capsys,
                                                         workers):
        # At sigma 5e307 a draw overflows where |z| > 3.6. With seed 154
        # the first is in the second task, and the third task holds more;
        # the message names the first whatever the worker count.
        rows = cli._WRITE_ROWS
        n = 3 * rows
        z = synth._standard_normals(154, synth._STREAM_ID_SCORES, 0, n, n + 10)
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(5e307 * z))
        first = int(bad[0])
        assert rows <= first < 2 * rows and bad[-1] >= 2 * rows
        out_id, out_ood = tmp_path / "id.csv", tmp_path / "ood.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("synth", "scores", "--n-id", n, "--n-ood", 10,
                       "--sigma-id", "5e307", "--seed", 154, "--workers", workers,
                       "--out-id", out_id, "--out-ood", out_ood) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: id score {first} overflows: "
            f"0.0 + 5e+307 * {float(z[first])!r} is not finite\n")
        assert list(tmp_path.iterdir()) == []

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outputs = []
        for workers in (1, 8):
            out_id = tmp_path / f"id{workers}.pcod"
            out_ood = tmp_path / f"ood{workers}.pcod"
            assert run("synth", "tensor", "--points", 61, "--classes", 4,
                       "--members", 2, "--seed", 3, "--workers", workers,
                       "--out-id", out_id, "--out-ood", out_ood) == 0
            outputs.append(out_id.read_bytes() + out_ood.read_bytes())
        assert outputs[0] == outputs[1]

    def test_both_sides_of_the_ndtri_cut_off_write_the_same_bytes(
            self, tmp_path, monkeypatch):
        # At cut-off 0 every draw goes through scipy's ndtri, at 2**63 through
        # synth's own; both must give the outputs the same bytes.
        commands = [
            ["synth", "scores", "--n-id", 9000, "--n-ood", 5000, "--seed", 4],
            ["synth", "tensor", "--points", 5000, "--classes", 3, "--members",
             2, "--separability", "1.5", "--seed", 6],
        ]
        port = mock.Mock(wraps=synth._ndtri)
        monkeypatch.setattr(synth, "_ndtri", port)
        for command in commands:
            outputs = set()
            for cut_off in (0, 2 ** 63):
                monkeypatch.setattr(synth, "_PORT_MAX_DRAWS", cut_off)
                for workers in (1, 3):
                    port.reset_mock()
                    out_id, out_ood = tmp_path / "id.out", tmp_path / "ood.out"
                    assert run(*command, "--workers", workers, "--out-id",
                               out_id, "--out-ood", out_ood) == 0
                    assert port.called == (cut_off > 0)
                    outputs.add(out_id.read_bytes() + out_ood.read_bytes())
            assert len(outputs) == 1

    def test_scipy_loads_only_above_the_ndtri_cut_off(self, tmp_path):
        # 2 x 300k scores (the oracle) draw below 2**23 normals; a tensor of
        # 2 x 4 members x 262145 points x 4 classes draws just above it.
        runs = [
            (["synth", "scores", "--n-id", 300000, "--n-ood", 300000], False),
            (["synth", "tensor", "--points", 262145, "--classes", 4,
              "--members", 4], True),
        ]
        script = ("import json, sys\n"
                  "from pcood.cli import main\n"
                  "code = main(json.loads(sys.argv[1]))\n"
                  "print(json.dumps([code, 'scipy' in sys.modules]))\n")
        for argv, loads_scipy in runs:
            argv += ["--workers", 2, "--out-id", tmp_path / "a.out",
                     "--out-ood", tmp_path / "b.out"]
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps([str(a) for a in argv])],
                capture_output=True, text=True, env=_pcod_env())
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == [0, loads_scipy], argv[1]

    def test_library_calls_pick_the_commands_inverse_normal(self):
        # A 16-point tile loads scipy exactly where the run it is cut from
        # does: the pair's or population pair's draw count decides, not the
        # tile's.
        pair = "GaussianPairSpec(0.0, 1.0, 1.0, 1.0, 2 ** 22, {}, 5)"
        runs = [
            ("synth_member(262145, 4, 4, 1.0, 5, 3, 100, 116)", True),
            ("synth_member(262144, 4, 4, 1.0, 5, 3, 100, 116)", False),
            (f"sample_scores_chunk({pair.format('2 ** 22 + 1')}, 'ood', 100, 116)",
             True),
            (f"sample_scores_chunk({pair.format('2 ** 22')}, 'ood', 100, 116)",
             False),
        ]
        for call, loads_scipy in runs:
            script = ("import sys\n"
                      "from pcood import (GaussianPairSpec, sample_scores_chunk,"
                      " synth_member)\n"
                      f"{call}\n"
                      "print('scipy' in sys.modules)\n")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=_pcod_env())
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"{loads_scipy}\n", call

    def test_peak_memory_does_not_grow_with_members(self, tmp_path,
                                                   monkeypatch):
        # Each tile's rows are checked and written as they are drawn, so a
        # run holds a few tiles per thread and no (N, C) array: a point may
        # add at most 4 B to the peak, and so may 16 members over 2 (one
        # member's rows of both outputs would add 64 B per point at C = 8).
        # With one worker the peak repeats to the kilobyte. A thread holds
        # about four float64 tile arrays of draws and softmax temporaries
        # while it draws a tile, and a few drawn tiles per thread wait to
        # be written, so three workers may hold the temporaries of two more
        # threads. The runs of one comparison draw with one ndtri: every
        # run with scipy's (cut-off 0), then every run with synth's own
        # (cut-off 2**63).
        n, c = 20000, 8

        def peak(points, members, workers):
            tracemalloc.start()
            try:
                assert run("synth", "tensor", "--points", points, "--classes", c,
                           "--members", members, "--workers", workers,
                           "--out-id", tmp_path / "id.pcod",
                           "--out-ood", tmp_path / "ood.pcod") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for cut_off in (0, 2 ** 63):
            monkeypatch.setattr(synth, "_PORT_MAX_DRAWS", cut_off)
            # Lazy imports, thread start-up and first allocations.
            peak(n, 16, 3)
            bound = peak(n, 2, 1) + 4 * n
            assert peak(n, 16, 1) <= bound
            assert peak(n, 16, 3) <= bound + 2 * 4 * cli._TILE_ROWS * c * 8
            growth = (peak(4 * n, 2, 1) - peak(n, 2, 1)) / (3 * n)
            assert growth <= 4

    def test_tiny_tasks_give_the_same_bytes_at_any_worker_count(
            self, tmp_path, monkeypatch):
        # Tasks of 3 tensor rows and 5 score rows: the window of tasks in
        # flight straddles member and ID/OOD boundaries at 2 and 3 workers.
        commands = [
            ["synth", "tensor", "--points", 10, "--classes", 3, "--members",
             3, "--separability", "1.5", "--seed", 6],
            ["synth", "scores", "--n-id", 23, "--n-ood", 17, "--seed", 4],
        ]

        def outputs(command, workers):
            out_id, out_ood = tmp_path / "id.out", tmp_path / "ood.out"
            assert run(*command, "--workers", workers, "--out-id", out_id,
                       "--out-ood", out_ood) == 0
            return out_id.read_bytes(), out_ood.read_bytes()

        want = [outputs(command, 1) for command in commands]
        assert want[0] == synth_pair(10, 3, 3, 1.5, 6)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "_TILE_ROWS", 3)
        monkeypatch.setattr(cli, "_WRITE_ROWS", 5)
        for workers in (1, 2, 3):
            assert [outputs(command, workers) for command in commands] == want

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_bad_row_mid_member_keeps_its_message(self, tmp_path, capsys,
                                                    monkeypatch, workers):
        # Member 1's ID row at point 4100 lies in its second tile, and a
        # later tile of member 2 is bad too and finishes first; the message
        # names the first in the outputs' order, by its point in the whole
        # member.
        real = cli.synth_member

        def synth_member(*args):
            m, a, b = args[-3:]
            id_rows, ood_rows = real(*args)
            if (m, a) == (1, cli._TILE_ROWS):
                time.sleep(0.05)
                id_rows[4100 - a] = [1.0, 0.5, 0.0, 0.0]
            if (m, a) == (2, 0):
                ood_rows[7] = [1.0, 0.5, 0.0, 0.0]
            return id_rows, ood_rows

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "synth_member", synth_member)
        out_id, out_ood = tmp_path / "id.pcod", tmp_path / "ood.pcod"
        threads = threading.active_count()
        assert run("synth", "tensor", "--points", 3 * cli._TILE_ROWS,
                   "--classes", 4, "--members", 3, "--workers", workers,
                   "--out-id", out_id, "--out-ood", out_ood) == 1
        assert threading.active_count() == threads
        assert capsys.readouterr().err == (
            f"error: {out_id}: member 1 point 4100: probability row sums "
            f"to 1.5\n")
        assert list(tmp_path.iterdir()) == []

    def test_scores_peak_memory_does_not_grow_with_n(self, tmp_path,
                                                     monkeypatch):
        # Each task's rows are written as they are spelled, so a run holds
        # a few tasks' draws and text per thread and no population: from n
        # to 4n scores per population the peak may not grow by 1 B per
        # score. With three workers and tasks of 1024 rows, up to
        # 3 * _TASKS_PER_THREAD tasks are held, at most 64 B per row (its
        # float64 draw and its text); holding the populations would add
        # 16 B per score.
        n = 50000

        def peak(n_scores, workers):
            tracemalloc.start()
            try:
                assert run("synth", "scores", "--n-id", n_scores, "--n-ood",
                           n_scores, "--workers", workers,
                           "--out-id", tmp_path / "id.csv",
                           "--out-ood", tmp_path / "ood.csv") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(n, 3)  # lazy imports, thread start-up and first allocations
        assert peak(4 * n, 1) - peak(n, 1) <= 3 * n
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "_WRITE_ROWS", 1024)
        bound = peak(n, 1) + 3 * cli._TASKS_PER_THREAD * 1024 * 64
        assert peak(4 * n, 3) <= bound

    def test_sizes_the_header_cannot_hold_are_rejected(self, tmp_path, capsys):
        for flag, value in (("--classes", 2 ** 16), ("--members", 2 ** 16)):
            out_id = tmp_path / "id.pcod"
            assert run("synth", "tensor", "--points", 1, flag, value,
                       "--out-id", out_id, "--out-ood", tmp_path / "ood.pcod") == 1
            assert "a PCOD header cannot hold" in capsys.readouterr().err
            assert not out_id.exists()


class TestAggregateAndScore:
    def test_aggregate_k1_is_member_zero(self, tmp_path, tensor_pair, capsys):
        id_path, _, id_blob, _ = tensor_pair
        out = tmp_path / "agg.pcod"
        assert run("aggregate", "--in", id_path, "--out", out, "--k", 1) == 0
        agg = out.read_bytes()
        assert HEADER.unpack(agg[:20])[2:] == (0, 0, 80, 6, 1)
        np.testing.assert_array_equal(members(agg)[0], members(id_blob)[0])
        diag = capsys.readouterr().out
        assert "points=80" in diag and "members_used=1" in diag

    def test_aggregate_default_uses_all_members(self, tmp_path, tensor_pair):
        id_path, _, id_blob, _ = tensor_pair
        out = tmp_path / "agg.pcod"
        assert run("aggregate", "--in", id_path, "--out", out) == 0
        want = reference_mean(id_blob, 3).astype(np.float32)
        np.testing.assert_array_equal(members(out.read_bytes())[0], want)

    def test_aggregate_names_the_output_its_mean_would_break(self, tmp_path,
                                                            capsys):
        # Both members pass the 1e-5 row-sum check, but their mean rounded
        # to float32 does not: aggregate must not blame its input, and must
        # not write a tensor it could not read back.
        path = tmp_path / "two.pcod"
        path.write_bytes(struct.pack("<4sHBBQHH", b"PCOD", 1, 0, 0, 1, 2, 2)
                         + np.array([0.5, 0.50000995, 0.49999997, 0.50001],
                                    dtype="<f4").tobytes())
        assert run("score", "--in", path, "--out", tmp_path / "s.csv") == 0
        out = tmp_path / "agg.pcod"
        capsys.readouterr()
        assert run("aggregate", "--in", path, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: member 0 point 0: probability row sums to "
            f"1.0000100135803223\n")
        assert not out.exists()

    def test_score_matches_library(self, tmp_path, tensor_pair):
        id_path, _, id_blob, _ = tensor_pair
        out = tmp_path / "scores.csv"
        assert run("score", "--in", id_path, "--out", out,
                   "--kind", "entropy", "--k", 2) == 0
        with open(out, "rb") as f:
            got = read_scores_csv(f)
        want = score_distribution(reference_mean(id_blob, 2), ScoreKind.ENTROPY)
        np.testing.assert_array_equal(got, want)

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, _, _, _ = tensor_pair
        blobs = []
        for workers in (1, 8):
            agg = tmp_path / f"agg{workers}.pcod"
            csv = tmp_path / f"s{workers}.csv"
            assert run("aggregate", "--in", id_path, "--out", agg,
                       "--workers", workers) == 0
            assert run("score", "--in", id_path, "--out", csv,
                       "--workers", workers) == 0
            blobs.append(agg.read_bytes() + csv.read_bytes())
        assert blobs[0] == blobs[1]


@st.composite
def _small_tensors(draw):
    """PCOD bytes of 1-4 members of 0-150 points, probabilities or logits."""
    k, n, c = draw(st.integers(1, 4)), draw(st.integers(0, 150)), draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    logits = rng.normal(scale=draw(st.sampled_from([0.5, 4.0])), size=(k, n, c))
    if draw(st.booleans()):
        return pcod_bytes(logits, TensorKind.LOGITS)
    expd = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return pcod_bytes(expd / expd.sum(axis=-1, keepdims=True))


_ROW_FNS = {
    "msp": lambda probs: score_distribution(probs, ScoreKind.MSP_COMPLEMENT),
    "entropy": lambda probs: score_distribution(probs, ScoreKind.ENTROPY),
    "argmax": argmax_labels,
    "mean": lambda probs: probs,
}


def _per_k_bits(blob, fn, workers, tile_rows):
    """The int64 bits of _per_k's results at every k, in `tile_rows` tiles."""
    stream = TensorStream(io.BytesIO(blob))
    with mock.patch.object(cli, "_TILE_ROWS", tile_rows):
        return [result.view(np.int64) for _, results in cli._per_k(
            [("t", stream)], range(1, stream.n_members + 1), workers, fn)
            for result in results]


class TestTiledScoring:
    """Means are scored in row tiles; the tile size moves no bit."""

    @settings(max_examples=200, deadline=None)
    @given(_small_tensors(), st.integers(1, 97), st.sampled_from([1, 3]))
    def test_any_tile_size_gives_the_bits_of_one_tile(self, blob, tile_rows,
                                                      workers):
        for fn in _ROW_FNS.values():
            want = _per_k_bits(blob, fn, 1, 1 << 20)
            got = _per_k_bits(blob, fn, workers, tile_rows)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("tile_rows", [1, 7, 97])
    def test_aggregate_output_does_not_depend_on_the_tile(self, tmp_path,
                                                          tensor_pair, tile_rows):
        # Every command that tiles its points, and the commands that bin
        # their scores, at 1 and 3 workers against one tile on one worker.
        id_path, ood_path, _, _ = tensor_pair
        id_csv, ood_csv = tmp_path / "id.csv", tmp_path / "ood.csv"
        assert run("score", "--in", id_path, "--out", id_csv) == 0
        assert run("score", "--in", ood_path, "--out", ood_csv) == 0
        tensors = ["--id", id_path, "--ood", ood_path]
        csvs = ["--id", id_csv, "--ood", ood_csv]
        commands = {
            "agg.pcod": ["aggregate", "--in", id_path],
            "score.csv": ["score", "--in", id_path, "--kind", "entropy"],
            "roc_tensors.csv": ["roc", *tensors, "--kind", "entropy"],
            "roc_csvs.csv": ["roc", *csvs],
            "auroc_tensors.txt": ["auroc", *tensors, "--mode", "hist",
                                  "--k-list", "1,3"],
            "auroc_csvs.txt": ["auroc", *csvs, "--mode", "hist"],
        }

        def outputs(rows, workers):
            out = tmp_path / f"{rows}-{workers}"
            out.mkdir()
            with mock.patch.object(cli, "_TILE_ROWS", rows):
                for name, argv in commands.items():
                    assert run(*argv, "--out", out / name,
                               "--workers", workers) == 0
                assert run("synth", "tensor", "--points", 80, "--classes", 5,
                           "--members", 2, "--seed", 6, "--workers", workers,
                           "--out-id", out / "synth_id.pcod",
                           "--out-ood", out / "synth_ood.pcod") == 0
                assert run("synth", "scores", "--n-id", 300, "--n-ood", 200,
                           "--seed", 6, "--workers", workers,
                           "--out-id", out / "synth_id.csv",
                           "--out-ood", out / "synth_ood.csv") == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        want = outputs(1 << 20, 1)
        assert len(want) == len(commands) + 4
        for workers in (1, 3):
            assert outputs(tile_rows, workers) == want


class TestShardThreads:
    """_run_shards starts at most one thread per task and per usable CPU,
    keeps at most _TASKS_PER_THREAD tasks per thread in flight, and yields
    its results, and its first error, in task order."""

    @staticmethod
    def _tiles(monkeypatch, n_rows, workers):
        """(_run_shards' results over the tiles of n_rows rows, the
        max_workers of each executor it made), with an executor that runs
        each task on the calling thread when it is submitted."""
        requested = []

        class Executor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Executor)
        tiles = cli._tiles(n_rows, cli._TILE_ROWS)
        return list(cli._run_shards(lambda a, b: (a, b), tiles,
                                    workers)), requested

    def test_a_huge_worker_count_asks_for_at_most_the_usable_cpus(self,
                                                                  monkeypatch):
        rows = cli._TILE_ROWS
        tiles, requested = self._tiles(monkeypatch, 10 * rows, 10 ** 6)
        assert tiles == [(i * rows, (i + 1) * rows) for i in range(10)]
        assert all(n <= min(10, cli._usable_cpus()) for n in requested)

    @pytest.mark.parametrize("workers, cpus, want", [
        (10 ** 6, 64, [10]), (10 ** 6, 3, [3]), (4, 64, [4]),
        (10 ** 6, 1, []), (1, 64, [])])
    def test_threads_are_the_least_of_workers_tiles_and_cpus(
            self, monkeypatch, workers, cpus, want):
        rows = cli._TILE_ROWS
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        tiles, requested = self._tiles(monkeypatch, 10 * rows - 1, workers)
        assert tiles == [(i * rows, min((i + 1) * rows, 10 * rows - 1))
                         for i in range(10)]
        assert requested == want

    @staticmethod
    def _staggered(i):
        """i, after a sleep that makes later tasks finish first."""
        time.sleep(0.002 * (4 - i % 5))
        return i

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_task_order(self, monkeypatch, workers):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        tasks = [(i,) for i in range(40)]
        assert list(cli._run_shards(self._staggered, tasks, workers)) == \
            list(range(40))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_in_flight_tasks_never_exceed_the_bound(self, monkeypatch,
                                                    workers):
        # A task is in flight from its submission until the caller takes
        # its result; the window fills up and never goes past its bound.
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        count = {"submitted": 0, "taken": 0}
        in_flight = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args):
                count["submitted"] += 1
                in_flight.append(count["submitted"] - count["taken"])
                return super().submit(fn, *args)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        results = []
        for result in cli._run_shards(self._staggered,
                                      [(i,) for i in range(100)], workers):
            count["taken"] += 1
            results.append(result)
        assert results == list(range(100))
        assert len(in_flight) == 100
        assert max(in_flight) == workers * cli._TASKS_PER_THREAD

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_first_failing_task_raises_and_no_thread_is_left(
            self, monkeypatch, workers):
        # Task 9 fails before task 5 does, but task 5 comes first.
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        ran = []

        def fn(i):
            ran.append(i)
            time.sleep(0.02 if i == 5 else 0.001)
            if i in (5, 9):
                raise ValidationError(f"task {i}")
            return i

        threads = threading.active_count()
        taken = []
        with pytest.raises(ValidationError, match="^task 5$"):
            for result in cli._run_shards(fn, [(i,) for i in range(200)],
                                          workers):
                taken.append(result)
        assert taken == list(range(5))
        assert threading.active_count() == threads
        # The tasks beyond the window were never started.
        assert len(ran) <= 5 + 1 + workers * cli._TASKS_PER_THREAD

    def test_closing_the_runner_cancels_its_queue_and_joins_its_threads(
            self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        ran = []

        def fn(i):
            ran.append(i)
            time.sleep(0.001)
            return i

        threads = threading.active_count()
        results = cli._run_shards(fn, [(i,) for i in range(200)], 3)
        assert next(results) == 0
        results.close()
        assert threading.active_count() == threads
        assert len(ran) <= 1 + 3 * cli._TASKS_PER_THREAD

    def test_usable_cpus_is_the_affinity_set_else_the_cpu_count(self,
                                                               monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1


class TestMemberDigestThread:
    """The member pass ends its digest helper on every error exit, and an
    error keeps its message and exit code."""

    @staticmethod
    def _bad_row(blob, member, point):
        """`blob` with one probability row of `member` summing to 1.5."""
        n, c, _ = struct.unpack_from("<QHH", blob, 8)
        at = HEADER.size + 4 * c * (member * n + point)
        row = struct.pack(f"<{c}f", 1.0, 0.5, *[0.0] * (c - 2))
        return blob[:at] + row + blob[at + len(row):]

    @classmethod
    def _cases(cls, id_blob, ood_blob):
        """(name, id blob, ood blob, bad role, exit code, message after
        the path) of each error."""
        size = len(id_blob)
        member = (size - HEADER.size) // 3
        return [
            ("truncated-mid-member", id_blob[:-member - 10], ood_blob, "id", 2,
             f"payload truncated: got {size - HEADER.size - member - 10} of "
             f"{size - HEADER.size} bytes"),
            ("bad-row-member-0", cls._bad_row(id_blob, 0, 5), ood_blob, "id", 1,
             "member 0 point 5: probability row sums to 1.5"),
            ("bad-row-middle-member", id_blob, cls._bad_row(ood_blob, 1, 7),
             "ood", 1, "member 1 point 7: probability row sums to 1.5"),
            ("trailing-bytes", id_blob + bytes(8), ood_blob, "id", 2,
             "payload has 8 trailing bytes"),
        ]

    @staticmethod
    @contextlib.contextmanager
    def _on_stdin(blob):
        """Give `blob` to this process as a pipe on file descriptor 0."""
        read_end, write_end = os.pipe()
        os.write(write_end, blob)  # fits in the pipe's buffer
        os.close(write_end)
        saved = os.dup(0)
        os.dup2(read_end, 0)
        os.close(read_end)
        try:
            yield "/dev/stdin"
        finally:
            os.dup2(saved, 0)
            os.close(saved)

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_errors_keep_their_message_and_leave_no_thread(
            self, tmp_path, capsys, tensor_pair, source):
        _, _, id_blob, ood_blob = tensor_pair
        for name, id_, ood, bad, code, message in self._cases(id_blob, ood_blob):
            paths = {"id": tmp_path / f"{name}-id.pcod",
                     "ood": tmp_path / f"{name}-ood.pcod"}
            paths["id"].write_bytes(id_)
            paths["ood"].write_bytes(ood)
            out = tmp_path / f"{name}.txt"
            threads = threading.active_count()
            with contextlib.ExitStack() as stack:
                if source == "pipe":
                    paths[bad] = stack.enter_context(
                        self._on_stdin(paths[bad].read_bytes()))
                assert run("auroc", "--id", paths["id"], "--ood", paths["ood"],
                           "--k-list", "1,2,3", "--out", out) == code, name
            assert threading.active_count() == threads, name
            prefix = "error" if code == 1 else "io error"
            assert capsys.readouterr().err == \
                f"{prefix}: {paths[bad]}: {message}\n", name
            assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_errors_after_k_keep_their_message_and_leave_no_thread(
            self, tmp_path, capsys, tensor_pair, source):
        # At --k 1 the bad member or the trailing bytes lie past the largest
        # k, so they are met before that k's sum is handed out.
        _, ood_path, id_blob, _ = tensor_pair
        for name, blob, code, message in [
                ("bad-row-last-member", self._bad_row(id_blob, 2, 3), 1,
                 "member 2 point 3: probability row sums to 1.5"),
                ("trailing-bytes", id_blob + bytes(8), 2,
                 "payload has 8 trailing bytes")]:
            bad = tmp_path / f"{name}-id.pcod"
            bad.write_bytes(blob)
            out = tmp_path / f"{name}.txt"
            threads = threading.active_count()
            with contextlib.ExitStack() as stack:
                if source == "pipe":
                    bad = stack.enter_context(self._on_stdin(blob))
                assert run("roc", "--id", bad, "--ood", ood_path,
                           "--k", "1", "--out", out) == code, name
            assert threading.active_count() == threads, name
            prefix = "error" if code == 1 else "io error"
            assert capsys.readouterr().err == f"{prefix}: {bad}: {message}\n", name
            assert not out.exists()


class TestOnePass:
    def test_streams_are_read_to_their_end_at_the_largest_k(self, tensor_pair):
        # At the largest k each stream is drained, and its sum freed, before
        # the next stream's sum is formed, so every digest is final when
        # that k is yielded.
        _, _, *blobs = tensor_pair
        streams = [TensorStream(io.BytesIO(blob)) for blob in blobs]
        ks = cli._per_k(list(zip(("id", "ood"), streams)), [2, 1], 1,
                        argmax_labels)
        assert next(ks)[0] == 1
        for stream in streams:
            with pytest.raises(RuntimeError, match="not been read to its end"):
                stream.sha256
        assert next(ks)[0] == 2
        assert [stream.sha256 for stream in streams] == [
            hashlib.sha256(blob).hexdigest() for blob in blobs]
        assert next(ks, None) is None


class TestAurocCommand:
    def test_separated_and_identical_csv_scores(self, tmp_path):
        lo = tmp_path / "lo.csv"
        hi = tmp_path / "hi.csv"
        lo.write_text("index,score\n0,0.1\n1,0.2\n")
        hi.write_text("index,score\n0,0.8\n1,0.9\n")
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", lo, "--ood", hi, "--out", out) == 0
        report = _read_report(out)
        assert float(report["auroc"]) == 1.0
        assert report["mode"] == "exact"
        assert report["tie_rule"] == "ties-credited-0.5"
        assert report["n_id"] == "2" and report["n_ood"] == "2"
        assert run("auroc", "--id", lo, "--ood", lo, "--out", out) == 0
        assert float(_read_report(out)["auroc"]) == 0.5

    def test_tensor_sweep_matches_library(self, tmp_path, tensor_pair):
        id_path, ood_path, id_blob, ood_blob = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--k-list", "1,2,3", "--kind", "msp") == 0
        report = _read_report(out)
        for k in (1, 2, 3):
            ids = score_distribution(reference_mean(id_blob, k),
                                     ScoreKind.MSP_COMPLEMENT)
            oods = score_distribution(reference_mean(ood_blob, k),
                                      ScoreKind.MSP_COMPLEMENT)
            assert float(report[f"auroc_k{k}"]) == exact_auroc(ids, oods)

    def test_default_k_is_all_members(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path,
                   "--out", out) == 0
        report = _read_report(out)
        assert "auroc_k3" in report

    def test_gaussian_csv_route_hits_analytic_value(self, tmp_path):
        out_id = tmp_path / "id.csv"
        out_ood = tmp_path / "ood.csv"
        n = 20000
        assert run("synth", "scores", "--n-id", n, "--n-ood", n,
                   "--seed", 2024, "--out-id", out_id,
                   "--out-ood", out_ood) == 0
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", out_id, "--ood", out_ood,
                   "--out", out) == 0
        report = _read_report(out)
        assert report["mode"] == "exact"
        assert abs(float(report["auroc"]) - 0.76025) <= 0.01

    def test_hist_mode_close_to_exact(self, tmp_path):
        out_id = tmp_path / "id.csv"
        out_ood = tmp_path / "ood.csv"
        assert run("synth", "scores", "--n-id", 5000, "--n-ood", 5000,
                   "--seed", 8, "--out-id", out_id, "--out-ood", out_ood) == 0
        exact_out = tmp_path / "exact.txt"
        hist_out = tmp_path / "hist.txt"
        assert run("auroc", "--id", out_id, "--ood", out_ood,
                   "--out", exact_out, "--mode", "exact") == 0
        assert run("auroc", "--id", out_id, "--ood", out_ood,
                   "--out", hist_out, "--mode", "hist", "--bins", 4096) == 0
        exact_v = float(_read_report(exact_out)["auroc"])
        hist_v = float(_read_report(hist_out)["auroc"])
        assert abs(exact_v - hist_v) <= 5e-3
        assert _read_report(hist_out)["bins"] == "4096"

    def test_provenance_and_idempotence(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path,
                   "--out", out) == 0
        first = out.read_bytes()
        report = _read_report(out)
        assert report["input_id"] == str(id_path)
        assert len(report["input_id_sha256"]) == 64
        assert len(report["input_ood_sha256"]) == 64
        assert run("auroc", "--id", id_path, "--ood", ood_path,
                   "--out", out) == 0
        assert out.read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"r{workers}.txt"
            assert run("auroc", "--id", id_path, "--ood", ood_path,
                       "--out", out, "--mode", "hist", "--bins", 512,
                       "--k-list", "1,3", "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestRocCommand:
    def test_curve_and_threshold_round_trip(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--kind", "entropy", "--bins", 256) == 0
        with open(out, "rb") as f:
            curve, metadata = read_roc_csv(f)
        assert curve.thresholds.shape == (256,)
        assert metadata["kind"] == "entropy"
        assert metadata["bins"] == "256"
        assert metadata["k"] == "3"
        assert metadata["tie_rule"] == "ties-credited-0.5"
        j = curve.tpr[1:] - curve.fpr[1:]
        idx = int(np.nonzero(j == j.max())[0][-1])
        assert float(metadata["youden_threshold"]) == curve.thresholds[idx]
        assert float(metadata["youden_j"]) == j[idx]

    def test_scores_csv_route(self, tmp_path):
        out_id = tmp_path / "id.csv"
        out_ood = tmp_path / "ood.csv"
        assert run("synth", "scores", "--n-id", 2000, "--n-ood", 2000,
                   "--seed", 4, "--out-id", out_id, "--out-ood", out_ood) == 0
        out = tmp_path / "roc.csv"
        assert run("roc", "--id", out_id, "--ood", out_ood, "--out", out,
                   "--bins", 512) == 0
        with open(out, "rb") as f:
            curve, metadata = read_roc_csv(f)
        assert abs(curve.auroc - 0.76025) <= 0.04
        assert "k" not in metadata

    def test_path_that_breaks_a_line_is_rejected(self, tmp_path, tensor_pair,
                                                capsys):
        # Written as is, the path would add a metadata line of its own.
        id_path, ood_path, _, _ = tensor_pair
        forged = tmp_path / "a\n# youden_threshold=0.0"
        shutil.copy(id_path, forged)
        out = tmp_path / "roc.csv"
        assert run("roc", "--id", forged, "--ood", ood_path, "--out", out) == 1
        assert capsys.readouterr().err == \
            "error: report value for 'input_id' spans lines\n"
        assert not out.exists()

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"roc{workers}.csv"
            assert run("roc", "--id", id_path, "--ood", ood_path,
                       "--out", out, "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("value", ["1e+20", "1.7976931348623157e+308",
                                       "-1.7976931348623157e+308"])
    def test_equal_scores_bin_at_any_finite_value(self, tmp_path, value):
        # lo + 1.0 rounds back to lo here, so the pooled range is widened
        # by one ulp instead: upward, or downward where upward overflows.
        csv = tmp_path / "s.csv"
        csv.write_text(f"index,score\n0,{value}\n")
        report, roc = tmp_path / "r.txt", tmp_path / "roc.csv"
        assert run("auroc", "--id", csv, "--ood", csv, "--mode", "hist",
                   "--out", report) == 0
        assert _read_report(report)["auroc"] == "0.5"
        assert run("roc", "--id", csv, "--ood", csv, "--out", roc) == 0
        with open(roc, "rb") as f:
            curve, metadata = read_roc_csv(f)
        assert curve.auroc == 0.5
        assert np.isfinite(curve.thresholds).all()
        assert curve.thresholds[-1] < curve.thresholds[0]
        assert float(metadata["youden_threshold"]) in curve.thresholds

    def test_equal_scores_keep_the_unit_domain(self, tmp_path, monkeypatch):
        # Where lo + 1.0 > lo, equal scores are binned over [lo, lo + 1.0].
        monkeypatch.chdir(tmp_path)
        Path("a.csv").write_text("index,score\n0,5.0\n")
        Path("b.csv").write_text("index,score\n0,5.0\n1,5.0\n")
        assert run("roc", "--id", "a.csv", "--ood", "b.csv", "--bins", 8,
                   "--out", "roc.csv") == 0
        rows = "".join(f"{5 + i / 8!r},0.0,0.0\n" for i in range(7, 0, -1))
        assert Path("roc.csv").read_text() == (
            "threshold,fpr,tpr\n" + rows + "5.0,1.0,1.0\n"
            "# auroc=0.5\n# kind=msp_complement\n# bins=8\n"
            "# tie_rule=ties-credited-0.5\n# n_id=1\n# n_ood=2\n"
            "# youden_threshold=5.0\n# youden_j=0.0\n# input_id=a.csv\n"
            "# input_id_sha256=f02309a0b78e54543cccf550d71b1124"
            "ca349f822fca004b94d8f18d6770cea2\n# input_ood=b.csv\n"
            "# input_ood_sha256=cc8896ff8fe9d5242692bd3562463bcf"
            "359916b01d71ca2ba7524c76e583cbc2\n")


class TestUnequalPointCounts:
    """An ID and an OOD tensor of different N, each more than one tile long:
    each stream's scores must be tiled over its own points."""

    @pytest.mark.parametrize("n_id, n_ood", [(5000, 9000), (9000, 5000)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_auroc_and_roc_match_the_reference(self, tmp_path, n_id, n_ood,
                                               workers):
        assert min(n_id, n_ood) > cli._TILE_ROWS
        id_blob = synth_pair(n_id, 4, 2, 1.0, 31)[0]
        ood_blob = synth_pair(n_ood, 4, 2, 1.0, 32)[1]
        id_path, ood_path = tmp_path / "id.pcod", tmp_path / "ood.pcod"
        id_path.write_bytes(id_blob)
        ood_path.write_bytes(ood_blob)
        kind = ScoreKind.ENTROPY
        ids, oods = (score_distribution(reference_mean(blob, 2), kind)
                     for blob in (id_blob, ood_blob))
        hist = hist_new_range(*score_domain(kind, 4), 256)
        hist_accumulate(hist, ids, "id")
        hist_accumulate(hist, oods, "ood")
        want = {"exact": exact_auroc(ids, oods), "hist": hist_auroc(hist)}
        pair = ["--id", id_path, "--ood", ood_path, "--kind", "entropy",
                "--bins", 256, "--workers", workers]
        for mode in ("exact", "hist"):
            out = tmp_path / f"{mode}.txt"
            assert run("auroc", *pair, "--mode", mode, "--out", out) == 0
            report = _read_report(out)
            assert (report["n_id"], report["n_ood"]) == (str(n_id), str(n_ood))
            assert float(report["auroc_k2"]) == want[mode]
        out = tmp_path / "roc.csv"
        assert run("roc", *pair, "--out", out) == 0
        with open(out, "rb") as f:
            curve, metadata = read_roc_csv(f)
        assert (metadata["n_id"], metadata["n_ood"]) == (str(n_id), str(n_ood))
        assert curve.auroc == want["hist"]


class TestIouCommand:
    def _one_hot_setup(self, tmp_path, n=60, classes=4, seed=13):
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, classes + 1, size=n)
        labels[:classes] = np.arange(1, classes + 1)  # every class occurs
        labels[5] = 0  # one ignored point
        probs = np.zeros((1, n, classes), dtype=np.float32)
        hot = np.where(labels > 0, labels - 1, 0)
        probs[0, np.arange(n), hot] = 1.0
        pred = tmp_path / "pred.pcod"
        pred.write_bytes(pcod_bytes(probs))
        points = tmp_path / "points.txt"
        _write_points_file(points, n, seed=seed)
        labels_path = tmp_path / "labels.txt"
        _write_labels_file(labels_path, labels)
        return points, labels_path, pred, labels

    def test_non_utf8_text_names_the_line(self, tmp_path, capsys):
        points, labels_path, pred, _ = self._one_hot_setup(tmp_path)
        out = tmp_path / "iou.txt"
        labels_path.write_bytes(b"1\n2\n\xff\n")
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", out) == 1
        assert capsys.readouterr().err == \
            f"error: {labels_path}: labels line 3: not valid UTF-8\n"
        text = points.read_bytes()
        points.write_bytes(text + b"0 0 0 0 0 0 \xc3\n")
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", out) == 1
        assert capsys.readouterr().err == \
            f"error: {points}: points line 61: not valid UTF-8\n"
        points.write_bytes(text)
        roc = tmp_path / "roc.csv"
        roc.write_bytes(b"threshold,fpr,tpr\n\x80,0,0\n")
        assert run("map", "--points", points, "--pred", pred, "--roc", roc,
                   "--out", tmp_path / "map.txt") == 1
        assert capsys.readouterr().err == f"error: {roc}: line 2: not valid UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad_labels, message", [
        ("1\nx\n", "labels line 2: not an integer: 'x'"),
        ("1\n\n99999999999999999999\n",
         "labels line 3: label '99999999999999999999' outside int64"),
        ("1\n2\n", "60 points but 2 labels"),
        ("9\n" * 60, "label 9 at index 0 outside 0..4"),
    ], ids=["not_an_integer", "beyond_int64", "count", "class_range"])
    def test_labels_errors_name_the_labels_file(self, tmp_path, capsys,
                                                bad_labels, message):
        points, labels_path, pred, _ = self._one_hot_setup(tmp_path)
        labels_path.write_text(bad_labels)
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", tmp_path / "iou.txt") == 1
        assert capsys.readouterr().err == f"error: {labels_path}: {message}\n"

    @pytest.mark.parametrize("n", [3, 0])
    def test_no_labeled_point_names_the_labels_file(self, tmp_path, capsys, n):
        pred, other = tmp_path / "id.pcod", tmp_path / "ood.pcod"
        assert run("synth", "tensor", "--points", n, "--classes", 4,
                   "--members", 2, "--out-id", pred, "--out-ood", other) == 0
        points, labels_path = tmp_path / "points.txt", tmp_path / "labels.txt"
        points.write_text("1 2 3 4 5 6 7\n" * n)
        labels_path.write_text("0\n" * n)
        out = tmp_path / "iou.txt"
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {labels_path}: no labeled points accumulated; "
            "metrics undefined\n")
        assert not out.exists()

    def test_perfect_predictions(self, tmp_path):
        points, labels_path, pred, labels = self._one_hot_setup(tmp_path)
        out = tmp_path / "iou.txt"
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", out) == 0
        report = _read_report(out)
        assert float(report["mean_iou"]) == 1.0
        assert float(report["accuracy"]) == 1.0
        assert report["ignored"] == "1"
        assert report["total_counted"] == str(int((labels > 0).sum()))
        for c in range(1, 5):
            assert float(report[f"per_class_iou_{c}"]) == 1.0

    def test_point_count_mismatch(self, tmp_path):
        points, labels_path, pred, _ = self._one_hot_setup(tmp_path)
        short = tmp_path / "short.txt"
        _write_points_file(short, 10)
        short_labels = tmp_path / "short_labels.txt"
        _write_labels_file(short_labels, np.ones(10, dtype=int))
        assert run("iou", "--points", short, "--labels", short_labels,
                   "--pred", pred, "--out", tmp_path / "iou.txt") == 1

    def test_piped_cloud_and_labels_report_their_own_digests(self, tmp_path):
        points, labels_path, pred, _ = self._one_hot_setup(tmp_path)
        by_path = tmp_path / "by_path.txt"
        assert run("iou", "--points", points, "--labels", labels_path,
                   "--pred", pred, "--out", by_path) == 0
        pipes = {}
        for path in (points, labels_path):
            read_end, write_end = os.pipe()
            with open(write_end, "wb") as w:  # both files fit a pipe buffer
                w.write(path.read_bytes())
            pipes[path] = read_end
        try:
            piped = {path: f"/dev/fd/{fd}" for path, fd in pipes.items()}
            by_pipe = tmp_path / "by_pipe.txt"
            assert run("iou", "--points", piped[points], "--labels",
                       piped[labels_path], "--pred", pred, "--out", by_pipe) == 0
        finally:
            for fd in pipes.values():
                os.close(fd)
        expected = by_path.read_text()
        for path in pipes:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert f"_sha256={digest}\n" in expected
            expected = expected.replace(f"={path}\n", f"={piped[path]}\n")
        assert by_pipe.read_text() == expected

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, _, id_blob, _ = tensor_pair
        n = members(id_blob).shape[1]
        rng = np.random.default_rng(14)
        points = tmp_path / "points.txt"
        _write_points_file(points, n)
        labels_path = tmp_path / "labels.txt"
        _write_labels_file(labels_path, rng.integers(0, 7, size=n))
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"iou{workers}.txt"
            assert run("iou", "--points", points, "--labels", labels_path,
                       "--pred", id_path, "--out", out,
                       "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestMapCommand:
    def test_explicit_threshold_matches_library_mask(self, tmp_path,
                                                     tensor_pair):
        id_path, _, id_blob, _ = tensor_pair
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        out = tmp_path / "map.txt"
        assert run("map", "--points", points, "--pred", id_path,
                   "--threshold", "0.5", "--out", out) == 0
        scores = score_distribution(reference_mean(id_blob, 3),
                                    ScoreKind.MSP_COMPLEMENT)
        flags = apply_threshold(scores, 0.5)
        lines = out.read_text().splitlines()
        assert len(lines) == 80
        green = sum(1 for line in lines if line.endswith("0 255 0"))
        red = sum(1 for line in lines if line.endswith("255 0 0"))
        assert red == int(flags.sum()) and green == len(flags) - red

    def test_roc_threshold_source(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        roc_out = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path,
                   "--out", roc_out) == 0
        with open(roc_out, "rb") as f:
            _, metadata = read_roc_csv(f)
        threshold = float(metadata["youden_threshold"])
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        from_roc = tmp_path / "map_roc.txt"
        explicit = tmp_path / "map_thr.txt"
        assert run("map", "--points", points, "--pred", id_path,
                   "--roc", roc_out, "--out", from_roc) == 0
        assert run("map", "--points", points, "--pred", id_path,
                   "--threshold", threshold, "--out", explicit) == 0
        assert from_roc.read_bytes() == explicit.read_bytes()

    def test_malformed_roc_threshold_names_the_roc_file(self, tmp_path,
                                                        tensor_pair, capsys):
        id_path, ood_path, _, _ = tensor_pair
        roc = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", roc) == 0
        roc.write_text("".join(
            "# youden_threshold=abc\n" if line.startswith("# youden_threshold=")
            else line for line in roc.read_text().splitlines(keepends=True)))
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        out = tmp_path / "map.txt"
        capsys.readouterr()
        assert run("map", "--points", points, "--pred", id_path, "--roc", roc,
                   "--out", out) == 1
        assert capsys.readouterr().err == \
            f"error: {roc}: bad youden_threshold metadata: 'abc'\n"
        assert not out.exists()

    def test_roc_of_another_kind_is_rejected(self, tmp_path, tensor_pair,
                                             capsys):
        id_path, ood_path, _, _ = tensor_pair
        roc = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", roc,
                   "--kind", "entropy") == 0
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        out = tmp_path / "map.txt"
        capsys.readouterr()
        assert run("map", "--points", points, "--pred", id_path, "--roc", roc,
                   "--out", out) == 1
        message = (f"error: {roc}: ROC kind is 'entropy', but --kind msp "
                   f"needs 'msp_complement'\n")
        assert capsys.readouterr().err == message
        assert not out.exists()
        # The ROC is read first: its error wins over a missing scene.
        assert run("map", "--points", tmp_path / "missing.txt", "--pred",
                   tmp_path / "missing.pcod", "--roc", roc, "--out", out) == 1
        assert capsys.readouterr().err == message
        assert run("map", "--points", points, "--pred", id_path, "--roc", roc,
                   "--kind", "entropy", "--out", out) == 0

    def test_roc_without_youden_threshold_fails_before_the_scene(self, tmp_path,
                                                               capsys):
        roc = tmp_path / "roc.csv"
        roc.write_text("threshold,fpr,tpr\n0.5,1.0,1.0\n# auroc=0.5\n"
                       "# kind=msp_complement\n")
        out = tmp_path / "map.txt"
        assert run("map", "--points", tmp_path / "missing.txt", "--pred",
                   tmp_path / "missing.pcod", "--roc", roc, "--out", out) == 1
        assert capsys.readouterr().err == \
            f"error: {roc}: no youden_threshold metadata\n"
        assert not out.exists()

    def test_roc_without_kind_is_rejected(self, tmp_path, tensor_pair, capsys):
        id_path, ood_path, _, _ = tensor_pair
        roc = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", roc) == 0
        roc.write_text("".join(
            line for line in roc.read_text().splitlines(keepends=True)
            if not line.startswith("# kind=")))
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        capsys.readouterr()
        assert run("map", "--points", points, "--pred", id_path, "--roc", roc,
                   "--out", tmp_path / "map.txt") == 1
        assert capsys.readouterr().err == (
            f"error: {roc}: ROC kind is None, but --kind msp needs "
            f"'msp_complement'\n")

    @pytest.mark.parametrize("metadata, message", [
        ("# kind=X", "ROC kind is {}, but --kind msp needs 'msp_complement'"),
        ("# kind=msp_complement\n# youden_threshold=X", "bad youden_threshold metadata: {}"),
    ])
    def test_roc_metadata_errors_quote_at_most_80_characters(self, tmp_path, capsys,
                                                             metadata, message):
        long = "x" * 10_000
        roc = tmp_path / "roc.csv"
        roc.write_text("threshold,fpr,tpr\n0.5,1.0,1.0\n# auroc=0.5\n"
                       + metadata.replace("X", long) + "\n")
        assert run("map", "--points", tmp_path / "missing.txt", "--pred",
                   tmp_path / "missing.pcod", "--roc", roc,
                   "--out", tmp_path / "map.txt") == 1
        assert capsys.readouterr().err == \
            f"error: {roc}: {message.format(repr(long[:80]) + '...')}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_is_rejected_before_reading(self, tmp_path,
                                                             capsys, value):
        assert run("map", "--points", tmp_path / "missing.txt", "--pred",
                   tmp_path / "missing.pcod", "--threshold", value,
                   "--out", tmp_path / "map.txt") == 1
        assert capsys.readouterr().err == \
            f"error: threshold must be finite, got {value}\n"

    def test_non_finite_roc_threshold_is_rejected_before_the_pass(
            self, tmp_path, tensor_pair, capsys):
        id_path, ood_path, id_blob, _ = tensor_pair
        roc = tmp_path / "roc.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path, "--out", roc) == 0
        roc.write_text("".join(
            "# youden_threshold=nan\n" if line.startswith("# youden_threshold=")
            else line for line in roc.read_text().splitlines(keepends=True)))
        # The last value is NaN, which only the tensor pass would find.
        pred = tmp_path / "bad.pcod"
        pred.write_bytes(id_blob[:-4] + np.float32(np.nan).tobytes())
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        capsys.readouterr()
        assert run("map", "--points", points, "--pred", pred, "--roc", roc,
                   "--out", tmp_path / "map.txt") == 1
        assert capsys.readouterr().err == \
            f"error: {roc}: threshold must be finite, got nan\n"

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, _, _, _ = tensor_pair
        points = tmp_path / "points.txt"
        _write_points_file(points, 80)
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"map{workers}.txt"
            assert run("map", "--points", points, "--pred", id_path,
                       "--threshold", "0.4", "--out", out,
                       "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestScoreTensorConsistency:
    def test_csv_route_equals_tensor_route(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        id_csv = tmp_path / "id.csv"
        ood_csv = tmp_path / "ood.csv"
        assert run("score", "--in", id_path, "--out", id_csv, "--k", 2) == 0
        assert run("score", "--in", ood_path, "--out", ood_csv, "--k", 2) == 0
        via_csv = tmp_path / "via_csv.txt"
        via_tensor = tmp_path / "via_tensor.txt"
        assert run("auroc", "--id", id_csv, "--ood", ood_csv,
                   "--out", via_csv, "--mode", "exact") == 0
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--k", 2,
                   "--out", via_tensor, "--mode", "exact") == 0
        assert (float(_read_report(via_csv)["auroc"])
                == float(_read_report(via_tensor)["auroc_k2"]))
        # Each route bins once, for roc and for hist auroc alike.
        for route, pair, key in ((
                "csv", ["--id", id_csv, "--ood", ood_csv], "auroc"), (
                "tensor", ["--id", id_path, "--ood", ood_path, "--k", 2],
                "auroc_k2")):
            roc = tmp_path / f"{route}_roc.csv"
            hist = tmp_path / f"{route}_hist.txt"
            assert run("roc", *pair, "--bins", 64, "--out", roc) == 0
            assert run("auroc", *pair, "--bins", 64, "--mode", "hist",
                       "--out", hist) == 0
            with open(roc, "rb") as f:
                _, metadata = read_roc_csv(f)
            assert (float(metadata["auroc"])
                    == float(_read_report(hist)[key]))


# Rows that the member check accepts (row sums within 1e-5 of 1) although
# float32 rounding moves them off the simplex: C=2 rows summing to 1+8e-6,
# and C=3 rows of entries one ulp below 1/3, whose MSP complement lies
# above the 1 - 1/3 the domain allows.
_EDGE_ROWS = {
    "c2_sum_above_one": np.full(2, 0.500004, dtype=np.float32),
    "c3_ulp_below_third": np.full(3, np.nextafter(np.float32(1 / 3),
                                                  np.float32(0))),
}


class TestNearUniformRows:
    @pytest.fixture(params=sorted(_EDGE_ROWS))
    def edge(self, request, tmp_path):
        row = _EDGE_ROWS[request.param]
        values = np.tile(row, (2, 5, 1))
        path = tmp_path / "edge.pcod"
        path.write_bytes(pcod_bytes(values))
        points = tmp_path / "points.txt"
        _write_points_file(points, 5)
        return path, points, 1.0 - float(row.max())

    def test_score_writes_the_msp_complement(self, tmp_path, edge):
        path, _, want = edge
        for kind in ("msp", "entropy"):
            out = tmp_path / f"{kind}.csv"
            assert run("score", "--in", path, "--out", out, "--kind", kind) == 0
        with open(tmp_path / "msp.csv", "rb") as f:
            got = read_scores_csv(f)
        assert got.tobytes() == np.full(5, want).tobytes()

    @pytest.mark.parametrize("kind", ["msp", "entropy"])
    @pytest.mark.parametrize("mode", ["exact", "hist"])
    def test_auroc_and_roc_accept_the_tensor(self, tmp_path, edge, kind, mode):
        path, _, _ = edge
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", path, "--ood", path, "--kind", kind,
                   "--mode", mode, "--out", out) == 0
        assert float(_read_report(out)["auroc_k2"]) == 0.5
        roc = tmp_path / "roc.csv"
        assert run("roc", "--id", path, "--ood", path, "--kind", kind,
                   "--out", roc) == 0
        with open(roc, "rb") as f:
            curve, _ = read_roc_csv(f)
        assert curve.auroc == 0.5

    def test_map_thresholds_at_the_exact_score(self, tmp_path, edge):
        path, points, want = edge
        for threshold, color in ((want, "255 0 0"),
                                 (np.nextafter(want, 1.0), "0 255 0")):
            out = tmp_path / "map.txt"
            assert run("map", "--points", points, "--pred", path,
                       "--threshold", repr(float(threshold)), "--out", out) == 0
            lines = out.read_text().splitlines()
            assert len(lines) == 5
            assert all(line.endswith(color) for line in lines)


def test_bad_row_message_prints_plain_floats(tmp_path, capsys):
    bad = tmp_path / "bad.pcod"
    bad.write_bytes(struct.pack("<4sHBBQHH", b"PCOD", 1, 0, 0, 2, 2, 1)
                    + np.array([0.5, 0.5, 0.7, 0.2], dtype="<f4").tobytes())
    assert run("score", "--in", bad, "--out", tmp_path / "s.csv") == 1
    err = capsys.readouterr().err
    assert err == (f"error: {bad}: member 0 point 1: probability row sums to "
                   f"{float(np.float32(0.7)) + float(np.float32(0.2))!r}\n")
    assert "np." not in err


class TestStreamedTensors:
    def test_k_list_rows_follow_argv_with_duplicates(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "sweep.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--k-list", "3,1,3,2", "--mode", "hist") == 0
        rows = [line for line in out.read_text().splitlines()
                if line.startswith("auroc_k")]
        assert [line.partition("=")[0] for line in rows] == \
            ["auroc_k3", "auroc_k1", "auroc_k3", "auroc_k2"]
        for line in rows:
            key, _, value = line.partition("=")
            single = tmp_path / f"{key}.txt"
            assert run("auroc", "--id", id_path, "--ood", ood_path, "--out",
                       single, "--k", key[len("auroc_k"):], "--mode", "hist") == 0
            assert _read_report(single)[key] == value

    def test_report_digests_are_the_file_digests(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--k", 1,
                   "--out", out) == 0
        report = _read_report(out)
        for role, path in (("id", id_path), ("ood", ood_path)):
            assert report[f"input_{role}_sha256"] == \
                hashlib.sha256(path.read_bytes()).hexdigest()

    def test_k_beyond_members_names_the_member_count(self, tmp_path,
                                                     tensor_pair, capsys):
        id_path, ood_path, _, _ = tensor_pair
        assert run("auroc", "--id", id_path, "--ood", ood_path,
                   "--k-list", "1,9", "--out", tmp_path / "r.txt") == 1
        assert capsys.readouterr().err == \
            f"error: {id_path}: k must lie in 1..3, got 9\n"

    @pytest.mark.parametrize("command", ["auroc", "roc"])
    def test_default_k_beyond_ood_members_names_the_ood_file(
            self, tmp_path, command, capsys):
        # The default k is the ID tensor's member count, which the OOD
        # tensor lacks.
        id_path, ood_path = tmp_path / "a4.pcod", tmp_path / "b2.pcod"
        id_path.write_bytes(synth_pair(20, 4, 4, 1.0, 7)[0])
        ood_path.write_bytes(synth_pair(20, 4, 2, 1.0, 8)[1])
        assert run(command, "--id", id_path, "--ood", ood_path,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {ood_path}: k must lie in 1..2, got 4\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_bad_member_fails_as_the_tensor_check_does(self, tmp_path,
                                                       tensor_pair, capsys,
                                                       workers):
        id_path, ood_path, _, ood_blob = tensor_pair
        values = members(ood_blob).copy()
        values[2, 40] = [0.9, 0.3, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError) as direct:
            write_member(io.BytesIO(), values[2], TensorKind.PROBABILITIES, 2)
        bad = tmp_path / "bad.pcod"
        with open(ood_path, "rb") as f:
            header = f.read(20)
        bad.write_bytes(header + values.astype("<f4").tobytes())
        out = tmp_path / "r.txt"
        # Means at k=1 and 2 are scored before member 2 is read; the
        # report is still not written.
        assert run("auroc", "--id", id_path, "--ood", bad, "--k-list", "1,2,3",
                   "--workers", workers, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {bad}: {direct.value}\n"
        assert not out.exists()

    def test_trailing_bytes_are_an_io_error(self, tmp_path, tensor_pair, capsys):
        id_path, _, _, _ = tensor_pair
        longer = tmp_path / "longer.pcod"
        longer.write_bytes(id_path.read_bytes() + bytes(8))
        assert run("score", "--in", longer, "--out", tmp_path / "s.csv") == 2
        assert capsys.readouterr().err == \
            f"io error: {longer}: payload has 8 trailing bytes\n"

    @pytest.mark.parametrize("tail, code, message", [
        (b"", 0, ""),
        (bytes(8), 2, "io error: /dev/stdin: payload has 8 trailing bytes\n"),
    ])
    def test_tensor_through_a_pipe(self, tmp_path, tensor_pair, tail, code,
                                   message):
        id_path, _, _, _ = tensor_pair
        by_path = tmp_path / "by_path.csv"
        assert run("score", "--in", id_path, "--out", by_path, "--k", 2) == 0
        by_pipe = tmp_path / "by_pipe.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pcood", "score", "--in", "/dev/stdin",
             "--out", str(by_pipe), "--k", "2"],
            input=id_path.read_bytes() + tail, capture_output=True,
            env=_pcod_env())
        assert (proc.returncode, proc.stderr.decode()) == (code, message)
        if code == 0:
            assert by_pipe.read_bytes() == by_path.read_bytes()
        else:
            assert not by_pipe.exists()

    def test_huge_header_through_a_pipe_is_an_io_error(self, tmp_path):
        # 2**40 points x 8 classes x 20 members: no allocation may follow
        # the header's sizes before the bytes have arrived.
        declared = 4 * 2 ** 40 * 8 * 20
        blob = struct.pack("<4sHBBQHH", b"PCOD", 1, 0, 0, 2 ** 40, 8, 20) \
            + bytes(64)
        proc = subprocess.run(
            [sys.executable, "-m", "pcood", "score", "--in", "/dev/stdin",
             "--out", str(tmp_path / "s.csv")],
            input=blob, capture_output=True, env=_pcod_env())
        assert proc.returncode == 2
        assert proc.stderr.decode() == (f"io error: /dev/stdin: payload "
                                        f"truncated: got 64 of {declared} bytes\n")

    # With the lead, the four bytes read to tell a tensor from a score CSV
    # hold newlines, and the header comes after them.
    @pytest.mark.parametrize("lead", [b"", b"\n\n#\n"])
    @pytest.mark.parametrize("command", ["auroc", "roc"])
    def test_piped_score_csv_reports_its_own_digest(self, tmp_path, command,
                                                    lead):
        id_csv, ood_csv = tmp_path / "id.csv", tmp_path / "ood.csv"
        assert run("synth", "scores", "--n-id", 300, "--n-ood", 200,
                   "--out-id", id_csv, "--out-ood", ood_csv) == 0
        id_csv.write_bytes(lead + id_csv.read_bytes())
        by_path = tmp_path / "by_path.txt"
        assert run(command, "--id", id_csv, "--ood", ood_csv,
                   "--out", by_path) == 0
        by_pipe = tmp_path / "by_pipe.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "pcood", command, "--id", "/dev/stdin",
             "--ood", str(ood_csv), "--out", str(by_pipe)],
            input=id_csv.read_bytes(), capture_output=True, env=_pcod_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        digest = hashlib.sha256(id_csv.read_bytes()).hexdigest()
        assert any(line.endswith(f"input_id_sha256={digest}")
                   for line in by_pipe.read_text().splitlines())
        assert by_pipe.read_bytes() == \
            by_path.read_bytes().replace(str(id_csv).encode(), b"/dev/stdin")

    def test_magic_split_across_pipe_writes_is_a_tensor(self, tmp_path,
                                                        tensor_pair):
        # The first two bytes are in the pipe before the command starts and
        # the rest arrive later, so a single read of the pipe sees only "PC".
        id_path, ood_path, _, _ = tensor_pair
        by_path = tmp_path / "by_path.csv"
        assert run("roc", "--id", id_path, "--ood", ood_path,
                   "--out", by_path) == 0
        blob = id_path.read_bytes()
        read_end, write_end = os.pipe()
        os.write(write_end, blob[:2])

        def write_rest():
            time.sleep(0.3)
            with open(write_end, "wb") as w:
                w.write(blob[2:])

        writer = threading.Thread(target=write_rest)
        writer.start()
        pipe_path = f"/dev/fd/{read_end}"
        try:
            by_pipe = tmp_path / "by_pipe.csv"
            assert run("roc", "--id", pipe_path, "--ood", ood_path,
                       "--out", by_pipe) == 0
        finally:
            os.close(read_end)  # a writer still blocked then fails, not hangs
            writer.join()
        assert by_pipe.read_text() == \
            by_path.read_text().replace(f"input_id={id_path}\n",
                                        f"input_id={pipe_path}\n")


def _hostile_pcod(magic=b"PCOD", version=1, kind=0, reserved=0, c=3, k=2,
                  declared_n=5, cut=None, tail=b"", bad=None, bad_bits=None):
    """A PCOD blob of k members x 5 points x c classes of uniform rows, with
    one field, entry (a value, or the bits of a float32) or length made
    hostile."""
    values = np.full((k, 5, c), 1.0 / c, dtype="<f4")
    if bad is not None:
        values[k - 1, 4, 0] = bad
    if bad_bits is not None:
        values.view("<u4")[k - 1, 4, 0] = bad_bits
    blob = struct.pack("<4sHBBQHH", magic, version, kind, reserved, declared_n, c, k) \
        + values.tobytes() + tail
    return blob if cut is None else blob[:cut]


# (blob, exit code of `score` on it): header errors and bad members are
# validation errors (1); a stream longer or shorter than declared is an I/O
# error (2), whether it is a file or a pipe.
HOSTILE_PCOD = {
    "empty": (b"", 2),
    "header-3-bytes": (_hostile_pcod(cut=3), 2),
    "header-19-bytes": (_hostile_pcod(cut=19), 2),
    "bad-magic": (_hostile_pcod(magic=b"XCOD"), 1),
    "bad-version": (_hostile_pcod(version=2), 1),
    "bad-kind": (_hostile_pcod(kind=7), 1),
    "reserved-byte": (_hostile_pcod(reserved=1), 1),
    "one-class": (_hostile_pcod(c=1), 1),
    "no-members": (_hostile_pcod(k=0), 1),
    "oversized-header": (_hostile_pcod(declared_n=2 ** 60), 1),
    "huge-header": (_hostile_pcod(declared_n=2 ** 40), 2),
    "header-only": (_hostile_pcod(cut=20), 2),
    "short-payload": (_hostile_pcod(cut=-4), 2),
    "long-payload": (_hostile_pcod(tail=bytes(8)), 2),
    "nan-member": (_hostile_pcod(bad=np.nan), 1),
    # Widening a signalling NaN raises numpy's invalid flag.
    "signalling-nan-member": (_hostile_pcod(bad_bits=0x7FA00000), 1),
    "payload-nan-member": (_hostile_pcod(bad_bits=0x7FC00001), 1),
    "inf-member": (_hostile_pcod(bad=np.inf), 1),
    "negative-member": (_hostile_pcod(bad=-0.5), 1),
    "inf-logit-member": (_hostile_pcod(kind=1, bad=-np.inf), 1),
}


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("command", ["score", "auroc", "map"])
@pytest.mark.parametrize("name", sorted(HOSTILE_PCOD))
def test_hostile_pcod_input_fails_cleanly(tmp_path, capsys, name, command, source):
    """Every hostile tensor ends in exit 1 or 2 with one error line; an
    exception escaping main would fail the test with its traceback."""
    blob, score_code = HOSTILE_PCOD[name]
    good = tmp_path / "good.pcod"
    good.write_bytes(_hostile_pcod())
    _write_points_file(tmp_path / "points.txt", 5)
    if source == "file":
        path = tmp_path / "hostile.pcod"
        path.write_bytes(blob)
        fd = None
    else:
        fd, write_end = os.pipe()
        with open(write_end, "wb") as w:  # every blob fits a pipe buffer
            w.write(blob)
        path = f"/dev/fd/{fd}"
    try:
        argv = {"score": ["score", "--in", path, "--out", tmp_path / "out.csv"],
                "auroc": ["auroc", "--id", path, "--ood", good,
                          "--out", tmp_path / "out.txt"],
                "map": ["map", "--points", tmp_path / "points.txt", "--pred", path,
                        "--threshold", 0.5, "--out", tmp_path / "out.txt"]}[command]
        code = run(*argv)
    finally:
        if fd is not None:
            os.close(fd)
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: " if code == 1 else "io error: ")
    # auroc reads a blob without the magic as a score CSV, and map may first
    # find that the header's point count is not the cloud's.
    if command == "score":
        assert (code, err.split(": ")[1]) == (score_code, str(path))
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())
