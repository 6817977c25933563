"""End-to-end tests of the command-line interface.

Each subcommand runs in-process through main(argv) against real files
in a tmp directory; outputs are cross-checked bitwise against the same
computation done directly with the library. Worker-count independence
and rerun idempotence are asserted on actual output bytes.
"""

import hashlib
import io
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcood
from pcodref import HEADER, members, pcod_bytes, reference_mean, synth_pair
from pcood import (ScoreKind, TensorKind, ValidationError, apply_threshold,
                   exact_auroc, read_metrics_report, read_roc_csv,
                   read_scores_csv, score_distribution, write_member)
from pcood.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _read_report(path):
    with open(path, "rb") as f:
        return read_metrics_report(f)


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

    def test_usage_errors_exit_one(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 1
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

    def test_empty_population_is_validation_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("index,score\n")
        full = tmp_path / "full.csv"
        full.write_text("index,score\n0,0.5\n")
        assert run("auroc", "--id", empty, "--ood", full,
                   "--out", tmp_path / "r.txt") == 1

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

    def test_bad_numeric_flags(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        out = tmp_path / "r.txt"
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--k", "0") == 1
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--bins", "1") == 1
        assert run("auroc", "--id", id_path, "--ood", ood_path, "--out", out,
                   "--workers", "0") == 1

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run("score", "--in", tmp_path / "absent.pcod", "--out", out) == 2
        assert not out.exists()

    def test_module_and_console_entry_points(self, tmp_path):
        # Children import the pcood this process imported, not an
        # installed copy that may be stale.
        env = dict(os.environ)
        src = str(Path(pcood.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "pcood", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "aggregate" in proc.stdout

        # The console script an installer writes for the declared
        # [project.scripts] entry: import the target, exit with its result.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["pcood"]
        module, _, func = entry.partition(":")
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

    def test_peak_memory_does_not_grow_with_members(self, tmp_path):
        # Members are written one at a time, so 16 members may not hold
        # more than one extra member payload over 2. With one worker the
        # peak repeats to the kilobyte. Three shard threads overlap their
        # buffers by chance, by up to about 1 MB between runs; at most they
        # add up to the one-worker peak, so they are held to the same bound.
        n, c = 20000, 8

        def peak(members, workers):
            tracemalloc.start()
            try:
                assert run("synth", "tensor", "--points", n, "--classes", c,
                           "--members", members, "--workers", workers,
                           "--out-id", tmp_path / "id.pcod",
                           "--out-ood", tmp_path / "ood.pcod") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2, 3)  # lazy imports, thread start-up and first allocations
        bound = peak(2, 1) + 4 * n * c
        assert peak(16, 1) <= bound
        assert peak(16, 3) <= bound

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

    def test_worker_count_does_not_change_bytes(self, tmp_path, tensor_pair):
        id_path, ood_path, _, _ = tensor_pair
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"roc{workers}.csv"
            assert run("roc", "--id", id_path, "--ood", ood_path,
                       "--out", out, "--workers", workers) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


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


def _pcod_env():
    """Environment for a child `python -m pcood` that imports this pcood."""
    env = dict(os.environ)
    src = str(Path(pcood.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
        assert capsys.readouterr().err == "error: k must lie in 1..3, got 9\n"

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

    @pytest.mark.parametrize("command", ["auroc", "roc"])
    def test_piped_score_csv_reports_its_own_digest(self, tmp_path, command):
        id_csv, ood_csv = tmp_path / "id.csv", tmp_path / "ood.csv"
        assert run("synth", "scores", "--n-id", 300, "--n-ood", 200,
                   "--out-id", id_csv, "--out-ood", ood_csv) == 0
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
                  declared_n=5, cut=None, tail=b"", bad=None):
    """A PCOD blob of k members x 5 points x c classes of uniform rows, with
    one field, entry or length made hostile."""
    values = np.full((k, 5, c), 1.0 / c, dtype="<f4")
    if bad is not None:
        values[k - 1, 4, 0] = bad
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
