"""The byte-identity matrix: committed inputs, cases and their outputs.

Every case is one pcood command line run in a fresh directory that holds
a copy of the inputs in this directory, so every path it names is
relative and the reports it writes are stable. ``expected.json`` records,
per case, the argv, the exit code, stdout, stderr and the sha256 of each
file the run left behind; ``tests/test_golden.py`` reruns the cases and
compares.

Usage:
    python tests/golden/regen.py            # rewrite expected.json
    python tests/golden/regen.py --inputs   # rebuild the inputs first

A change that rewrites expected.json changes the bytes pcood produces;
say which cases changed and why. Cases whose name starts with ``synth-``
depend on numpy's Philox generator and on ``scipy.special.ndtri``, so an
upgrade of either moves only those. Help texts depend on Python's
argparse and are taken at 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SRC = GOLDEN.parent.parent / "src"
EXPECTED = GOLDEN / "expected.json"
INPUTS = (
    "prob_id.pcod", "prob_ood.pcod", "logit_id.pcod", "logit_ood.pcod",
    "small.pcod", "cloud.txt", "labels.txt", "labels_short.txt",
    "labels_range.txt", "labels_int64.txt", "labels_short_range.txt",
    "id.csv", "ood.csv", "roc.csv",
)
N_POINTS, N_CLASSES, N_MEMBERS = 200, 4, 5
_ENV = {"COLUMNS": "80"}


def cases() -> list:
    cases = []

    def add(name, *argv, subprocess=False):
        cases.append({"name": name, "argv": list(argv), "subprocess": subprocess})

    prob, logit, csv = (("prob_id.pcod", "prob_ood.pcod"),
                        ("logit_id.pcod", "logit_ood.pcod"), ("id.csv", "ood.csv"))
    pairs = {"prob": prob, "logit": logit, "csv": csv}
    for w in ("1", "3"):
        workers = ("--workers", w)
        for name, (id_, _) in (("prob", prob), ("logit", logit)):
            add(f"aggregate-{name}-w{w}", "aggregate", "--in", id_,
                "--out", "out.pcod", *workers)
            add(f"aggregate-{name}-k2-w{w}", "aggregate", "--in", id_,
                "--out", "out.pcod", "--k", "2", *workers)
            for kind in ("msp", "entropy"):
                add(f"score-{name}-{kind}-w{w}", "score", "--in", id_,
                    "--out", "out.csv", "--kind", kind, *workers)
        add(f"score-prob-k3-w{w}", "score", "--in", prob[0], "--out", "out.csv",
            "--k", "3", *workers)
        for name, (id_, ood) in pairs.items():
            for kind in ("msp", "entropy"):
                for mode in ("exact", "hist", "auto"):
                    add(f"auroc-{name}-{kind}-{mode}-w{w}", "auroc", "--id", id_,
                        "--ood", ood, "--out", "out.txt", "--kind", kind,
                        "--mode", mode, *workers)
                add(f"roc-{name}-{kind}-w{w}", "roc", "--id", id_, "--ood", ood,
                    "--out", "out.csv", "--kind", kind, *workers)
        add(f"auroc-csv-hist-bins64-w{w}", "auroc", "--id", csv[0], "--ood", csv[1],
            "--out", "out.txt", "--mode", "hist", "--bins", "64", *workers)
        add(f"auroc-prob-k2-w{w}", "auroc", "--id", prob[0], "--ood", prob[1],
            "--out", "out.txt", "--k", "2", *workers)
        for name, (id_, ood) in (("prob", prob), ("logit", logit)):
            add(f"auroc-{name}-klist-w{w}", "auroc", "--id", id_, "--ood", ood,
                "--out", "out.txt", "--k-list", "5,1,3,3,1", "--kind", "entropy",
                *workers)
        add(f"roc-prob-k2-bins64-w{w}", "roc", "--id", prob[0], "--ood", prob[1],
            "--out", "out.csv", "--k", "2", "--bins", "64", *workers)
        for name, pred in (("prob", prob[0]), ("logit", logit[1])):
            add(f"iou-{name}-w{w}", "iou", "--points", "cloud.txt", "--labels",
                "labels.txt", "--pred", pred, "--out", "out.txt", *workers)
        add(f"iou-prob-k1-w{w}", "iou", "--points", "cloud.txt", "--labels",
            "labels.txt", "--pred", prob[1], "--out", "out.txt", "--k", "1", *workers)
        for kind, threshold in (("msp", "0.3"), ("entropy", "0.6")):
            add(f"map-threshold-{kind}-w{w}", "map", "--points", "cloud.txt",
                "--pred", prob[0], "--threshold", threshold, "--kind", kind,
                "--out", "out.txt", *workers)
        add(f"map-roc-w{w}", "map", "--points", "cloud.txt", "--pred", logit[0],
            "--roc", "roc.csv", "--out", "out.txt", *workers)
        add(f"map-threshold-k2-w{w}", "map", "--points", "cloud.txt", "--pred",
            prob[1], "--threshold", "0.25", "--k", "2", "--out", "out.txt", *workers)
        add(f"synth-scores-w{w}", "synth", "scores", "--n-id", "70", "--n-ood", "50",
            "--mu-ood", "0.5", "--seed", "7", "--out-id", "sid.csv",
            "--out-ood", "sood.csv", *workers)
        add(f"synth-tensor-w{w}", "synth", "tensor", "--points", "30",
            "--classes", "3", "--members", "4", "--separability", "1.5",
            "--seed", "5", "--out-id", "tid.pcod", "--out-ood", "tood.pcod",
            *workers)

    for sub in ("", "aggregate", "score", "auroc", "roc", "iou", "map",
                "synth", "synth scores", "synth tensor"):
        add(f"help-{sub.replace(' ', '-') or 'pcood'}", *sub.split(), "--help")

    iou = ("iou", "--points", "cloud.txt", "--pred", prob[0], "--out", "out.txt")
    for labels in ("labels_short", "labels_range", "labels_int64",
                   "labels_short_range"):
        add(f"error-iou-{labels}", *iou, "--labels", f"{labels}.txt")
    add("error-iou-labels-missing", *iou, "--labels", "missing.txt")
    add("error-iou-point-count", "iou", "--points", "cloud.txt", "--labels",
        "labels.txt", "--pred", "small.pcod", "--out", "out.txt")
    add("error-map-point-count", "map", "--points", "cloud.txt", "--pred",
        "small.pcod", "--threshold", "0.5", "--out", "out.txt")
    for value in ("nan", "inf"):
        add(f"error-map-threshold-{value}", "map", "--points", "cloud.txt",
            "--pred", prob[0], "--threshold", value, "--out", "out.txt")
    add("error-map-both-sources", "map", "--points", "cloud.txt", "--pred",
        prob[0], "--threshold", "0.5", "--roc", "roc.csv", "--out", "out.txt")
    add("error-auroc-k-beyond-members", "auroc", "--id", prob[0], "--ood",
        prob[1], "--k-list", "1,6", "--out", "out.txt")
    add("error-auroc-mixed-forms", "auroc", "--id", prob[0], "--ood", csv[1],
        "--out", "out.txt")
    add("error-roc-k-for-csv", "roc", "--id", csv[0], "--ood", csv[1],
        "--k", "2", "--out", "out.csv")
    add("error-score-missing-input", "score", "--in", "missing.pcod",
        "--out", "out.csv")
    add("error-score-workers-zero", "score", "--in", prob[0], "--out", "out.csv",
        "--workers", "0")
    add("error-usage-unknown-kind", "score", "--in", prob[0], "--out", "out.csv",
        "--kind", "energy")
    add("subprocess-auroc-prob-klist", "auroc", "--id", prob[0], "--ood", prob[1],
        "--out", "out.txt", "--k-list", "1,3,5", subprocess=True)
    return cases


def _digests(workdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.name not in INPUTS}


def _in_process(argv, workdir: Path):
    from pcood import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, saved = os.getcwd(), {k: os.environ.get(k) for k in _ENV}
    os.environ.update(_ENV)
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's --help and usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value
    return code, stdout.getvalue(), stderr.getvalue()


def _subprocess(argv, workdir: Path):
    env = {**os.environ, **_ENV, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "pcood", *argv], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case in the empty directory `workdir`; return its record."""
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, workdir / name)
    run = _subprocess if case["subprocess"] else _in_process
    code, stdout, stderr = run(case["argv"], workdir)
    return {**case, "exit": code, "stdout": stdout, "stderr": stderr,
            "outputs": _digests(workdir)}


def make_inputs() -> None:
    """Write the inputs: small, seeded, and exercising the parsers' edges."""
    import numpy as np

    from pcood import TensorKind, cli, write_header, write_member

    rng = np.random.default_rng(20221)

    def tensor(path, values, kind):
        with open(GOLDEN / path, "wb") as f:
            write_header(f, kind, *values.shape[1:], values.shape[0])
            for m, rows in enumerate(values):
                write_member(f, rows, kind, m)

    shape = (N_MEMBERS, N_POINTS, N_CLASSES)
    for name, boost in (("id", 3.0), ("ood", 0.5)):
        logits = rng.normal(size=shape)
        logits[:, :, 0] += boost
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        # Some rows are one-hot, so scores tie at 0 across points and members.
        probs[:, :20] = np.eye(N_CLASSES)[rng.integers(0, N_CLASSES, size=20)]
        tensor(f"prob_{name}.pcod", probs.astype(np.float32),
               TensorKind.PROBABILITIES)
        tensor(f"logit_{name}.pcod", (4.0 * logits).astype(np.float32),
               TensorKind.LOGITS)
    tensor("small.pcod", np.full((2, 10, N_CLASSES), 0.25, dtype=np.float32),
           TensorKind.PROBABILITIES)

    # Points with LF, CRLF, tabs and blank lines; labels 0..4 likewise.
    xyz = rng.uniform(-50.0, 50.0, size=(N_POINTS, 3))
    lines = []
    for i in range(N_POINTS):
        sep = "\t" if i % 7 == 0 else " "
        fields = [f"{v:.3f}" for v in xyz[i]] + [str(int(v)) for v in
                                                 rng.integers(0, 256, size=4)]
        lines.append(sep.join(fields) + ("\r\n" if i % 3 == 0 else "\n"))
        if i % 40 == 5:
            lines.append("\n" if i % 80 == 5 else "  \r\n")
    (GOLDEN / "cloud.txt").write_bytes("".join(lines).encode())
    labels = rng.integers(0, N_CLASSES + 1, size=N_POINTS)
    labels[:N_CLASSES + 1] = np.arange(N_CLASSES + 1)

    def label_file(path, values):
        text = "".join(f"{v}" + ("\r\n" if i % 4 == 1 else "\n")
                       + ("\n" if i % 50 == 9 else "")
                       for i, v in enumerate(values))
        (GOLDEN / path).write_bytes(text.encode())

    label_file("labels.txt", labels.tolist())
    label_file("labels_short.txt", labels[:-1].tolist())
    out_of_range = labels.tolist()
    out_of_range[17], out_of_range[60] = N_CLASSES + 1, -1
    label_file("labels_range.txt", out_of_range)
    label_file("labels_short_range.txt", out_of_range[:-1])
    label_file("labels_int64.txt", labels[:30].tolist() + [2 ** 63]
               + labels[31:].tolist())

    # Score CSVs with comments, blank lines and tied values.
    for name, n, mu in (("id", 150, 0.0), ("ood", 120, 0.8)):
        values = np.round(rng.normal(mu, 1.0, size=n), 2)
        rows = [f"{i},{v!r}\n" for i, v in enumerate(values.tolist())]
        rows.insert(40, "\n")
        (GOLDEN / f"{name}.csv").write_text(
            "# seeded scores\n\nindex,score\n" + "".join(rows))

    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        if cli.main(["roc", "--id", "prob_id.pcod", "--ood", "prob_ood.pcod",
                     "--bins", "64", "--out", "roc.csv"]):
            raise SystemExit("roc.csv could not be written")
    finally:
        os.chdir(cwd)


def main(argv) -> int:
    import tempfile

    sys.path.insert(0, str(SRC))
    if "--inputs" in argv:
        make_inputs()
    records = []
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            records.append(run_case(case, Path(tmp)))
    EXPECTED.write_text(json.dumps({"cases": records}, indent=1) + "\n")
    print(f"{len(records)} cases written to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
