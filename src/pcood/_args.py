"""The command line's argument layer: parse, check, exit code.

This module imports no numpy, so ``--help`` and every usage error exit
before numpy and the layer modules load; only a command that passed every
check here imports ``pcood.cli`` and runs its ``cmd_<subcommand>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import TruncatedStreamError, ValidationError

DEFAULT_BIN_COUNT = 4096

# Most histogram bins: two int64 count arrays of 8 MiB each.
_MAX_BINS = 1 << 20

# Each value of --kind and the ScoreKind value it names.
SCORE_KINDS = {"entropy": "entropy", "msp": "msp_complement"}


def check_threshold(threshold) -> float:
    """Return the threshold as a float; it must be finite."""
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    return threshold


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file: by device and inode where
    both exist, by their resolved paths where one does not."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_args(args: argparse.Namespace) -> None:
    """Reject flag values no run can use, before any file is opened."""
    sc = args.subcommand
    if sc == "map":
        if (args.threshold is None) == (args.roc is None):
            raise ValidationError("map needs exactly one of --threshold or --roc")
        if args.threshold is not None:
            check_threshold(args.threshold)
    paths = []
    for role, dest in args.paths:
        path = getattr(args, dest)
        if path == "":
            raise ValidationError(f"{sc}: empty path for {role}")
        if path is not None:
            paths.append((role, path))
    # An output written over an input or another output would lose it.
    for j, (role, path) in enumerate(paths):
        if role.startswith("out"):
            for other, other_path in paths[:j]:
                if _same_file(path, other_path):
                    raise ValidationError(
                        f"{sc}: --{role.replace('_', '-')} and "
                        f"--{other.replace('_', '-')} name the same file")
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise ValidationError(f"--k must be >= 1, got {k}")
    k_list = getattr(args, "k_list", None)
    if k is not None and k_list is not None:
        raise ValidationError("--k and --k-list exclude each other")
    if k_list is not None and any(k < 1 for k in k_list):
        raise ValidationError(f"--k-list entries must be >= 1, got {k_list}")
    bins = getattr(args, "bins", DEFAULT_BIN_COUNT)
    if bins < 2:
        raise ValidationError(f"--bins must be >= 2, got {bins}")
    if bins > _MAX_BINS:
        raise ValidationError(f"--bins must be at most {_MAX_BINS}, got {bins}")
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")


class _Parser(argparse.ArgumentParser):
    # Usage errors are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _k_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"bad k list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcood",
                     description="Uncertainty-based OOD evaluation for point "
                                 "cloud semantic segmentation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_path(p, flag, **kwargs):
        # Record (role, dest) in the subparser's defaults, in the order the
        # flags are added: `_check_args` reports empty ones in that order.
        dest = p.add_argument(flag, **kwargs).dest
        role = flag.lstrip("-").replace("-", "_")
        p.set_defaults(paths=[*(p.get_default("paths") or ()), (role, dest)])

    def add_common(p, kind=False, k=False, bins=False, mode=False):
        p.add_argument("--workers", type=int, default=1,
                       help="worker count; results are identical for any value")
        if kind:
            p.add_argument("--kind", choices=sorted(SCORE_KINDS), default="msp",
                           help="OOD score: msp (1 - max softmax prob) or entropy")
        if k:
            p.add_argument("--k", type=int, default=None,
                           help="members to average (default: all)")
        if bins:
            p.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT,
                           help="histogram bin count")
        if mode:
            p.add_argument("--mode", choices=("exact", "hist", "auto"),
                           default="auto",
                           help="exact sort, streaming histogram, or auto by size")

    p = sub.add_parser("aggregate", help="average tensor members into a "
                                         "K=1 probability tensor")
    add_path(p, "--in", dest="input", required=True, help="input PCOD tensor")
    add_path(p, "--out", required=True, help="output PCOD tensor (K=1)")
    add_common(p, k=True)

    p = sub.add_parser("score", help="write per-point OOD scores as CSV")
    add_path(p, "--in", dest="input", required=True, help="input PCOD tensor")
    add_path(p, "--out", required=True, help="output score CSV")
    add_common(p, kind=True, k=True)

    p = sub.add_parser("auroc", help="AUROC report between ID and OOD inputs")
    add_path(p, "--id", required=True, help="ID PCOD tensor or score CSV")
    add_path(p, "--ood", required=True, help="OOD PCOD tensor or score CSV")
    p.add_argument("--k-list", type=_k_list, default=None,
                   help="comma-separated ensemble sizes to sweep "
                        "(e.g. 1,5,10,15,20)")
    add_path(p, "--out", required=True, help="output key=value report")
    add_common(p, kind=True, k=True, bins=True, mode=True)

    p = sub.add_parser("roc", help="ROC curve CSV with the Youden threshold")
    add_path(p, "--id", required=True, help="ID PCOD tensor or score CSV")
    add_path(p, "--ood", required=True, help="OOD PCOD tensor or score CSV")
    add_path(p, "--out", required=True, help="output ROC CSV")
    add_common(p, kind=True, k=True, bins=True)

    p = sub.add_parser("iou", help="segmentation metrics report")
    add_path(p, "--points", required=True, help="Semantic3D points file")
    add_path(p, "--labels", required=True, help="per-point truth labels")
    add_path(p, "--pred", required=True, help="prediction PCOD tensor")
    add_path(p, "--out", required=True, help="output key=value report")
    add_common(p, k=True)

    p = sub.add_parser("map", help="write a green/red ID/OOD point map")
    add_path(p, "--points", required=True, help="Semantic3D points file")
    add_path(p, "--pred", required=True, help="prediction PCOD tensor")
    p.add_argument("--threshold", type=float, default=None,
                   help="OOD-score threshold (higher score = OOD)")
    add_path(p, "--roc", default=None,
             help="ROC CSV to take the Youden threshold from")
    add_path(p, "--out", required=True, help="output map file")
    add_common(p, kind=True, k=True)

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    what = p.add_subparsers(dest="what", required=True)

    ps = what.add_parser("scores", help="Gaussian ID/OOD score CSVs")
    ps.add_argument("--mu-id", type=float, default=0.0)
    ps.add_argument("--sigma-id", type=float, default=1.0)
    ps.add_argument("--mu-ood", type=float, default=1.0)
    ps.add_argument("--sigma-ood", type=float, default=1.0)
    ps.add_argument("--n-id", type=int, required=True)
    ps.add_argument("--n-ood", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    add_path(ps, "--out-id", required=True)
    add_path(ps, "--out-ood", required=True)
    ps.add_argument("--workers", type=int, default=1)

    pt = what.add_parser("tensor", help="ID/OOD prediction tensor pair")
    pt.add_argument("--points", type=int, required=True)
    pt.add_argument("--classes", type=int, default=8)
    pt.add_argument("--members", type=int, default=20)
    pt.add_argument("--separability", type=float, default=3.0)
    pt.add_argument("--seed", type=int, default=0)
    add_path(pt, "--out-id", required=True)
    add_path(pt, "--out-ood", required=True)
    pt.add_argument("--workers", type=int, default=1)

    return parser


def main(argv=None) -> int:
    """Run one command line; return its exit code.

    ``--help`` and argparse's usage errors raise SystemExit (0 and 1). A
    command that passes `_check_args` runs as `pcood.cli.cmd_<subcommand>`.
    Errors become exit codes here: ValidationError 1, TruncatedStreamError
    and OSError 2.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        from . import cli
        return getattr(cli, f"cmd_{args.subcommand}")(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TruncatedStreamError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
