"""Command-line front end for the OOD evaluation pipeline.

Composes the library into file-level subcommands: synthesize fixtures,
aggregate prediction tensors, score points, and produce AUROC / ROC /
IoU reports and colorized ID/OOD maps. Every output is written to a
temp file and renamed into place, reports carry input hashes instead of
timestamps, and all computations are independent of --workers, so
reruns on the same inputs are byte-identical.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._io import atomic_outputs
from .errors import ParseError, TruncatedStreamError, ValidationError
from .evaluation import (DEFAULT_BIN_COUNT, EXACT_MODE_MAX_POINTS, TIE_RULE,
                         confusion_new, confusion_accumulate,
                         apply_threshold, argmax_labels, exact_auroc,
                         hist_accumulate, hist_auroc, hist_merge, hist_new,
                         hist_new_range, optimal_threshold, roc_curve,
                         seg_metrics, write_metrics_report, write_roc_csv,
                         read_roc_csv)
from .pointcloud import parse_semantic3d, read_labels, write_idood_map
from .predictive import (TENSOR_MAGIC, TensorKind, TensorStream, write_header,
                         write_member)
from .scores import (ScoreKind, read_scores_csv, score_distribution,
                     write_scores_csv)
from .synth import (GaussianPairSpec, _check_tensor_args, sample_scores_chunk,
                    synth_member)

DEFAULT_K_SWEEP = (1, 5, 10, 15, 20)

_KIND_FLAGS = {"msp": ScoreKind.MSP_COMPLEMENT, "entropy": ScoreKind.ENTROPY}


# Path arguments per subcommand, in the order empty ones are reported.
_PATH_ROLES = {
    "aggregate": ("in", "out"),
    "score": ("in", "out"),
    "auroc": ("id", "ood", "out"),
    "roc": ("id", "ood", "out"),
    "iou": ("points", "labels", "pred", "out"),
    "map": ("points", "pred", "roc", "out"),
    "synth": ("out_id", "out_ood"),
}


def _check_args(args: argparse.Namespace) -> None:
    """Reject flag values no run can use, before any file is opened."""
    sc = args.subcommand
    if sc == "map" and (args.threshold is None) == (args.roc is None):
        raise ValidationError("map needs exactly one of --threshold or --roc")
    for role in _PATH_ROLES[sc]:
        if getattr(args, "input" if role == "in" else role) == "":
            raise ValidationError(f"{sc}: empty path for {role}")
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise ValidationError(f"--k must be >= 1, got {k}")
    k_list = getattr(args, "k_list", None)
    if k_list is not None and any(k < 1 for k in k_list):
        raise ValidationError(f"--k-list entries must be >= 1, got {k_list}")
    bins = getattr(args, "bins", DEFAULT_BIN_COUNT)
    if bins < 2:
        raise ValidationError(f"--bins must be >= 2, got {bins}")
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _shards(total: int, workers: int):
    """Split range(total) into at most `workers` contiguous [start, stop)."""
    if total <= 0:
        return [(0, 0)]
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    bounds = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _run_shards(fn, shard_args, workers: int):
    """Apply fn over shard argument tuples, preserving shard order."""
    if workers <= 1 or len(shard_args) <= 1:
        return [fn(*args) for args in shard_args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), shard_args))


@contextlib.contextmanager
def _named(path: str):
    """Prefix the message of an input error raised in the block with `path`."""
    try:
        yield
    except (ValidationError, TruncatedStreamError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _open_tensor(files: contextlib.ExitStack, path: str):
    """Open a PCOD input and check its header; its payload is read later."""
    source = files.enter_context(open(path, "rb"))
    with _named(path):
        return TensorStream(source)


class _HashedSource:
    """A binary source that hands out `head`, then the rest of `source`,
    and hashes every byte it hands out."""

    def __init__(self, head: bytes, source):
        self._head, self._source = head, source
        self._digest = hashlib.sha256()
        self._count = 0

    def read(self, size: int = -1) -> bytes:
        if self._head:
            data, self._head = self._head, b""
        else:
            data = self._source.read(size)
        self._digest.update(data)
        self._count += len(data)
        return data

    def tell(self) -> int:
        """Bytes handed out so far."""
        return self._count

    @property
    def sha256(self) -> str:
        return self._digest.hexdigest()


def _open_scores_or_tensor(files: contextlib.ExitStack, path: str):
    """Open an input by its magic as (form, data, hashed).

    A tensor gives ("tensor", TensorStream, the stream), read later; a
    score CSV is read to its end now, giving ("scores", ndarray, source).
    ``hashed.sha256`` is the digest of the bytes that were read, so a pipe
    is read once.
    """
    source = files.enter_context(open(path, "rb"))
    with _named(path):
        head = source.read(len(TENSOR_MAGIC))
        if head == TENSOR_MAGIC:
            stream = TensorStream(source, head)
            return "tensor", stream, stream
        hashed = _HashedSource(head, source)
        return "scores", read_scores_csv(hashed), hashed


def _read_text(path: str, read, *args):
    """Parse the file at `path` as read(source, *args) in one hashed pass.

    Returns (result, hashed): ``hashed.sha256`` is the digest of the bytes
    parsed, so a pipe is read once. An input error is named by `path`.
    """
    with open(path, "rb") as f, _named(path):
        hashed = _HashedSource(b"", f)
        return read(hashed, *args), hashed


def _open_pair(files: contextlib.ExitStack, args: argparse.Namespace):
    """Open --id and --ood as (form, id, ood, inputs): two tensors or two
    score CSVs, and the (role, path, hashed) entries for `_provenance`."""
    id_form, id_data, id_hashed = _open_scores_or_tensor(files, args.id)
    ood_form, ood_data, ood_hashed = _open_scores_or_tensor(files, args.ood)
    if id_form != ood_form:
        raise ValidationError(
            "--id and --ood must both be tensors or both be score CSVs"
        )
    if id_form == "scores":
        if args.k is not None or getattr(args, "k_list", None) is not None:
            raise ValidationError("--k/--k-list apply to tensor inputs only")
    elif id_data.n_classes != ood_data.n_classes:
        raise ValidationError(
            f"class counts differ: {id_data.n_classes} vs {ood_data.n_classes}"
        )
    inputs = [("id", args.id, id_hashed), ("ood", args.ood, ood_hashed)]
    return id_form, id_data, ood_data, inputs


def _open_scene(files: contextlib.ExitStack, args: argparse.Namespace,
                labels: str | None = None):
    """Open --pred and parse --points, and the `labels` file if given.

    Returns (stream, cloud, truth, inputs): truth is the labels array, or
    None without `labels`, and inputs the (role, path, hashed) entries for
    `_provenance`. The cloud's size must match the tensor's.
    """
    stream = _open_tensor(files, args.pred)
    cloud, hashed = _read_text(args.points, parse_semantic3d)
    inputs = [("points", args.points, hashed)]
    truth = None
    if labels is not None:
        truth, hashed = _read_text(labels, read_labels, len(cloud),
                                   stream.n_classes)
        inputs.append(("labels", labels, hashed))
    if len(cloud) != stream.n_points:
        raise ValidationError(
            f"cloud has {len(cloud)} points but tensor has {stream.n_points}"
        )
    inputs.append(("pred", args.pred, stream))
    return stream, cloud, truth, inputs


def _k(args: argparse.Namespace, stream) -> int:
    """Members to average: --k, or every member of the tensor."""
    return stream.n_members if args.k is None else args.k


def _per_k(streams, ks, workers: int, fn):
    """Yield (k, [fn of each stream's k-member mean]) at each distinct k.

    `streams` holds (path, TensorStream) pairs, read in step in one pass;
    an input error met on the way is named by its path. fn runs on the
    point shards of each mean as soon as it is formed, and its results are
    joined in point order.
    """
    passes = [(path, stream.means(ks)) for path, stream in streams]
    for k in sorted(set(ks)):
        results = []
        for path, means in passes:
            with _named(path):
                _, mean = next(means)
            results.append(np.concatenate(_run_shards(
                lambda a, b: fn(mean[a:b]), _shards(len(mean), workers), workers)))
        yield k, results
    for path, means in passes:
        with _named(path):
            next(means, None)  # reads and checks the rest of the stream


def _pooled_hist(id_scores: np.ndarray, ood_scores: np.ndarray,
                 n_classes: int | None, kind: ScoreKind, bins: int,
                 workers: int):
    """One histogram of both populations, merged in shard order.

    Tensor scores are binned over the score domain of `n_classes`; raw
    score CSVs (n_classes None) over their pooled range.
    """
    if n_classes is not None:
        factory = lambda: hist_new(kind, n_classes, bins)
    else:
        if id_scores.size == 0 or ood_scores.size == 0:
            raise ValidationError("both populations must be non-empty")
        lo = float(min(id_scores.min(), ood_scores.min()))
        hi = float(max(id_scores.max(), ood_scores.max()))
        if not lo < hi:
            hi = lo + 1.0  # all scores identical; a single occupied bin is fine
        factory = lambda: hist_new_range(lo, hi, bins)
    shard_args = [(values[a:b], population)
                  for values, population in ((id_scores, "id"), (ood_scores, "ood"))
                  for a, b in _shards(values.shape[0], workers)]
    parts = _run_shards(lambda values, population:
                        hist_accumulate(factory(), values, population),
                        shard_args, workers)
    return functools.reduce(hist_merge, parts)


def _provenance(inputs) -> list:
    """Report entries of (role, path, hashed) inputs.

    Every input is read once, and takes its digest from that read
    (``hashed.sha256``).
    """
    entries = []
    for role, path, hashed in inputs:
        entries.append((f"input_{role}", path))
        entries.append((f"input_{role}_sha256", hashed.sha256))
    return entries


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_aggregate(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as files:
        stream = _open_tensor(files, args.input)
        k = _k(args, stream)
        [(_, [probs])] = _per_k([(args.input, stream)], [k], args.workers,
                                lambda probs: probs)
    rows = probs.astype(np.float32)
    with atomic_outputs([args.out]) as (sink,):
        write_header(sink, TensorKind.PROBABILITIES, *rows.shape, 1)
        with _named(args.out):
            write_member(sink, rows, TensorKind.PROBABILITIES, 0)
    dev = np.abs(np.sum(rows, axis=-1, dtype=np.float64) - 1.0)
    max_dev = float(dev.max()) if dev.size else 0.0
    print(f"points={rows.shape[0]} classes={rows.shape[1]} members_used={k} "
          f"max_row_sum_dev={max_dev!r}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    kind = _KIND_FLAGS[args.kind]
    with contextlib.ExitStack() as files:
        stream = _open_tensor(files, args.input)
        [(_, [values])] = _per_k([(args.input, stream)], [_k(args, stream)],
                                 args.workers,
                                 lambda probs: score_distribution(probs, kind))
    with atomic_outputs([args.out]) as (sink,):
        write_scores_csv(values, sink)
    return 0


def cmd_auroc(args: argparse.Namespace) -> int:
    kind = _KIND_FLAGS[args.kind]
    with contextlib.ExitStack() as files:
        form, id_data, ood_data, inputs = _open_pair(files, args)
        if form == "scores":
            n_classes = None
            n_id, n_ood = id_data.shape[0], ood_data.shape[0]
        else:
            n_classes = id_data.n_classes
            n_id, n_ood = id_data.n_points, ood_data.n_points
        mode = args.mode
        if mode == "auto":
            mode = "exact" if n_id + n_ood <= EXACT_MODE_MAX_POINTS else "hist"

        def auroc(id_scores, ood_scores):
            if mode == "exact":
                return exact_auroc(id_scores, ood_scores)
            return hist_auroc(_pooled_hist(id_scores, ood_scores, n_classes,
                                           kind, args.bins, args.workers))

        if form == "scores":
            rows = [("auroc", auroc(id_data, ood_data))]
        else:
            ks = args.k_list or [_k(args, id_data)]
            values = {k: auroc(*scores) for k, scores in _per_k(
                [(args.id, id_data), (args.ood, ood_data)], ks, args.workers,
                lambda probs: score_distribution(probs, kind))}
            rows = [(f"auroc_k{k}", values[k]) for k in ks]

    entries = [("command", "auroc")]
    entries += _provenance(inputs)
    entries += [("kind", kind.value), ("tie_rule", TIE_RULE), ("mode", mode)]
    if mode == "hist":
        entries.append(("bins", args.bins))
    entries += [("n_id", n_id), ("n_ood", n_ood)]
    entries += rows
    with atomic_outputs([args.out]) as (sink,):
        write_metrics_report(entries, sink)
    return 0


def cmd_roc(args: argparse.Namespace) -> int:
    kind = _KIND_FLAGS[args.kind]
    with contextlib.ExitStack() as files:
        form, id_data, ood_data, inputs = _open_pair(files, args)
        if form == "scores":
            n_classes = k = None
            id_scores, ood_scores = id_data, ood_data
        else:
            n_classes, k = id_data.n_classes, _k(args, id_data)
            [(_, [id_scores, ood_scores])] = _per_k(
                [(args.id, id_data), (args.ood, ood_data)], [k], args.workers,
                lambda probs: score_distribution(probs, kind))
    hist = _pooled_hist(id_scores, ood_scores, n_classes, kind, args.bins,
                        args.workers)
    curve = roc_curve(hist)
    threshold, j = optimal_threshold(curve)
    metadata = [("kind", kind.value), ("bins", args.bins),
                ("tie_rule", TIE_RULE)]
    if k is not None:
        metadata.append(("k", k))
    metadata += [("n_id", hist.n_id), ("n_ood", hist.n_ood),
                 ("youden_threshold", threshold), ("youden_j", j)]
    metadata += _provenance(inputs)
    with atomic_outputs([args.out]) as (sink,):
        write_roc_csv(curve, sink, metadata)
    return 0


def cmd_iou(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as files:
        stream, _, truth, inputs = _open_scene(files, args, args.labels)
        k = _k(args, stream)
        [(_, [predicted])] = _per_k([(args.pred, stream)], [k], args.workers,
                                    argmax_labels)
    matrix = confusion_accumulate(confusion_new(stream.n_classes), predicted,
                                  truth)
    metrics = seg_metrics(matrix)

    entries = [("command", "iou")]
    entries += _provenance(inputs)
    entries += [("k", k), ("n_classes", stream.n_classes),
                ("total_counted", matrix.total_counted),
                ("ignored", matrix.ignored),
                ("mean_iou", metrics.mean_iou)]
    for c in range(stream.n_classes):
        entries.append((f"per_class_iou_{c + 1}", float(metrics.per_class_iou[c])))
    entries.append(("accuracy", metrics.accuracy))
    with atomic_outputs([args.out]) as (sink,):
        write_metrics_report(entries, sink)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    kind = _KIND_FLAGS[args.kind]
    with contextlib.ExitStack() as files:
        stream, cloud, _, _ = _open_scene(files, args)
        threshold = args.threshold
        if threshold is None:
            with open(args.roc, "rb") as f, _named(args.roc):
                _, metadata = read_roc_csv(f)
                if "youden_threshold" not in metadata:
                    raise ValidationError("no youden_threshold metadata")
                try:
                    threshold = float(metadata["youden_threshold"])
                except ValueError:
                    raise ParseError(f"bad youden_threshold metadata: "
                                     f"{metadata['youden_threshold']!r}") from None
        [(_, [values])] = _per_k([(args.pred, stream)], [_k(args, stream)],
                                 args.workers,
                                 lambda probs: score_distribution(probs, kind))
    flags = apply_threshold(values, threshold)
    with atomic_outputs([args.out]) as (sink,):
        write_idood_map(cloud, flags, sink)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.what == "scores":
        spec = GaussianPairSpec(
            mu_id=args.mu_id, sigma_id=args.sigma_id,
            mu_ood=args.mu_ood, sigma_ood=args.sigma_ood,
            n_id=args.n_id, n_ood=args.n_ood, seed=args.seed)

        def draw(population, n):
            return np.concatenate(_run_shards(
                lambda a, b: sample_scores_chunk(spec, population, a, b),
                _shards(n, args.workers), args.workers))

        id_scores = draw("id", spec.n_id)
        ood_scores = draw("ood", spec.n_ood)
        with atomic_outputs([args.out_id, args.out_ood]) as (id_sink, ood_sink):
            write_scores_csv(id_scores, id_sink)
            write_scores_csv(ood_scores, ood_sink)
        return 0

    n, c = args.points, args.classes
    _check_tensor_args(n, c, args.members, args.separability, args.seed)
    paths = [args.out_id, args.out_ood]
    with atomic_outputs(paths) as sinks:
        for sink in sinks:
            write_header(sink, TensorKind.PROBABILITIES, n, c, args.members)
        for m in range(args.members):
            parts = _run_shards(
                lambda a, b: synth_member(n, c, args.separability, args.seed,
                                          m, a, b),
                _shards(n, args.workers), args.workers)
            for i, (sink, path) in enumerate(zip(sinks, paths)):
                rows = np.concatenate([part[i] for part in parts])
                with _named(path):
                    write_member(sink, rows, TensorKind.PROBABILITIES, m)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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

    def add_common(p, kind=False, k=False, bins=False, mode=False):
        p.add_argument("--workers", type=int, default=1,
                       help="worker count; results are identical for any value")
        if kind:
            p.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="msp",
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
    p.add_argument("--in", dest="input", required=True, help="input PCOD tensor")
    p.add_argument("--out", required=True, help="output PCOD tensor (K=1)")
    add_common(p, k=True)

    p = sub.add_parser("score", help="write per-point OOD scores as CSV")
    p.add_argument("--in", dest="input", required=True, help="input PCOD tensor")
    p.add_argument("--out", required=True, help="output score CSV")
    add_common(p, kind=True, k=True)

    p = sub.add_parser("auroc", help="AUROC report between ID and OOD inputs")
    p.add_argument("--id", required=True, help="ID PCOD tensor or score CSV")
    p.add_argument("--ood", required=True, help="OOD PCOD tensor or score CSV")
    p.add_argument("--k-list", type=_k_list, default=None,
                   help="comma-separated ensemble sizes to sweep "
                        f"(e.g. {','.join(map(str, DEFAULT_K_SWEEP))})")
    p.add_argument("--out", required=True, help="output key=value report")
    add_common(p, kind=True, k=True, bins=True, mode=True)

    p = sub.add_parser("roc", help="ROC curve CSV with the Youden threshold")
    p.add_argument("--id", required=True, help="ID PCOD tensor or score CSV")
    p.add_argument("--ood", required=True, help="OOD PCOD tensor or score CSV")
    p.add_argument("--out", required=True, help="output ROC CSV")
    add_common(p, kind=True, k=True, bins=True)

    p = sub.add_parser("iou", help="segmentation metrics report")
    p.add_argument("--points", required=True, help="Semantic3D points file")
    p.add_argument("--labels", required=True, help="per-point truth labels")
    p.add_argument("--pred", required=True, help="prediction PCOD tensor")
    p.add_argument("--out", required=True, help="output key=value report")
    add_common(p, k=True)

    p = sub.add_parser("map", help="write a green/red ID/OOD point map")
    p.add_argument("--points", required=True, help="Semantic3D points file")
    p.add_argument("--pred", required=True, help="prediction PCOD tensor")
    p.add_argument("--threshold", type=float, default=None,
                   help="OOD-score threshold (higher score = OOD)")
    p.add_argument("--roc", default=None,
                   help="ROC CSV to take the Youden threshold from")
    p.add_argument("--out", required=True, help="output map file")
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
    ps.add_argument("--out-id", required=True)
    ps.add_argument("--out-ood", required=True)
    ps.add_argument("--workers", type=int, default=1)

    pt = what.add_parser("tensor", help="ID/OOD prediction tensor pair")
    pt.add_argument("--points", type=int, required=True)
    pt.add_argument("--classes", type=int, default=8)
    pt.add_argument("--members", type=int, default=20)
    pt.add_argument("--separability", type=float, default=3.0)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out-id", required=True)
    pt.add_argument("--out-ood", required=True)
    pt.add_argument("--workers", type=int, default=1)

    return parser


_COMMANDS = {
    "aggregate": cmd_aggregate,
    "score": cmd_score,
    "auroc": cmd_auroc,
    "roc": cmd_roc,
    "iou": cmd_iou,
    "map": cmd_map,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.subcommand](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TruncatedStreamError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
