"""Command-line front end for the OOD evaluation pipeline.

Composes the library into file-level subcommands: synthesize fixtures,
aggregate prediction tensors, score points, and produce AUROC / ROC /
IoU reports and colorized ID/OOD maps. Every output is written to a
temp file and renamed into place, reports carry input hashes instead of
timestamps, and all computations are independent of --workers, so
reruns on the same inputs are byte-identical.

Arguments are parsed and checked by `pcood._args`, which imports this
module, and with it numpy, to run a checked command's ``cmd_<subcommand>``.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# `main`, the in-process entry, parses and checks argv, then runs a `cmd_*`.
from ._args import SCORE_KINDS, check_threshold, main
from ._io import atomic_outputs, quoted
from .errors import TruncatedStreamError, ValidationError
from .evaluation import (EXACT_MODE_MAX_POINTS, TIE_RULE, apply_threshold,
                         argmax_labels, confusion_accumulate, exact_auroc,
                         hist_accumulate, hist_auroc, optimal_threshold,
                         read_roc_csv, roc_curve, seg_metrics,
                         write_metrics_report, write_roc_csv)
from .pointcloud import parse_semantic3d, read_labels, write_idood_map
from .predictive import (TENSOR_MAGIC, TensorKind, TensorStream, write_header,
                         write_member)
from .scores import (_WRITE_ROWS, ScoreKind, _score_chunk,
                     _write_score_rows, read_scores_csv, score_distribution,
                     score_domain, write_scores_csv)
from .synth import (GaussianPairSpec, _check_tensor_args,
                    sample_scores_chunk, synth_member)

# Rows per task of `_run_shards`: a mean is formed and scored, and synth
# tensor rows are drawn, a tile at a time, so temporaries stay tile-sized
# instead of N x C. Tiles of 4096 to 8192 rows of 8 classes scored fastest,
# cache-resident.
_TILE_ROWS = 1 << 12

# Tasks `_run_shards` keeps in flight per thread: the results waiting for
# the caller stay a few per thread, and a thread finds its next task queued
# while the caller writes or joins the last one. 2, 4 and 8 timed alike on
# `synth tensor` (100k points x 8 classes x 20 members) and `synth scores`
# (2 x 300k) at 2 workers.
_TASKS_PER_THREAD = 4


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tiles(n_rows: int, rows: int) -> list:
    """The (a, b) row ranges of `rows` rows that cut range(n_rows), in
    order; n_rows 0 is the one empty tile (0, 0)."""
    return [(a, min(a + rows, n_rows))
            for a in range(0, n_rows, rows)] or [(0, 0)]


def _run_shards(fn, tasks, workers: int):
    """Yield fn(*task) for each argument tuple of the sequence `tasks`, in
    task order.

    `workers` sets only how many threads share the tasks, so it cannot
    move a bit of the results, nor which error is raised: a task's error
    is raised where its result would be yielded. At most one thread per
    task and per usable CPU is started, and at most _TASKS_PER_THREAD
    tasks per thread are submitted and not yet yielded, so the results
    held stay a few per thread however many tasks there are. When the
    generator ends, fails or is closed, its queued tasks are cancelled
    and its threads joined.
    """
    threads = min(workers, len(tasks), _usable_cpus())
    if threads <= 1:
        yield from itertools.starmap(fn, tasks)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        window = collections.deque()
        for task in tasks:
            if len(window) == threads * _TASKS_PER_THREAD:
                yield window.popleft().result()
            window.append(pool.submit(fn, *task))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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
        data, self._head = self._head or self._source.read(size), b""
        return self._hashed(data)

    def readline(self) -> bytes:
        # The head may hold newlines, or end inside the first line.
        line, newline, self._head = self._head.partition(b"\n")
        return self._hashed(line + (newline or self._source.readline()))

    def _hashed(self, data: bytes) -> bytes:
        self._digest.update(data)
        self._count += len(data)
        return data

    def tell(self) -> int:
        """Bytes handed out so far. Only perfbench/trace_cli.py reads it, to
        count the bytes of a traced layer call."""
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


def _open_pair(files: contextlib.ExitStack, args: argparse.Namespace,
               kind: ScoreKind):
    """Open --id and --ood, two tensors or two score CSVs, as one pair.

    Returns (inputs, (n_id, n_ood), domain, ks, scored): the (role, path,
    hashed) entries for `_provenance`; the (lo, hi) range the pair is
    binned over, the `kind` domain of a tensor pair's class count or a
    score CSV pair's pooled range; the report's ks, in order; and
    (k, id_scores, ood_scores) at each distinct k, scored by one `_per_k`
    pass as it is iterated inside `files`. A score CSV pair has ks [None]
    and its one entry at k None. An empty population fails here, named by
    its path, before any tensor pass.
    """
    id_form, id_data, id_hashed = _open_scores_or_tensor(files, args.id)
    ood_form, ood_data, ood_hashed = _open_scores_or_tensor(files, args.ood)
    if id_form != ood_form:
        raise ValidationError(
            "--id and --ood must both be tensors or both be score CSVs"
        )
    inputs = [("id", args.id, id_hashed), ("ood", args.ood, ood_hashed)]
    k_list = getattr(args, "k_list", None)
    if id_form == "scores":
        if args.k is not None or k_list is not None:
            raise ValidationError("--k/--k-list apply to tensor inputs only")
        sizes = id_data.size, ood_data.size
    elif id_data.n_classes != ood_data.n_classes:
        raise ValidationError(
            f"class counts differ: {id_data.n_classes} vs {ood_data.n_classes}"
        )
    else:
        sizes = id_data.n_points, ood_data.n_points
    for path, n in zip((args.id, args.ood), sizes):
        if n == 0:
            raise ValidationError(f"{path}: population is empty")
    if id_form == "scores":
        return (inputs, sizes, _pooled_range(id_data, ood_data), [None],
                [(None, id_data, ood_data)])
    ks = k_list or [_k(args, id_data)]
    scored = ((k, *scores) for k, scores in _per_k(
        [(args.id, id_data), (args.ood, ood_data)], ks, args.workers,
        lambda probs: score_distribution(probs, kind)))
    return (inputs, sizes, score_domain(kind, id_data.n_classes), ks, scored)


def _pooled_range(id_scores: np.ndarray, ood_scores: np.ndarray):
    """The (lo, hi) range of both populations' scores, neither empty,
    widened to an interval where every score is equal."""
    lo = float(min(id_scores.min(), ood_scores.min()))
    hi = float(max(id_scores.max(), ood_scores.max()))
    if not lo < hi:
        # All scores are equal, so a single occupied bin is fine. Where
        # lo + 1.0 rounds back to lo, the domain is one ulp wide instead,
        # below lo where above it would overflow.
        hi = lo + 1.0
        if not lo < hi:
            hi = math.nextafter(lo, math.inf)
            if math.isinf(hi):
                lo, hi = math.nextafter(lo, -math.inf), lo
    return lo, hi


def _open_scene(files: contextlib.ExitStack, args: argparse.Namespace,
                labels: str | None = None):
    """Open --pred and parse --points, and the `labels` file if given.

    Returns (stream, cloud, truth, inputs): cloud is the (N, 3) xyz array,
    truth the labels array, or None without `labels`, and inputs the
    (role, path, hashed) entries for `_provenance`. The cloud's size must
    match the tensor's.
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
    `_run_shards` tiles of each mean, formed from the member sum tile by
    tile, and its results are joined in point order. fn must work row by
    row, so the tiling cannot change a bit of its results. Each sum is
    dropped before the next stream's is formed; the largest k's sum
    arrives with its stream read to the end, so dropping it frees it.
    """
    passes = []
    for path, stream in streams:
        with _named(path):
            passes.append((path, stream.sums(ks)))
    for k in sorted(set(ks)):
        results = []
        for path, sums in passes:
            with _named(path):
                _, total = next(sums)
            # Cut from this sum's own length: streams may differ in N.
            results.append(np.concatenate(list(_run_shards(
                lambda a, b: fn(total[a:b] / k), _tiles(len(total), _TILE_ROWS),
                workers))))
            del total
        yield k, results


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
        [(_, [rows])] = _per_k([(args.input, stream)], [k], args.workers,
                               lambda probs: probs.astype(np.float32))
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
    kind = ScoreKind(SCORE_KINDS[args.kind])
    with contextlib.ExitStack() as files:
        stream = _open_tensor(files, args.input)
        [(_, [values])] = _per_k([(args.input, stream)], [_k(args, stream)],
                                 args.workers,
                                 lambda probs: score_distribution(probs, kind))
    with atomic_outputs([args.out]) as (sink,):
        write_scores_csv(values, sink)
    return 0


def cmd_auroc(args: argparse.Namespace) -> int:
    kind = ScoreKind(SCORE_KINDS[args.kind])
    with contextlib.ExitStack() as files:
        inputs, (n_id, n_ood), domain, ks, scored = _open_pair(files, args,
                                                               kind)
        mode = args.mode
        if mode == "auto":
            mode = "exact" if n_id + n_ood <= EXACT_MODE_MAX_POINTS else "hist"

        def auroc(id_scores, ood_scores):
            if mode == "exact":
                return exact_auroc(id_scores, ood_scores)
            return hist_auroc(hist_accumulate(id_scores, domain, args.bins),
                              hist_accumulate(ood_scores, domain, args.bins))

        values = {k: auroc(id_scores, ood_scores)
                  for k, id_scores, ood_scores in scored}

    entries = [("command", "auroc")]
    entries += _provenance(inputs)
    entries += [("kind", kind.value), ("tie_rule", TIE_RULE), ("mode", mode)]
    if mode == "hist":
        entries.append(("bins", args.bins))
    entries += [("n_id", n_id), ("n_ood", n_ood)]
    entries += [("auroc" if k is None else f"auroc_k{k}", values[k])
                for k in ks]
    with atomic_outputs([args.out]) as (sink,):
        write_metrics_report(entries, sink)
    return 0


def cmd_roc(args: argparse.Namespace) -> int:
    kind = ScoreKind(SCORE_KINDS[args.kind])
    with contextlib.ExitStack() as files:
        inputs, (n_id, n_ood), domain, _, scored = _open_pair(files, args,
                                                              kind)
        [(k, id_scores, ood_scores)] = scored
    curve = roc_curve(hist_accumulate(id_scores, domain, args.bins),
                      hist_accumulate(ood_scores, domain, args.bins), domain)
    threshold, j = optimal_threshold(curve)
    metadata = [("kind", kind.value), ("bins", args.bins),
                ("tie_rule", TIE_RULE)]
    if k is not None:
        metadata.append(("k", k))
    metadata += [("n_id", n_id), ("n_ood", n_ood),
                 ("youden_threshold", threshold), ("youden_j", j)]
    metadata += _provenance(inputs)
    with atomic_outputs([args.out]) as (sink,):
        write_roc_csv(curve, sink, metadata)
    return 0


def cmd_iou(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as files:
        stream, cloud, truth, inputs = _open_scene(files, args, args.labels)
        del cloud  # iou writes no point, so the xyz is not held in the pass
        k = _k(args, stream)
        [(_, [predicted])] = _per_k([(args.pred, stream)], [k], args.workers,
                                    argmax_labels)
    counts, ignored = confusion_accumulate(predicted, truth, stream.n_classes)
    with _named(args.labels):
        metrics = seg_metrics(counts)

    entries = [("command", "iou")]
    entries += _provenance(inputs)
    entries += [("k", k), ("n_classes", stream.n_classes),
                ("total_counted", int(counts.sum())), ("ignored", ignored),
                ("mean_iou", metrics.mean_iou)]
    for c in range(stream.n_classes):
        entries.append((f"per_class_iou_{c + 1}", float(metrics.per_class_iou[c])))
    entries.append(("accuracy", metrics.accuracy))
    with atomic_outputs([args.out]) as (sink,):
        write_metrics_report(entries, sink)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    kind = ScoreKind(SCORE_KINDS[args.kind])
    # The threshold is settled before the scene is opened: a bad ROC fails
    # without a read of the tensor or the cloud.
    threshold = args.threshold
    if threshold is None:
        with open(args.roc, "rb") as f, _named(args.roc):
            _, metadata = read_roc_csv(f)
            found = metadata.get("kind")
            if found != kind.value:
                raise ValidationError(
                    f"ROC kind is {found if found is None else quoted(found)}, "
                    f"but --kind {args.kind} needs {kind.value!r}")
            if "youden_threshold" not in metadata:
                raise ValidationError("no youden_threshold metadata")
            try:
                threshold = float(metadata["youden_threshold"])
            except ValueError:
                raise ValidationError(f"bad youden_threshold metadata: "
                                      f"{quoted(metadata['youden_threshold'])}") from None
            check_threshold(threshold)
    with contextlib.ExitStack() as files:
        stream, cloud, _, _ = _open_scene(files, args)
        [(_, [values])] = _per_k(
            [(args.pred, stream)], [_k(args, stream)], args.workers,
            lambda probs: score_distribution(probs, kind))
    flags = apply_threshold(values, threshold)
    with atomic_outputs([args.out]) as (sink,):
        write_idood_map(cloud, flags, sink)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Each output is written as its tiles are drawn: the tasks run in the
    # order of the bytes of the outputs, and the runner yields them so.
    if args.what == "scores":
        spec = GaussianPairSpec(
            mu_id=args.mu_id, sigma_id=args.sigma_id,
            mu_ood=args.mu_ood, sigma_ood=args.sigma_ood,
            n_id=args.n_id, n_ood=args.n_ood, seed=args.seed)
        id_tasks = [("id", a, b) for a, b in _tiles(spec.n_id, _WRITE_ROWS)]
        tasks = id_tasks + [("ood", a, b)
                            for a, b in _tiles(spec.n_ood, _WRITE_ROWS)]

        def spell(population, a, b):
            return _score_chunk(sample_scores_chunk(spec, population, a, b), a)

        with atomic_outputs([args.out_id, args.out_ood]) as (id_sink, ood_sink), \
                contextlib.closing(_run_shards(spell, tasks,
                                               args.workers)) as chunks:
            _write_score_rows(itertools.islice(chunks, len(id_tasks)), id_sink)
            _write_score_rows(chunks, ood_sink)
        return 0

    n, c = args.points, args.classes
    _check_tensor_args(n, c, args.members, args.separability, args.seed)
    paths = [args.out_id, args.out_ood]
    tasks = [(m, a, b) for m in range(args.members)
             for a, b in _tiles(n, _TILE_ROWS)]
    member = functools.partial(synth_member, n, c, args.members,
                               args.separability, args.seed)
    with atomic_outputs(paths) as sinks, \
            contextlib.closing(_run_shards(member, tasks, args.workers)) as tiles:
        for sink in sinks:
            write_header(sink, TensorKind.PROBABILITIES, n, c, args.members)
        # A tile's ID rows, then its OOD rows: members are stored one after
        # another, so each tile lands where the whole member would.
        for (m, a, _), rows in zip(tasks, tiles):
            for sink, path, tile in zip(sinks, paths, rows):
                with _named(path):
                    write_member(sink, tile, TensorKind.PROBABILITIES, m, a)
    return 0
