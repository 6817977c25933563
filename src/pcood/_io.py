"""Small stream and array helpers shared by the parsers and writers.

Streams are binary at every boundary of the package: readers take what
``open(path, "rb")`` or ``io.BytesIO`` gives (``read`` and ``readline``),
and writers take binary sinks. ``read_rows`` is the one reader of row
text: points, labels and score CSVs each give it a row spec, and it
decodes their blocks. ``skip_header`` is the one header rule of CSVs.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np

from .errors import ValidationError

# Bytes read per block by iter_blocks; blocks are cut at a newline, so a
# block is about this long.
_BLOCK_SIZE = 1 << 20
# Characters of input text an error message quotes.
_QUOTE_CHARS = 80


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark `arr` read-only and return it."""
    arr.flags.writeable = False
    return arr


def quoted(text: str) -> str:
    """repr of input text for an error message, cut to its first
    ``_QUOTE_CHARS`` characters with "..." after a cut, so that a huge line
    makes a short message."""
    if len(text) > _QUOTE_CHARS:
        return repr(text[:_QUOTE_CHARS]) + "..."
    return repr(text)


def numbered_lines(stream, where: str = "line", start: int = 1):
    """Yield decoded ``(line number, line)`` from a binary stream's
    ``readline``.

    Newlines are stripped. A line that is not UTF-8 raises
    ``ValidationError`` naming it as ``{where} {line number}``.
    """
    for lineno, raw in enumerate(iter(stream.readline, b""), start):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{where} {lineno}: not valid UTF-8") from None
        yield lineno, line.rstrip("\r\n")


def skip_header(stream, header: str, parse) -> int:
    """Read a binary stream line by line through its `header` line, and
    return the next line's number. Only blank lines and ``#`` lines may come
    first; each ``#`` line goes to the format's ``parse(line number, line)``.
    """
    for lineno, line in numbered_lines(stream):
        text = line.strip()
        if text.startswith("#"):
            parse(lineno, line)
        elif text == header:
            return lineno + 1
        elif text:
            raise ValidationError(
                f"line {lineno}: expected header {header!r}, got {quoted(text)}")
    raise ValidationError(f"missing {header!r} header")


def iter_blocks(stream, lineno: int = 1):
    """Yield ``(first line number, block)`` over a binary stream, whose
    first line is numbered `lineno`.

    A block is the bytes of whole lines read from about ``_BLOCK_SIZE``
    of the stream: it ends at a newline, except the last block, which
    ends where the stream does. A longer line is yielded whole in one
    block.
    """
    pending = []
    while chunk := stream.read(_BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            block = b"".join([*pending, chunk[:cut]])
            pending = []
            yield lineno, block
            lineno += block.count(b"\n")
            chunk = chunk[cut:]
        if chunk:
            pending.append(chunk)
    if pending:
        yield lineno, b"".join(pending)


def load_block(block: bytes, dtype: np.dtype, delimiter: str | None = None):
    """Decode a block's rows into a 1-D array of the structured ``dtype``.

    Uses numpy's C text reader, without comment handling. Returns None
    where the block is not ASCII or numpy rejects it, so that the line
    parser of ``read_rows`` decides: it may accept what numpy does not
    (``1_0``, a lone ``\\r`` between fields, integers beyond int64) or
    raise the error that names the line. Blank lines are skipped; a blank
    block gives no rows.
    """
    if not block.isascii():
        return None
    text = block.decode("ascii")
    if not text or text.isspace():
        # loadtxt warns on input with no rows.
        return np.empty(0, dtype)
    try:
        return np.loadtxt(text.split("\n"), dtype=dtype, delimiter=delimiter,
                          comments=None, ndmin=1)
    except ValueError:
        return None


def read_rows(blocks, out: np.ndarray, where: str, dtype: np.dtype,
              delimiter: str | None, accept, parse) -> np.ndarray:
    """Append the rows of each ``(first line number, block)`` to the empty
    array `out`, and return it.

    A block is decoded by ``load_block(block, dtype, delimiter)`` and
    ``accept(rec)`` returns its rows, or None where a row fails a check.
    Where either gives nothing, ``parse(line number, line)`` runs on each of
    the block's lines, numbered as ``{where} {line number}``: it returns the
    line's row, or None for a line without one, or raises the error that
    names the line. `out` grows in place as each block arrives, so the rows
    are never held twice, as a list of parts and as their concatenation.
    """
    for lineno, block in blocks:
        rec = load_block(block, dtype, delimiter)
        part = None if rec is None else accept(rec)
        if part is None:
            rows = [row for i, line in numbered_lines(io.BytesIO(block), where, lineno)
                    if (row := parse(i, line)) is not None]
            part = np.array(rows, dtype=out.dtype).reshape(len(rows), *out.shape[1:])
            del rows
        n = len(out)
        out.resize((n + len(part), *out.shape[1:]), refcheck=False)
        out[n:] = part
        # Drop them before the next block is decoded.
        del rec, part
    return out


@contextlib.contextmanager
def atomic_outputs(paths):
    """Open one temp file per target path and rename all on success.

    Targets are replaced only after every writer ran to completion, so a
    failed run leaves the previous outputs untouched and no partial files
    behind. Yields binary file objects in the order of ``paths``.
    """
    tmp_paths = []
    files = []
    # mkstemp creates 0600 files; renamed outputs should honor the umask
    # like any ordinary file creation would.
    umask = os.umask(0)
    os.umask(umask)
    try:
        for path in paths:
            target_dir = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(path) + ".", dir=target_dir
            )
            os.fchmod(fd, 0o666 & ~umask)
            tmp_paths.append(tmp)
            files.append(os.fdopen(fd, "wb"))
        yield files
        for f in files:
            f.close()
        for tmp, path in zip(tmp_paths, paths):
            os.replace(tmp, path)
    finally:
        for f in files:
            if not f.closed:
                f.close()
        for tmp in tmp_paths:
            if os.path.exists(tmp):
                os.unlink(tmp)
