"""Small stream and array helpers shared by the parsers and writers."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np

from .errors import ParseError

# Characters (text streams) or bytes (binary streams) read per block by
# iter_blocks; blocks are cut at a newline, so a block is about this long.
_BLOCK_SIZE = 1 << 22


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark `arr` read-only and return it."""
    arr.flags.writeable = False
    return arr


def numbered_lines(stream, where: str = "line", start: int = 1):
    """Yield ``(line number, line)`` from a text or binary stream.

    Newlines are stripped. A binary line that is not UTF-8 raises
    ``ParseError`` naming it as ``{where} {line number}``.
    """
    for lineno, raw in enumerate(stream, start):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{where} {lineno}: not valid UTF-8") from None
        yield lineno, raw.rstrip("\r\n")


def iter_blocks(stream):
    """Yield ``(first line number, block)`` over a text or binary stream.

    A block is the ``str`` or ``bytes`` of whole lines read from about
    ``_BLOCK_SIZE`` of the stream: it ends at a newline, except the last
    block, which ends where the stream does. A longer line is yielded
    whole in one block.
    """
    lineno = 1
    pending = []
    while chunk := stream.read(_BLOCK_SIZE):
        newline = "\n" if isinstance(chunk, str) else b"\n"
        cut = chunk.rfind(newline) + 1
        if cut:
            block = chunk[:0].join([*pending, chunk[:cut]])
            pending = []
            yield lineno, block
            lineno += block.count(newline)
            chunk = chunk[cut:]
        if chunk:
            pending.append(chunk)
    if pending:
        yield lineno, pending[0][:0].join(pending)


def block_lines(block):
    """A stream over the lines of a block, for ``numbered_lines``."""
    return io.StringIO(block, newline="\n") if isinstance(block, str) else io.BytesIO(block)


def load_block(block, dtype: np.dtype, delimiter: str | None = None):
    """Decode a block's rows into a 1-D array of the structured ``dtype``.

    Uses numpy's C text reader, without comment handling. Returns None
    where the block is not ASCII or numpy rejects it, so that the caller's
    line parser decides: it may accept what numpy does not (``1_0``, a
    lone ``\\r`` between fields, integers beyond int64) or raise the error
    that names the line. Blank lines are skipped; a blank block gives no
    rows.
    """
    if not block.isascii():
        return None
    text = block if isinstance(block, str) else block.decode("ascii")
    if not text or text.isspace():
        # loadtxt warns on input with no rows.
        return np.empty(0, dtype)
    try:
        return np.loadtxt(text.split("\n"), dtype=dtype, delimiter=delimiter,
                          comments=None, ndmin=1)
    except ValueError:
        return None


def write_text(sink, text: str) -> None:
    """Write a string to either a text or a binary sink."""
    try:
        sink.write(text)
    except TypeError:
        sink.write(text.encode("utf-8"))


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
