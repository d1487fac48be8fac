"""Output files: CSV text made in row blocks, and one commit for every output.

No output is held whole. `_csv_blocks` yields a CSV's text _CSV_BLOCK_ROWS
rows at a time, and `_commit` writes each block (CSV text, or a WAV's bytes)
to a temporary sibling as it is made, moving the siblings into place only
once every output is whole. Where a whole str is wanted, it is the "".join
of the same blocks, so its bytes are those of the file.
"""

from __future__ import annotations

import csv
import errno
import io
import os
from itertools import islice
from pathlib import Path

# CSV rows formed at a time: about 90 kB of a nasalance track's text
_CSV_BLOCK_ROWS = 4096


def _csv_blocks(header, lines):
    """Yield CSV text: the `header` names joined by commas, then `lines`
    (each one row, ending in a newline) in str blocks of _CSV_BLOCK_ROWS."""
    yield ",".join(header) + "\n"
    lines = iter(lines)
    while block := "".join(islice(lines, _CSV_BLOCK_ROWS)):
        yield block


def _array_rows(*columns):
    """Rows of Python scalars from equal-length 1-D arrays, each array's
    items converted _CSV_BLOCK_ROWS at a time."""
    for a in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        yield from zip(*[c[a : a + _CSV_BLOCK_ROWS].tolist() for c in columns])


def _quoted(rows):
    """Each row (a sequence of fields) as one RFC 4180 line: fields holding
    commas, quotes or newlines are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _commit(outputs) -> None:
    """Write every (path, blocks) of `outputs`, or none of them.

    `blocks` is an iterable of str blocks, written as UTF-8, or of
    bytes-like ones; each is written as soon as it is made, so a block may
    reuse the buffer of the one before. Each output is written to a
    temporary sibling first, and the temporaries are moved into place only
    once all are written; on a failure, one raised while a block is made
    included, they are removed, so no output is left half written or
    beside another run's. Two outputs that resolve to one file are refused
    before anything is written, and an error opening an output names the
    path asked for, not its temporary.
    """
    outputs = [(Path(path), blocks) for path, blocks in outputs]
    targets = {}
    for path, _ in outputs:
        if path.is_dir():  # os.replace would fail only after earlier moves
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        other = targets.setdefault(path.resolve(), path)
        if other is not path:
            raise ValueError(f"outputs {other} and {path} are the same file")
    moves = []
    try:
        for path, blocks in outputs:
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                fh = open(tmp, "xb")
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            with fh:
                moves.append(tmp)
                for block in blocks:
                    fh.write(block.encode("utf-8") if isinstance(block, str) else block)
        for tmp, (path, _) in zip(moves, outputs):
            os.replace(tmp, path)
    finally:
        for tmp in moves:
            tmp.unlink(missing_ok=True)
