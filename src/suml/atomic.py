"""Output files and directories: all-or-nothing writes with typed errors."""

from __future__ import annotations

import contextlib
import csv
import os
import shutil

from .exceptions import DatasetIOError


def make_dirs(path) -> None:
    """Create ``path`` and its parents; an unusable path is a DatasetIOError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DatasetIOError(f"cannot create output directory {path}: {exc}") from exc


@contextlib.contextmanager
def output_dir(path):
    """Create ``path`` (None: nothing) for the body to fill, as ``make_dirs`` does.

    If the body raises, the directories created here go, with what they hold.
    """
    if path is None:
        yield
        return
    top = os.path.abspath(path)  # the outermost directory this call creates
    while not os.path.exists(os.path.dirname(top)):
        top = os.path.dirname(top)
    existed = os.path.exists(top)
    make_dirs(path)
    try:
        yield
    except BaseException:
        if not existed:
            shutil.rmtree(top, ignore_errors=True)
        raise


def write_files(outputs) -> None:
    """Write every ``(path, write)`` of ``outputs``, or none of them.

    ``write(fh)`` fills ``path.tmp`` for each output first; only once all are
    filled is each renamed over its path, in order.  Lines end in ``\\n`` on
    every platform.  On any failure the temp files are removed and so are the
    paths already renamed, so no output is left behind (an old file already
    replaced is gone too); an OSError is raised as DatasetIOError naming the
    path it failed on.
    """
    outputs = list(outputs)
    made = []  # every temp file opened and every path renamed over
    path = None
    try:
        try:
            for path, write in outputs:
                made.append(f"{path}.tmp")
                with open(f"{path}.tmp", "w", newline="") as fh:
                    write(fh)
            for path, _ in outputs:
                os.replace(f"{path}.tmp", path)
                made.append(path)
        except BaseException:
            for name in made:
                with contextlib.suppress(OSError):
                    os.remove(name)
            raise
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc


def write_atomic(path, write) -> None:
    """Fill ``path.tmp`` with ``write(fh)``, then rename it over ``path``: the
    one-file case of :func:`write_files`, so ``path`` is either the complete new
    file or untouched."""
    write_files([(path, write)])


def dump_csv(header, rows, fh) -> None:
    """Write ``header`` and ``rows`` (an iterable, a generator too) to ``fh`` as
    CSV; lines end in ``\\r\\n``, the csv module's excel dialect."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(path, header, rows) -> None:
    """:func:`dump_csv` to ``path`` through :func:`write_atomic`."""
    write_atomic(path, lambda fh: dump_csv(header, rows, fh))
