"""Output files and directories: all-or-nothing writes with typed errors."""

from __future__ import annotations

import contextlib
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


def write_atomic(path, write) -> None:
    """Fill ``path.tmp`` with ``write(fh)``, then rename it over ``path``.

    Lines end in ``\\n`` on every platform.  On any failure the ``.tmp`` file
    is removed, so ``path`` is either the complete new file or untouched; an
    OSError is raised as DatasetIOError.
    """
    tmp = f"{path}.tmp"
    try:
        try:
            with open(tmp, "w", newline="") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc
