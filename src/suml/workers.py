"""The process layer: ``_map_forked`` runs independent items (stage 1 and the grid's
cells, each seed's final scoring, the gradient suite's instances) in up to one process
per usable CPU, and ``_Worker`` is one forked child, as a scored stage keeps for its
scorer.  On one usable CPU (``taskset -c 0``) nothing is forked."""

from __future__ import annotations

import os
import pickle

from .exceptions import WorkerError

_SIGKILL = 9  # signal.SIGKILL, without importing ``signal``


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """A forked child that answers each pickled request, in order, with
    ``(ok, fn(request) or its exception)`` and stops after its first failure,
    as the serial loop would, or once the requests are closed and answered.
    ``fn`` need not pickle; requests, results and exceptions must.  Every path
    of the child ends in ``os._exit``: no frame of its caller (an
    ``output_dir`` cleanup, a test fixture) unwinds in it.

    ``_map_forked`` sends each worker its item indices up front.  A scored
    stage's scorer (``pipeline._train_stage``) gets one request per epoch, a
    copy of every scored stack's ``params``, and scores epoch e, bitwise as
    inline, while epoch e + 1 trains.  Each caller reaps its workers on every
    path, so no child outlives the call that forked it.
    """

    def __init__(self, fn):
        fds = []
        try:
            fds += os.pipe()  # the requests
            fds += os.pipe()  # the replies
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise WorkerError(f"cannot start a worker process: {exc}") from exc
        request_read, request_write, reply_read, reply_write = fds
        if self.pid == 0:
            code = 1
            try:
                os.close(request_write)  # open here, it would keep the end of file away
                os.close(reply_read)
                with os.fdopen(request_read, "rb") as requests, \
                        os.fdopen(reply_write, "wb") as replies:
                    while requests.peek(1):
                        try:
                            ok, value = True, fn(pickle.load(requests))
                        except BaseException as exc:
                            ok, value = False, exc
                        replies.write(pickle.dumps((ok, value)))
                        replies.flush()
                        if not ok:
                            break
                code = 0
            finally:
                os._exit(code)
        os.close(request_read)
        os.close(reply_write)
        self._requests = os.fdopen(request_write, "wb", buffering=0)
        self._replies = os.fdopen(reply_read, "rb")
        self._how = None  # how the child ended, once reaped

    def send(self, *requests) -> None:
        """Pickle ``requests`` to the child; a signal can cut a write short."""
        data = memoryview(b"".join(map(pickle.dumps, requests)))
        try:
            while data:
                data = data[self._requests.write(data):]
        except BrokenPipeError:  # the child has ended: ``reply`` says why
            pass

    def close(self) -> None:
        """Send no more requests: the child ends once it has answered every one."""
        self._requests.close()

    def reply(self, what: str):
        """``(ok, result or exception)`` of the oldest unanswered request; a child
        that ended without it is reaped and raises ``WorkerError`` naming ``what``."""
        try:
            return pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):  # the child exited or died
            raise WorkerError(f"the worker process {what} ended without its result "
                              f"({self.reap()})") from None

    def reap(self) -> str:
        """Kill and reap the child, close the parent's pipe ends and say how the
        child ended; a child that had already ended keeps its status."""
        if self._how is None:
            os.kill(self.pid, _SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self._requests.close()
            self._replies.close()
            self._how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return self._how


def _map_forked(fn, items, what) -> list:
    """``[fn(item) for item in items]``, in up to one process per usable CPU.

    The parent is one of ``W = min(len(items), _usable_cpus())`` workers and
    runs items 0, W, 2W, ...; each of the W - 1 forked children (``_Worker``)
    runs its own stride, so with W = 1 nothing is forked.  The exception of
    the lowest failing index is raised, the one the serial loop raises first; a
    child that ends without the result it owes raises ``WorkerError`` naming
    ``what(item)`` (say, "training cell ...") and how the child ended.  The
    parent reads each child's replies up to the lowest failure before it reaps
    the child, and no child outlives the call: once the results below the
    lowest failure are in, or the parent itself is interrupted, every child
    still running is killed and reaped.
    """
    n = len(items)
    workers = max(1, min(n, _usable_cpus()))
    results, failures = [None] * n, {}  # failures: item index -> exception
    children = []  # the child of each stride but the parent's
    try:
        for first in range(1, workers):
            children.append(_Worker(lambda i: fn(items[i])))
            children[-1].send(*range(first, n, workers))
            children[-1].close()  # before the next fork, so no other child holds it open
        for i in range(0, n, workers):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                failures[i] = exc
                break
        for i, child in enumerate(children, start=1):
            try:
                while i < min(failures, default=n):  # the child's items arrive in order
                    ok, value = child.reply(what(items[i]))
                    if ok:
                        results[i] = value
                    else:
                        failures[i] = value
                    i += workers
            except WorkerError as exc:  # the child ended without the result it owes
                failures[i] = exc
            child.reap()  # whatever it still runs is past a failure
        if failures:
            raise failures[min(failures)]
        return results
    finally:
        for child in children:
            child.reap()
