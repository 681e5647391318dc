"""Span and count recorder that wraps package functions from outside.

A span records a name, its start and end (``perf_counter_ns``) and the span
open when it started.  Self time is the span's duration minus the time its
child spans cover.  Counts are added by per-function hooks at the same
boundaries, so ratios such as similarities per second are measured where the
work happens.

The package binds many functions by value (``from .model import
encode_batch``), so patching only the defining module would miss those calls.
``Tracer.install`` replaces the function object under every name that refers
to it in every loaded module of the package, and ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter


class _Span:
    __slots__ = ("ident", "parent", "name", "module", "args", "start", "child_ns")

    def __init__(self, ident, parent, name, module, args, start):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.module = module
        self.args = args
        self.start = start
        self.child_ns = 0


class Tracer:
    """Records spans around wrapped functions; one tracer per traced iteration."""

    def __init__(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.errors = Counter()  # exceptions leaving a layer, keyed by module
        self.counts = Counter()  # work counters filled by hooks
        self.spans = []  # (id, parent id or -1, name, start ns, end ns)
        self._open = []
        self._ids = itertools.count()
        self._patched = []

    def _wrap(self, fn, name, module, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open
            parent = opened[-1] if opened else None
            span = _Span(next(tracer._ids), parent, name, module, args,
                         time.perf_counter_ns())
            opened.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, span, result)
                return result
            except BaseException:
                if parent is None or parent.module != module:
                    tracer.errors[module] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                opened.pop()
                duration = end - span.start
                tracer.self_ns[name] += duration - span.child_ns
                tracer.calls[name] += 1
                if parent is not None:
                    parent.child_ns += duration
                tracer.spans.append(
                    (span.ident, parent.ident if parent else -1, name, span.start, end)
                )

        return traced

    def install(self, package, targets):
        """Wrap ``targets`` = {"module.function": hook or None} inside ``package``.

        A hook runs after a call returns, as ``hook(tracer, span, result)``;
        ``span.args`` holds the positional arguments.  Every loaded
        ``package.*`` module attribute bound to the original function object
        is replaced, so by-value imports are traced too.
        """
        prefix = package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(prefix))]
        for qualname, hook in targets.items():
            module_name, func_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules[prefix + module_name], func_name)
            wrapper = self._wrap(original, qualname, module_name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for ident, parent, name, start, end in sorted(self.spans):
                fh.write(f"{ident},{parent},{name},{start},{end}\n")
