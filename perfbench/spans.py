"""In-memory span recorder for the traced benchmark run.

The traced run rebinds public despeckle functions in the module namespace
where their caller looks them up (``despeckle.harness.compute_report``,
``despeckle.nmfilter.solve_looks``, ...).  Every wrapped call records one
span: name, start, end, parent span, unit id, thread and a few counts.
Spans stay in a list until the run ends; ``restore`` puts the original
functions back.

A call made on a worker thread whose own stack is empty takes as parent
the innermost span open on the main thread, which is the call that owns
the thread pool (``run_protocol`` or ``filter_image``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Span:
    __slots__ = ("id", "name", "parent", "unit", "thread", "start", "end", "attrs")

    def __init__(self, sid, name, parent, unit, attrs):
        self.id = sid
        self.name = name
        self.parent = parent
        self.unit = unit
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.attrs = attrs

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = None
        self._ids = itertools.count(1)
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, **attrs):
        stack = self._stack()
        owner = stack or self._main_stack
        span = Span(next(self._ids), name, owner[-1].id if owner else None, self.unit, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def install(self, targets):
        """Rebind each (module, attribute, span name, around) target.

        ``around(span, fn, args, kwargs)`` makes the call and may store
        counts in ``span.attrs``; None means a plain call.
        """
        for module, attr, name, around in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, around))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, around):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(span, fn, args, kwargs)
            finally:
                self.close(span)

        return wrapper

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")


class CountingStream:
    """Delegates to a numpy Generator and tallies the uniform blocks drawn.

    The Gamma sampler draws one ``random((3, k))`` block per round for its
    k pending slots, so the sum of k is the number of candidates tried.
    """

    def __init__(self, stream):
        self._stream = stream
        self.candidates = 0

    def random(self, size=None, *args, **kwargs):
        if isinstance(size, tuple) and len(size) == 2 and size[0] == 3:
            self.candidates += size[1]
        return self._stream.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def covered_time(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total
