"""Traced mode: self-time spans around each layer's public functions.

The spans are recorded from the benchmark's own files.  Each layer
function is wrapped where its caller looks it up: a method on its class
(``Pipeline.run`` binds ``self.stage_*``, so wrapping the class attribute
reaches the run loop), a function in the module that imported it by name
(``repro.perf.sample.replay_warm_events``).  Nothing under ``src/``
changes, and :meth:`Tracer.unpatch` restores every original.

Every span records *self time*: its calls' wall time minus the spans
nested inside them.  The time no span covers is the named residual
``trace.residual_s``, so the span totals plus the residual add up to the
traced wall time exactly.  The tracer is for single-threaded code: the
benchmark runs every traced layer on its main thread.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        #: name -> [self seconds, calls]
        self.cells = {}
        #: name -> accumulated count (cycles, bytes, instructions ...)
        self.counts = {}
        # Child-time accumulator per open span; slot 0 collects the time
        # covered by top-level spans.
        self._stack = [0.0]
        self._patches = []

    def _cell(self, name):
        return self.cells.setdefault(name, [0.0, 0])

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, on_result=None, leaf=False):
        """*fn* timed as span *name*.

        *leaf* spans (the per-cycle pipeline stages) nest no other span,
        so they skip the child accumulator; *on_result(tracer, result)*
        turns a call's return value into counts.
        """
        cell = self._cell(name)
        stack = self._stack
        clock = time.perf_counter
        if leaf:
            def traced(*args):
                start = clock()
                try:
                    return fn(*args)
                finally:
                    elapsed = clock() - start
                    cell[0] += elapsed
                    cell[1] += 1
                    stack[-1] += elapsed
            return traced

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                stack[-1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def patch(self, owner, attr, name, on_result=None, leaf=False):
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced form."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr,
                self.wrap(name, original, on_result=on_result, leaf=leaf))
        self._patches.append((owner, attr, original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        """Time a block of the benchmark's own code as span *name*."""
        cell = self._cell(name)
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed

    def calls(self, name):
        return self.cells.get(name, (0.0, 0))[1]

    def split(self, wall_s):
        """``{span: self seconds}`` plus ``trace.residual_s`` for a traced
        wall time of *wall_s*; the values sum to *wall_s*."""
        if len(self._stack) != 1:
            raise RuntimeError("split() with %d spans still open"
                               % (len(self._stack) - 1))
        out = {name: cell[0] for name, cell in self.cells.items()}
        out["trace.residual_s"] = wall_s - self._stack[0]
        return out


class NullTracer:
    """The untraced run's stand-in: spans cost one no-op ``with``."""

    @contextmanager
    def span(self, name):
        yield
