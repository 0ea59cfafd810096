"""Spans recorded from outside the program.

A :class:`Tracer` keeps spans (name, start, end, parent) in memory. The
benchmark opens spans around its own calls into the program, and
:meth:`Tracer.wrap` replaces a public function or method with one that opens
a span around the original, so that calls the program makes internally are
seen too. :meth:`Tracer.restore` puts the originals back.

The untraced run uses :class:`NullTracer`, whose spans cost one
``nullcontext`` and which wraps nothing.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        pass

    def restore(self) -> None:
        pass


class Tracer:
    """In-memory span recorder; a span's self time excludes its children."""

    enabled = True

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, list] = defaultdict(lambda: [0.0, 0])

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(result)``, when given, runs once the span has ended; it may
        record counts, and a string it returns is appended to the span's
        name (for example the insertion kind).
        """
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._end(i)
            if after is not None:
                suffix = after(out)
                if suffix is not None:
                    tracer.spans[i][0] = f"{name}_{suffix}"
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def count(self, name: str, value: float) -> None:
        """Add one sample of a work count."""
        c = self.counts[name]
        c[0] += value
        c[1] += 1

    def mean_count(self, name: str) -> float:
        total, n = self.counts.get(name, (0.0, 0))
        return total / n if n else 0.0

    # -- summaries -----------------------------------------------------------
    def self_times(self, parent: str | None = None) -> dict[str, tuple[float, int]]:
        """name -> (total self time in s, number of spans).

        With ``parent``, only spans whose direct parent has that name count.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, p in self.spans:
            if p >= 0:
                child[p] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, t0, t1, p) in enumerate(self.spans):
            if parent is not None and (p < 0 or self.spans[p][0] != parent):
                continue
            out[name][0] += t1 - t0 - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p}
            for n, t0, t1, p in self.spans
        ]
