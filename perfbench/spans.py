"""In-memory spans recorded around the program's public entry points.

Wrapping replaces an attribute on an object the benchmark holds (an
engine, a router, a worker pool, a cache) or on a module, never the
program's files.  Each span records its name, start, end, parent span
and request id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field

_current = contextvars.ContextVar("perfbench_span", default=None)
_request = contextvars.ContextVar("perfbench_request", default=None)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    args: tuple = ()
    result: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        edge = self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, edge), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return self.duration - covered


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._undo: list = []

    def _open(self, name, args, new_request):
        parent = _current.get()
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=parent.id if parent else None, args=args)
        if new_request:
            span.request = next(self._requests)
        else:
            span.request = _request.get()
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span, _current.set(span), _request.set(span.request)

    @staticmethod
    def _close(span, tokens, result):
        span.end = time.perf_counter()
        span.result = result
        _current.reset(tokens[0])
        _request.reset(tokens[1])

    def wrap(self, owner, attr: str, name: str, *, new_request=False,
             keep_args=False) -> None:
        fn = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span, *tokens = recorder._open(
                    name, args if keep_args else (), new_request)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    recorder._close(span, tokens, result if keep_args else None)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, *tokens = recorder._open(
                    name, args if keep_args else (), new_request)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    recorder._close(span, tokens, result if keep_args else None)

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def call(self, name: str, fn, *args, **kwargs):
        """Call *fn* inside a span named *name*."""
        span, *tokens = self._open(name, (), False)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, tokens, None)

    def unwrap_all(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end]

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        out: dict = {}
        for s in self.spans:
            if s.end:
                out[s.name] = out.get(s.name, 0.0) + s.self_time()
        return out


_MISSING = object()
