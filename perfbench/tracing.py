"""Spans recorded from the benchmark's side of each layer boundary.

The program under test is not instrumented: :class:`Tracer` replaces
public entry points *on the instances the benchmark built* with wrappers
that record a span around each call.  Spans carry a trace id (one per
request, or per round for the dynamic workload) and the id of the span
that caused them, are kept in memory, and are written out once when the
run ends.

Parent links come from a context variable: asyncio tasks inherit the
submitting request's span, and a worker thread sees the span it opened
itself.  Work that crosses from the event loop to a shard worker thread
is linked through the request's subgraph object, which the benchmark
makes unique per request.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One timed call across a layer boundary."""

    span_id: int
    name: str
    #: Request (or round) this span serves; ``None`` for background work
    #: such as a dispatch-table merge.
    trace: int | None
    parent: int | None
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # id(subgraph) -> root span of the request carrying it.
        self._requests: dict[int, Span] = {}
        # id(subgraph) -> perf_counter when the pool enqueued it.
        self._enqueued: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def new_trace(self) -> int:
        with self._lock:
            return next(self._ids)

    def open(self, name: str, *, trace: int | None = None,
             parent: Span | None = None, **attrs) -> Span:
        """Start a span.  Without ``trace`` it is a child of the current
        span; with one, ``parent`` is taken as given (``None``: a root)."""
        if trace is None:
            parent = _CURRENT.get()
            trace = parent.trace if parent is not None else None
        return Span(
            span_id=self.new_trace(),
            name=name,
            trace=trace,
            parent=parent.span_id if parent is not None else None,
            start=time.perf_counter(),
            thread=threading.current_thread().name,
            attrs=attrs,
        )

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def current(self, span: Span):
        """Make ``span`` the parent of spans opened inside, then close it."""
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            self.close(span)

    def round(self, name: str):
        """A root span with a fresh trace id (the dynamic workload's round)."""
        return self.current(self.open(name, trace=self.new_trace()))

    def _wrap(self, owner, method: str, name: str, before=None) -> None:
        original = getattr(owner, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            if before is not None:
                before(span, args)
            with self.current(span):
                return original(*args, **kwargs)

        setattr(owner, method, wrapper)

    # ------------------------------------------------------------------ #
    # Layer boundaries
    # ------------------------------------------------------------------ #
    def wrap_gateway(self, gateway) -> None:
        """``ServingGateway.submit``: one root span (new trace) per request."""
        original = gateway.submit

        @functools.wraps(original)
        async def submit(subgraph, **kwargs):
            span = self.open(
                "gateway.submit", trace=self.new_trace(),
                lane=kwargs.get("lane", "interactive"),
            )
            self._requests[id(subgraph)] = span
            try:
                with self.current(span):
                    return await original(subgraph, **kwargs)
            finally:
                self._requests.pop(id(subgraph), None)
                self._enqueued.pop(id(subgraph), None)

        gateway.submit = submit

    def wrap_pool(self, pool) -> None:
        """``ServingPool.submit`` and ``merge_dispatch_tables``, plus each
        shard engine's ``infer``, ``packed_adjacency_for`` and
        ``plan_for``."""

        def enqueued(span, args):
            self._enqueued[id(args[0])] = span.start

        self._wrap(pool, "submit", "pool.submit", before=enqueued)
        self._wrap(pool, "merge_dispatch_tables", "pool.merge")
        for engine in pool.workers:
            self._wrap_engine(engine)

    def _wrap_engine(self, engine) -> None:
        original = engine.infer

        @functools.wraps(original)
        def infer(subgraphs):
            members = list(subgraphs)
            roots = [self._requests.get(id(s)) for s in members]
            first = next((r for r in roots if r is not None), None)
            span = self.open(
                "engine.infer",
                trace=first.trace if first is not None else None,
                parent=first,
                worker=engine.label,
                traces=[r.trace for r in roots if r is not None],
            )
            # Each member's wait from enqueue to this round.
            for subgraph, root in zip(members, roots):
                enqueued = self._enqueued.get(id(subgraph))
                if root is not None and enqueued is not None:
                    wait = self.open("pool.queue", trace=root.trace, parent=root)
                    wait.start = enqueued
                    self.close(wait, end=span.start)
            phases_before = dict(engine.stats.phase_seconds)
            with self.current(span):
                try:
                    return original(members)
                finally:
                    span.attrs["phases"] = {
                        phase: seconds - phases_before.get(phase, 0.0)
                        for phase, seconds in engine.stats.phase_seconds.items()
                    }

        engine.infer = infer
        self._wrap(engine, "packed_adjacency_for", "engine.adjacency")
        self._wrap(engine, "plan_for", "plan.plan_for")

    def wrap_dynamic(self, session) -> None:
        """``DynamicSession.mutate`` and ``serve``."""
        self._wrap(session, "mutate", "dynamic.mutate")
        self._wrap(session, "serve", "dynamic.serve")

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        """Span id -> the spans it caused."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
