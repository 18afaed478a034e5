"""Real-time spans recorded from outside the program.

The benchmark never edits ``src/``.  It measures each layer by wrapping
the layer's public entry points where their callers look them up (a
module attribute, or a method on a class) and restoring the originals
afterwards.  Every wrapped call becomes a span ``(id, name, start, end,
parent, query)``; a layer's *self* time is its span's duration minus the
time its direct child spans cover, so the self times of all spans under
one root sum to the root's duration.

Two span names are merged instead of stored one per call, to keep the
span list small: ``executor.execute`` (one ``next()`` on a query's
executor coroutine; consecutive calls under the same parent become one
span per scheduler slice) and ``core.indicator.tick`` (virtual-clock
ticker callbacks, merged the same way).  Their totals still count every
call.

Nothing here feeds back into the program: the wrappers call through with
the same arguments and return the same values, so the virtual-time
signature of a traced pass equals that of an untraced one (the benchmark
checks this on every traced run).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Optional

_clock = time.perf_counter

#: Span names stored once per parent run of consecutive calls.
MERGED = frozenset({"executor.execute", "core.indicator.tick"})


class _Frame:
    __slots__ = ("span", "start", "child_s", "last_name", "last_span")

    def __init__(self, span: Optional[list], start: float) -> None:
        self.span = span
        self.start = start
        self.child_s = 0.0
        self.last_name: Optional[str] = None
        self.last_span: Optional[list] = None


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        #: Stored spans: ``[id, name, start, end, parent_id, query]``.
        self.spans: list[list] = []
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        self.query: Optional[str] = None
        self._stack: list[_Frame] = [_Frame(None, _clock())]
        self._next_id = 1

    # ------------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1]
        now = _clock()
        span = None
        if name in MERGED and parent.last_name == name:
            span = parent.last_span
        if span is None:
            parent_id = None if parent.span is None else parent.span[0]
            span = [self._next_id, name, now, now, parent_id, self.query]
            self._next_id += 1
            self.spans.append(span)
        parent.last_name = name
        parent.last_span = span
        frame = _Frame(span, now)
        self._stack.append(frame)
        return frame

    def exit(self) -> None:
        frame = self._stack.pop()
        now = _clock()
        duration = now - frame.start
        span = frame.span
        span[3] = now
        totals = self.totals.get(span[1])
        if totals is None:
            totals = self.totals[span[1]] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame.child_s
        parent = self._stack[-1]
        parent.child_s += duration
        if span[1] not in MERGED:
            # A different span closed in between: the next executor or
            # tick call under this parent starts a new merged span.
            parent.last_name = span[1]

    # ------------------------------------------------------------------

    @property
    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent span."""
        return self._stack[0].child_s

    def self_seconds(self, name: str) -> float:
        entry = self.totals.get(name)
        return 0.0 if entry is None else entry[2]

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return 0 if entry is None else entry[0]

    def write(self, path) -> None:
        """Write every stored span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, query in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")


class _TimedCoroutine:
    """A query's executor coroutine whose every resumption is a span.

    The scheduler only calls ``next()`` and ``close()`` on it.
    """

    __slots__ = ("_inner", "_tracer", "first_next_at")

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        #: Real instant of the first resumption (the query's first slice).
        self.first_next_at: Optional[float] = None

    def __iter__(self):
        return self

    def __next__(self):
        if self.first_next_at is None:
            self.first_next_at = _clock()
        tracer = self._tracer
        tracer.enter("executor.execute")
        try:
            return next(self._inner)
        finally:
            tracer.exit()

    def close(self) -> None:
        self._inner.close()


class Instrumentation:
    """Installs span wrappers on the program's public entry points.

    Use as a context manager around one traced pass; leaving it restores
    every original attribute.  Besides spans it keeps the live-ticker
    count of the virtual clock (``add_ticker`` minus cancels).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.live_tickers = 0
        self.tickers_peak = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str) -> None:
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()

            return wrapper

        self._patch(owner, attr, make)

    def __enter__(self) -> "Instrumentation":
        import repro.core.indicator as indicator_mod
        import repro.core.segments as segments_mod
        import repro.database as database_mod
        import repro.executor.fused as fused_mod
        import repro.sched.policy as policy_mod
        import repro.sched.scheduler as scheduler_mod
        import repro.service.admission as admission_mod
        import repro.service.service as service_mod
        import repro.service.shedding as shedding_mod
        import repro.sim.clock as clock_mod
        import repro.sql.binder as binder_mod
        import repro.planner.optimizer as optimizer_mod
        import repro.storage.buffer as buffer_mod
        import repro.storage.disk as disk_mod

        tracer = self.tracer
        # sql / planner: Database.prepare looks parse_select up in
        # repro.database's namespace; bind and plan are methods.
        self._span(database_mod, "parse_select", "sql.parse")
        self._span(binder_mod.Binder, "bind", "sql.bind")
        self._span(optimizer_mod.Optimizer, "plan", "planner.optimize")
        self._span(database_mod.Database, "analyze", "catalog.analyze")
        # core: segment building is called by admission (service) and by
        # the indicator, each through its own module namespace.
        for mod in (service_mod, indicator_mod, segments_mod):
            self._span(mod, "build_segments", "core.segments")
        self._span(indicator_mod.ProgressIndicator, "__init__", "core.indicator.init")
        for attr in ("finalize", "abort"):
            self._span(indicator_mod.ProgressIndicator, attr, "core.indicator.finalize")
        # executor: fused-plan codegen + compile(), and every resumption
        # of the coroutine the scheduler drives.
        self._span(fused_mod.FusedQuery, "__init__", "executor.fused.compile")

        def make_execute(original):
            @functools.wraps(original)
            def execute(*args, **kwargs):
                return _TimedCoroutine(original(*args, **kwargs), tracer)

            return execute

        self._patch(scheduler_mod, "execute", make_execute)
        # storage
        self._span(buffer_mod.BufferPool, "get_page", "storage.buffer")
        for attr in ("read_page", "append_page", "write_page"):
            self._span(disk_mod.SimulatedDisk, attr, "storage.disk")
        # sched
        self._span(scheduler_mod.CooperativeScheduler, "step", "sched.step")
        for cls in _policy_classes(policy_mod.SchedulingPolicy):
            if "choose" in cls.__dict__:
                self._patch(cls, "choose", self._make_choose)
        # service
        self._span(service_mod.QueryService, "step", "service.step")
        self._patch(service_mod.QueryService, "submit", self._make_submit)
        self._span(admission_mod.AdmissionController, "decide", "service.admission")
        self._span(shedding_mod.SheddingPolicy, "evaluate", "service.shedding")
        # sim: ticker callbacks become spans; live tickers are counted.
        self._patch(clock_mod.VirtualClock, "add_ticker", self._make_add_ticker)
        self._patch(clock_mod.Ticker, "cancel", self._make_cancel)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def _make_choose(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def choose(policy, runnable):
            tracer.enter("sched.policy")
            try:
                task = original(policy, runnable)
            finally:
                tracer.exit()
            # Spans until the next pick belong to the sliced query.
            tracer.query = task.name
            return task

        return choose

    def _make_submit(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def submit(service, query, **kwargs):
            tracer.query = kwargs.get("name")
            tracer.enter("service.submit")
            try:
                return original(service, query, **kwargs)
            finally:
                tracer.exit()

        return submit

    def _make_add_ticker(self, original):
        tracer = self.tracer
        inst = self

        @functools.wraps(original)
        def add_ticker(clock, interval, callback, first=None):
            def timed(t):
                tracer.enter("core.indicator.tick")
                try:
                    callback(t)
                finally:
                    tracer.exit()

            inst.live_tickers += 1
            inst.tickers_peak = max(inst.tickers_peak, inst.live_tickers)
            return original(clock, interval, timed, first)

        return add_ticker

    def _make_cancel(self, original):
        inst = self

        @functools.wraps(original)
        def cancel(ticker):
            if ticker.active:
                inst.live_tickers -= 1
            original(ticker)

        return cancel


def _policy_classes(base: type) -> list[type]:
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_policy_classes(sub))
    return found
