"""The virtual clock that drives every experiment.

Operators charge *costs* (simulated seconds of work in a resource class);
the clock converts cost into elapsed virtual wall time by integrating the
active :class:`~repro.sim.load.LoadProfile` piecewise.  Registered
:class:`Ticker` callbacks fire at exact periodic instants, even when those
instants fall inside a single large ``advance`` — that is how the progress
indicator samples its state every 10 simulated seconds regardless of what
the executor happens to be doing.

``advance`` is the hottest operation in the engine (one call per page
I/O and per tuple), so it keeps a precomputed fast path: when the step
stays strictly before the next "event" (ticker firing or load-profile
boundary) it is a dict charge, a multiply and a compare.  The fused
engine inlines exactly that fast path into its generated loops
(:mod:`repro.executor.fused`) and calls ``_advance_slow`` only when a
step reaches the next event.

Event dispatch costs O(log n) in the number of live tickers: active
tickers sit in a binary heap keyed ``(next_fire, registration order)``.
Cancelling a ticker only marks it inactive; its heap entry, like the
entry a firing ticker leaves behind when it is rescheduled, is dropped
lazily when it reaches the top.  The next event is the heap top (or the
next load boundary, if earlier), so neither registering a ticker nor
dispatching one scans the others.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Optional

from repro.sim.load import CPU, IO, LoadProfile

_EPSILON = 1e-12
_BY_SEQ = attrgetter("seq")


class Ticker:
    """A periodic callback registered on a :class:`VirtualClock`."""

    __slots__ = ("interval", "callback", "next_fire", "active", "seq")

    def __init__(
        self,
        interval: float,
        callback: Callable[[float], None],
        first: float,
        seq: int,
    ):
        if interval <= 0:
            raise ValueError("ticker interval must be positive")
        self.interval = interval
        self.callback = callback
        self.next_fire = first
        self.active = True
        #: Registration order on the owning clock (breaks firing ties).
        self.seq = seq

    def cancel(self) -> None:
        """Stop this ticker from firing again."""
        self.active = False


class VirtualClock:
    """Simulated wall clock with load-aware cost accounting.

    Parameters
    ----------
    load:
        The system-load profile.  ``None`` means an unloaded system.
    """

    def __init__(self, load: Optional[LoadProfile] = None):
        self.now = 0.0
        self._load = load or LoadProfile.unloaded()
        #: Timer queue: a heap of ``(next_fire, seq, ticker)`` entries.
        #: Each active ticker has exactly one entry whose key equals its
        #: ``next_fire``; other entries are stale and dropped lazily.
        self._timers: list[tuple[float, int, Ticker]] = []
        #: Registration counter: the next ticker's ``seq``.
        self._ticker_seq = 0
        #: Cumulative raw cost charged per resource class (load-independent).
        self.cost_charged = {IO: 0.0, CPU: 0.0}
        #: Re-entrancy guard: a ticker callback that observes the clock
        #: (sampling another query's indicator, emitting trace events)
        #: must not recursively re-fire tickers mid-dispatch.
        self._firing = False
        self._refresh_factors()

    # ------------------------------------------------------------------
    # configuration

    @property
    def load(self) -> LoadProfile:
        return self._load

    def set_load(self, load: LoadProfile) -> None:
        """Replace the load profile (takes effect immediately)."""
        self._load = load
        self._refresh_factors()

    def add_ticker(
        self,
        interval: float,
        callback: Callable[[float], None],
        first: Optional[float] = None,
    ) -> Ticker:
        """Register ``callback(now)`` to fire every ``interval`` seconds.

        ``first`` sets the first firing instant; it defaults to
        ``now + interval``.
        """
        first_fire = self.now + interval if first is None else first
        ticker = Ticker(interval, callback, first_fire, self._ticker_seq)
        self._ticker_seq += 1
        heappush(self._timers, (first_fire, ticker.seq, ticker))
        self._refresh_factors()
        return ticker

    # ------------------------------------------------------------------
    # advancing time

    def advance(self, cost: float, resource: str = CPU) -> None:
        """Charge ``cost`` simulated seconds of ``resource`` work.

        Elapsed virtual wall time is ``cost`` scaled by the load factor(s)
        active along the way; ticker callbacks fire at their exact instants.
        """
        if cost < 0:
            raise ValueError("cannot charge negative cost")
        if cost == 0:
            return
        self.cost_charged[resource] += cost
        # Fast path: the whole step fits before the next event.
        factor = self._factors[resource]
        end = self.now + cost * factor
        if end < self._next_event:
            self.now = end
            return
        self._advance_slow(cost, resource)

    def advance_wall(self, seconds: float) -> None:
        """Advance pure wall time (idle waiting); fires tickers on the way."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        target = self.now + seconds
        while True:
            event = self._next_event
            if event >= target:
                self.now = target
                return
            self.now = event
            self._fire_due()
            self._refresh_factors()

    def _advance_slow(self, cost: float, resource: str) -> None:
        remaining = cost
        while remaining > _EPSILON:
            factor = self._factors[resource]
            event = self._next_event
            wall_needed = remaining * factor
            if self.now + wall_needed < event:
                self.now += wall_needed
                return
            # Consume work up to the event boundary, then handle the event.
            wall_step = event - self.now
            remaining -= wall_step / factor
            self.now = event
            self._fire_due()
            self._refresh_factors()

    # ------------------------------------------------------------------
    # internals

    def _fire_due(self) -> None:
        """Fire all active tickers whose next_fire time has arrived.

        Due tickers fire in registration order, each catching up on all
        of its due instants before the next one fires.  Tickers
        registered by a callback wait for the next dispatch.  The loop
        refuses to recurse: a callback that advances the clock (directly
        or through code it calls) defers newly-due tickers to the
        in-flight dispatch loop rather than nesting a second one; the
        in-flight loop then also fires the not-yet-visited tickers that
        the clock's move made due.
        """
        if self._firing:
            return
        self._firing = True
        try:
            limit = self._ticker_seq  # registered from here on: next dispatch
            done = -1  # tickers up to this seq have had their turn
            timers = self._timers
            while True:
                now = self.now
                for ticker in self._due(now + _EPSILON, done, limit):
                    done = ticker.seq
                    while ticker.active and ticker.next_fire <= self.now + _EPSILON:
                        fire_at = ticker.next_fire
                        ticker.next_fire += ticker.interval
                        heappush(timers, (ticker.next_fire, ticker.seq, ticker))
                        ticker.callback(fire_at)
                    if self.now != now:
                        break  # a callback moved the clock: collect again
                else:
                    return
        finally:
            self._firing = False

    def _due(self, horizon: float, done: int, limit: int) -> list[Ticker]:
        """Active tickers with ``next_fire <= horizon`` and
        ``done < seq < limit``, in registration order.

        Walks only the heap's top region: every entry below one keyed
        past ``horizon`` is keyed past it too.
        """
        timers = self._timers
        size = len(timers)
        found = []
        stack = [0] if size else []
        while stack:
            i = stack.pop()
            fire_at, seq, ticker = timers[i]
            if fire_at > horizon:
                continue
            if done < seq < limit and ticker.active and ticker.next_fire == fire_at:
                found.append(ticker)
            child = 2 * i + 1
            if child < size:
                stack.append(child)
                if child + 1 < size:
                    stack.append(child + 1)
        found.sort(key=_BY_SEQ)
        return found

    def _refresh_factors(self) -> None:
        """Recompute cached per-resource factors and the next event time."""
        now = self.now
        load = self._load
        self._factors = {IO: load.factor(now, IO), CPU: load.factor(now, CPU)}
        next_event = load.next_change_after(now)
        timers = self._timers
        while timers:
            fire_at, _, ticker = timers[0]
            if ticker.active and ticker.next_fire == fire_at:
                if fire_at < next_event:
                    next_event = fire_at
                break
            heappop(timers)  # cancelled, or superseded by a later entry
        self._next_event = next_event

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.3f})"
