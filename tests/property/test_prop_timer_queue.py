"""Property-based test: the heap timer queue dispatches exactly like the
list-scan clock it replaced.

``_ListScanClock`` below is that earlier algorithm, kept as the oracle:
every live ticker sits in a list in registration order, the next event
is a scan over it, and a dispatch walks a snapshot of it.  Random
programs of ``add_ticker`` (with and without ``first``), ``cancel``,
``advance`` (IO and CPU), ``advance_wall`` and load-profile changes —
with ticker callbacks that register tickers, cancel tickers and advance
the clock — must produce the same ``(ticker, fire_at, now)`` sequence
and the same final ``now`` on both clocks, float for float.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.load import CPU, IO, InterferenceWindow, LoadProfile

_EPSILON = 1e-12


class _Stalled(Exception):
    """A program the oracle cannot finish (see ``_ListScanClock``)."""


class _Ticker:
    def __init__(self, interval, callback, first):
        self.interval = interval
        self.callback = callback
        self.next_fire = first
        self.active = True

    def cancel(self):
        self.active = False


class _ListScanClock:
    """The list-scan clock.  A callback that advances the clock across
    an event the in-flight dispatch has not fired yet makes its advance
    loop forever; such programs raise ``_Stalled`` and are discarded."""

    def __init__(self, load):
        self.now = 0.0
        self._load = load
        self._tickers = []
        self._firing = False
        self._refresh_factors()

    def set_load(self, load):
        self._load = load
        self._refresh_factors()

    def add_ticker(self, interval, callback, first=None):
        first = self.now + interval if first is None else first
        ticker = _Ticker(interval, callback, first)
        self._tickers.append(ticker)
        self._refresh_factors()
        return ticker

    def advance(self, cost, resource):
        if cost == 0:
            return
        end = self.now + cost * self._factors[resource]
        if end < self._next_event:
            self.now = end
            return
        remaining, idle = cost, 0
        while remaining > _EPSILON:
            factor, event = self._factors[resource], self._next_event
            if self.now + remaining * factor < event:
                self.now += remaining * factor
                return
            remaining -= (event - self.now) / factor
            idle = idle + 1 if event <= self.now else 0
            self.now = event
            self._fire_due()
            self._refresh_factors()
            if idle > 200:
                raise _Stalled

    def advance_wall(self, seconds):
        target, idle = self.now + seconds, 0
        while True:
            event = self._next_event
            if event >= target:
                self.now = target
                return
            idle = idle + 1 if event <= self.now else 0
            self.now = event
            self._fire_due()
            self._refresh_factors()
            if idle > 200:
                raise _Stalled

    def _fire_due(self):
        if self._firing:
            return
        self._firing = True
        try:
            for ticker in list(self._tickers):
                while ticker.active and ticker.next_fire <= self.now + _EPSILON:
                    fire_at = ticker.next_fire
                    ticker.next_fire += ticker.interval
                    ticker.callback(fire_at)
            self._tickers = [t for t in self._tickers if t.active]
        finally:
            self._firing = False

    def _refresh_factors(self):
        self._factors = {
            IO: self._load.factor(self.now, IO),
            CPU: self._load.factor(self.now, CPU),
        }
        next_event = self._load.next_change_after(self.now)
        for ticker in self._tickers:
            if ticker.active and ticker.next_fire < next_event:
                next_event = ticker.next_fire
        self._next_event = next_event


# Mostly few distinct intervals and instants, so that ties are common;
# arbitrary floats make splitting an advance at a wrong instant visible.
intervals = st.one_of(
    st.sampled_from([0.5, 1.0, 2.5, 3.0, 10.0]),
    st.floats(min_value=0.3, max_value=12.0, allow_nan=False),
)
firsts = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.5, 20.0]),
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
)
resources = st.sampled_from([IO, CPU])
costs = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
windows = st.lists(
    st.builds(
        InterferenceWindow,
        start=st.sampled_from([0.0, 2.5, 4.0, 10.0]),
        end=st.sampled_from([12.0, 15.5, 40.0, float("inf")]),
        io_factor=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        cpu_factor=st.sampled_from([0.5, 1.0, 2.5]),
    ),
    max_size=2,
)
actions = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("register"), intervals, firsts),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("advance"), st.sampled_from([0.01, 0.1, 0.4]), resources),
    st.tuples(st.just("advance_wall"), st.sampled_from([0.05, 0.3])),
)
programs = st.lists(
    st.one_of(
        st.tuples(st.just("add"), intervals, firsts, actions),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("advance"), costs, resources),
        st.tuples(st.just("advance_wall"), costs),
        st.tuples(st.just("set_load"), windows),
    ),
    max_size=25,
)


def play(clock, program) -> tuple[list, float]:
    """Run ``program``; return the ``(ticker, fire_at, now)`` log and the
    final ``now``.  Callbacks act at most 30 times in all."""
    log: list = []
    tickers: list = []
    budget = [30]

    def register(interval, first, action):
        tid = len(tickers)

        def callback(fire_at):
            log.append((tid, fire_at, clock.now))
            if action[0] == "none" or budget[0] <= 0:
                return
            budget[0] -= 1
            run(action, ("none",))

        tickers.append(clock.add_ticker(interval, callback, first))

    def run(op, nested_action):
        kind = op[0]
        if kind == "add":
            register(op[1], op[2], op[3])
        elif kind == "register":
            register(op[1], op[2], nested_action)
        elif kind == "cancel":
            if tickers:
                tickers[op[1] % len(tickers)].cancel()
        elif kind == "advance":
            clock.advance(op[1], op[2])
        elif kind == "advance_wall":
            clock.advance_wall(op[1])
        elif kind == "set_load":
            clock.set_load(LoadProfile(op[1]))

    for op in program:
        run(op, None)
    return log, clock.now


class TestTimerQueue:
    @given(windows, programs)
    @settings(max_examples=300, deadline=None)
    def test_dispatch_matches_list_scan_clock(self, initial, program):
        try:
            expected = play(_ListScanClock(LoadProfile(initial)), program)
        except _Stalled:
            assume(False)
        assert play(VirtualClock(LoadProfile(initial)), program) == expected

    def test_ties_fire_in_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(3.0, lambda t: fired.append(("late", t)), first=2.0)
        clock.add_ticker(2.0, lambda t: fired.append(("early", t)), first=1.0)
        clock.add_ticker(1.0, lambda t: fired.append(("third", t)), first=2.0)
        clock.advance(2.0, CPU)
        assert fired == [("early", 1.0), ("late", 2.0), ("third", 2.0)]

    def test_ticker_registered_by_a_callback_waits_for_next_dispatch(self):
        clock = VirtualClock()
        fired = []

        def spawn(t):
            fired.append(("spawn", t))
            clock.add_ticker(5.0, lambda u: fired.append(("child", u)), first=t)

        parent = clock.add_ticker(1.0, spawn)
        clock.advance(1.0, CPU)
        assert fired == [("spawn", 1.0)]
        parent.cancel()
        clock.advance(0.5, CPU)
        assert fired == [("spawn", 1.0), ("child", 1.0)]

    def test_callback_registered_ticker_waits_even_if_the_clock_moved(self):
        for clock in (VirtualClock(), _ListScanClock(LoadProfile())):
            fired = []

            def spawn(t, clock=clock, fired=fired):
                fired.append(("spawn", t, clock.now))
                if len(fired) == 1:
                    clock.add_ticker(
                        10.0, lambda u: fired.append(("child", u, clock.now)),
                        first=1.5 + 5e-13,
                    )
                    clock.advance(0.5, CPU)

            clock.add_ticker(1.0, spawn, first=1.0)
            clock.advance(1.0, CPU)
            assert fired == [("spawn", 1.0, 1.0)]
            clock.advance(0.25, CPU)
            assert fired[1] == ("child", 1.5 + 5e-13, 1.5 + 5e-13)

    def test_cancelled_ticker_never_splits_an_advance(self):
        """Registering a ticker drops a cancelled one from the next-event
        time, so the next advance is one step (splitting it at 0.8 would
        land on 10.000000000000002)."""
        cpu_hog = LoadProfile([InterferenceWindow(0.0, float("inf"), cpu_factor=2.5)])
        clock = VirtualClock(cpu_hog)
        clock.add_ticker(0.8, lambda t: None).cancel()
        clock.add_ticker(20.0, lambda t: None)
        clock.advance(4.0, CPU)
        assert clock.now == 10.0

    def test_clock_moved_by_a_callback_makes_later_tickers_due(self):
        """A later-registered ticker that the callback's advance brings
        within the firing tolerance fires in the same dispatch."""
        for clock in (VirtualClock(), _ListScanClock(LoadProfile())):
            fired = []

            def mover(t, clock=clock, fired=fired):
                fired.append(("mover", t, clock.now))
                if len(fired) == 1:
                    clock.advance(0.5, CPU)

            clock.add_ticker(1.0, mover, first=1.0)
            clock.add_ticker(
                10.0, lambda t, c=clock, f=fired: f.append(("near", t, c.now)),
                first=1.5 + 5e-13,
            )
            clock.advance(1.0, CPU)
            assert fired == [("mover", 1.0, 1.0), ("near", 1.5 + 5e-13, 1.5)]

    def test_catch_up_sees_the_clock_a_callback_moved(self):
        for clock in (VirtualClock(), _ListScanClock(LoadProfile())):
            fired = []

            def hop(t, clock=clock, fired=fired):
                fired.append((t, clock.now))
                if len(fired) == 1:
                    clock.advance(0.5, CPU)

            clock.add_ticker(0.5 + 5e-13, hop, first=1.0)
            clock.advance(1.0, CPU)
            assert fired == [(1.0, 1.0), (1.0 + (0.5 + 5e-13), 1.5)]

    def test_cancelled_tickers_leave_the_queue(self):
        clock = VirtualClock()
        for _ in range(50):
            clock.add_ticker(1.0, lambda t: None).cancel()
        clock.advance(3.0, CPU)
        assert clock.now == 3.0
        assert not clock._timers
