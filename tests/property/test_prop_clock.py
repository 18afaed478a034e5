"""Property-based tests: virtual clock invariants.

Costs are integer ticks and clock positions integer instants
(:mod:`repro.sim.units`), so the invariants hold exactly: no tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import units
from repro.sim.clock import VirtualClock
from repro.sim.load import CPU, IO, InterferenceWindow, LoadProfile
from repro.sim.units import FACTOR_ONE, instant, ticks

costs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ticks(50.0)),
        st.sampled_from([IO, CPU]),
    ),
    max_size=30,
)

windows = st.lists(
    st.builds(
        InterferenceWindow,
        start=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        end=st.floats(min_value=101.0, max_value=500.0, allow_nan=False),
        io_factor=st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
        cpu_factor=st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
    ),
    max_size=3,
)


class TestClockProperties:
    @given(costs)
    def test_time_is_monotone(self, charges):
        clock = VirtualClock()
        last = 0.0
        for cost, resource in charges:
            clock.advance(cost, resource)
            assert clock.now >= last
            last = clock.now

    @given(costs)
    def test_unloaded_time_equals_total_cost(self, charges):
        clock = VirtualClock()
        for cost, resource in charges:
            clock.advance(cost, resource)
        total = sum(c for c, _ in charges)
        assert clock._now == total * FACTOR_ONE

    @given(costs, windows)
    def test_loaded_time_at_least_unloaded(self, charges, wins):
        """Slowdowns can only stretch elapsed time (factors >= 1)."""
        stretched = [
            InterferenceWindow(
                w.start, w.end, max(1.0, w.io_factor), max(1.0, w.cpu_factor)
            )
            for w in wins
        ]
        clock = VirtualClock(LoadProfile(stretched))
        for cost, resource in charges:
            clock.advance(cost, resource)
        total = sum(c for c, _ in charges)
        assert clock._now >= total * FACTOR_ONE

    @given(costs, windows, st.integers(min_value=1, max_value=7))
    def test_split_advance_equivalent_to_single(self, charges, wins, parts):
        """``parts`` charges summing to ``c`` land exactly where one charge
        of ``c`` does, load-factor changes included: the one rounding at a
        change applies to the same remainder either way."""
        profile = LoadProfile(wins)
        one = VirtualClock(profile)
        split = VirtualClock(profile)
        for cost, resource in charges:
            one.advance(cost, resource)
            piece = cost // parts
            for _ in range(parts - 1):
                split.advance(piece, resource)
            split.advance(cost - piece * (parts - 1), resource)
        assert one._now == split._now
        assert one.cost_charged == split.cost_charged

    @given(
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_ticker_count_matches_elapsed(self, interval, total):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(interval, fired.append)
        clock.advance(ticks(total), CPU)
        period = instant(interval)
        assert len(fired) == clock._now // period
        # Fire times are exact multiples of the interval's instant.
        for i, t in enumerate(fired):
            assert t == units.seconds((i + 1) * period)

    @given(
        st.integers(min_value=1, max_value=ticks(30.0)),
        st.integers(min_value=0, max_value=ticks(5.0)),
        st.sampled_from([0.5, 1.5, 2.5, 3.0]),
    )
    def test_budget_is_the_charge_that_reaches_the_event(self, gap, spent, slow):
        """A CPU charge of ``budget()`` ticks fires the next event, one
        tick less does not -- under any load factor."""
        clock = VirtualClock(LoadProfile.cpu_hog(0.0, slowdown=slow))
        fired = []
        clock.add_ticker(units.seconds(gap * FACTOR_ONE), fired.append)
        clock.advance(min(spent, clock.budget() - 1), CPU)
        left = clock.budget()
        clock.advance(left - 1, CPU)
        assert not fired
        clock.advance(1, CPU)
        assert fired


class TestChargeStraddlingALoadChange:
    """The rest of a charge that crosses a load-factor change is re-priced
    at the new factor, rounded once to the nearest instant."""

    def test_straddle_splits_at_the_boundary(self):
        # 10 s unloaded, then a 3x file copy: 15 io-seconds of work take
        # 10 + 5 * 3 = 25 wall seconds, exactly.
        clock = VirtualClock(LoadProfile.file_copy(10.0, 100.0, slowdown=3.0))
        clock.advance(ticks(15.0), IO)
        assert clock.now == 25.0

    def test_straddle_rounds_the_remainder_once(self):
        # At factor 3 a tick lasts 3000 instants; the boundary at 1 ns
        # past zero leaves 2999 instants of the first tick at factor 3,
        # which re-price to 2999 * 1000 / 3000 = 999.67 -> 1000 instants
        # at factor 1.
        load = LoadProfile(
            [InterferenceWindow(0.0, units.seconds(1), io_factor=3.0)]
        )
        clock = VirtualClock(load)
        clock.advance(1, IO)
        assert clock._now == 1 + units.reprice(2999, 3000, 1000)
        assert clock._now == 1 + 1000

    def test_straddle_rounding_is_the_same_split_or_merged(self):
        load = LoadProfile(
            [InterferenceWindow(0.0, units.seconds(7), cpu_factor=2.5)]
        )
        merged = VirtualClock(load)
        merged.advance(5, CPU)
        split = VirtualClock(load)
        for _ in range(5):
            split.advance(1, CPU)
        assert merged._now == split._now == 7 + units.reprice(
            5 * 2500 - 7, 2500, 1000
        )

    def test_charge_ending_on_the_boundary_is_not_rounded(self):
        clock = VirtualClock(LoadProfile.cpu_hog(0.0, end=4.0, slowdown=2.5))
        clock.advance(ticks(1.6), CPU)  # 1.6 * 2.5 = 4.0 s, on the change
        clock.advance(ticks(1.0), CPU)
        assert clock.now == 5.0
