"""Unit tests for the virtual clock."""

import math

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.load import CPU, IO, InterferenceWindow, LoadProfile
from repro.sim.units import ticks


class TestAdvanceUnloaded:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_moves_time_by_cost(self):
        clock = VirtualClock()
        clock.advance(ticks(3.5), CPU)
        assert clock.now == pytest.approx(3.5)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(ticks(1.0), IO)
        clock.advance(ticks(2.0), CPU)
        assert clock.now == pytest.approx(3.0)

    def test_zero_cost_is_noop(self):
        clock = VirtualClock()
        clock.advance(ticks(0.0), IO)
        assert clock.now == 0.0

    def test_negative_cost_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(ticks(-1.0), IO)

    def test_cost_counters_track_per_resource(self):
        clock = VirtualClock()
        clock.advance(ticks(2.0), IO)
        clock.advance(ticks(3.0), CPU)
        clock.advance(ticks(1.0), IO)
        assert clock.cost_charged[IO] == ticks(3.0)
        assert clock.cost_charged[CPU] == ticks(3.0)


class TestAdvanceWithLoad:
    def test_io_slowdown_stretches_io_work(self):
        clock = VirtualClock(LoadProfile.file_copy(0.0, 100.0, slowdown=2.0))
        clock.advance(ticks(5.0), IO)
        assert clock.now == pytest.approx(10.0)

    def test_io_slowdown_leaves_cpu_work_alone(self):
        clock = VirtualClock(LoadProfile.file_copy(0.0, 100.0, slowdown=2.0))
        clock.advance(ticks(5.0), CPU)
        assert clock.now == pytest.approx(5.0)

    def test_cpu_slowdown_stretches_cpu_work(self):
        clock = VirtualClock(LoadProfile.cpu_hog(0.0, slowdown=3.0))
        clock.advance(ticks(2.0), CPU)
        assert clock.now == pytest.approx(6.0)

    def test_advance_integrates_across_window_start(self):
        # 10 unloaded wall seconds, then 3x slowdown: 15 io-seconds of work
        # take 10 + 5*3 = 25 wall seconds... but the window ends at 20.
        clock = VirtualClock(LoadProfile.file_copy(10.0, 20.0, slowdown=3.0))
        clock.advance(ticks(15.0), IO)
        # 10s unloaded work, then 10 wall seconds buy 10/3 work inside the
        # window, and the remaining 15-10-10/3 runs unloaded after it.
        expected = 20.0 + (15.0 - 10.0 - 10.0 / 3.0)
        assert clock.now == pytest.approx(expected)

    def test_advance_entirely_before_window(self):
        clock = VirtualClock(LoadProfile.file_copy(100.0, 200.0, slowdown=9.0))
        clock.advance(ticks(50.0), IO)
        assert clock.now == pytest.approx(50.0)

    def test_set_load_midway_applies_immediately(self):
        clock = VirtualClock()
        clock.advance(ticks(5.0), IO)
        clock.set_load(LoadProfile.file_copy(0.0, math.inf, slowdown=4.0))
        clock.advance(ticks(1.0), IO)
        assert clock.now == pytest.approx(9.0)

    def test_overlapping_windows_compound(self):
        load = LoadProfile(
            [
                InterferenceWindow(0.0, 100.0, io_factor=2.0),
                InterferenceWindow(0.0, 100.0, io_factor=3.0),
            ]
        )
        clock = VirtualClock(load)
        clock.advance(ticks(1.0), IO)
        assert clock.now == pytest.approx(6.0)


class TestTickers:
    def test_ticker_fires_at_exact_instants(self):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(10.0, fired.append)
        clock.advance(ticks(35.0), CPU)
        assert fired == pytest.approx([10.0, 20.0, 30.0])

    def test_ticker_fires_inside_single_large_advance(self):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(1.0, fired.append)
        clock.advance(ticks(3.5), IO)
        assert fired == pytest.approx([1.0, 2.0, 3.0])

    def test_ticker_custom_first_fire(self):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(10.0, fired.append, first=2.0)
        clock.advance(ticks(13.0), CPU)
        assert fired == pytest.approx([2.0, 12.0])

    def test_cancelled_ticker_stops(self):
        clock = VirtualClock()
        fired = []
        ticker = clock.add_ticker(1.0, fired.append)
        clock.advance(ticks(2.5), CPU)
        ticker.cancel()
        clock.advance(ticks(5.0), CPU)
        assert fired == pytest.approx([1.0, 2.0])

    def test_two_tickers_interleave(self):
        clock = VirtualClock()
        events = []
        clock.add_ticker(2.0, lambda t: events.append(("a", t)))
        clock.add_ticker(3.0, lambda t: events.append(("b", t)))
        clock.advance(ticks(6.5), CPU)
        assert events == [("a", 2.0), ("b", 3.0), ("a", 4.0), ("a", 6.0), ("b", 6.0)]

    def test_ticker_sees_load_stretched_time(self):
        clock = VirtualClock(LoadProfile.cpu_hog(0.0, slowdown=2.0))
        fired = []
        clock.add_ticker(1.0, fired.append)
        clock.advance(ticks(2.0), CPU)  # 4 wall seconds
        assert fired == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_invalid_interval_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.add_ticker(0.0, lambda t: None)


class TestAdvanceWall:
    def test_advance_wall_moves_time(self):
        clock = VirtualClock()
        clock.advance_wall(7.0)
        assert clock.now == pytest.approx(7.0)

    def test_advance_wall_fires_tickers(self):
        clock = VirtualClock()
        fired = []
        clock.add_ticker(2.0, fired.append)
        clock.advance_wall(5.0)
        assert fired == pytest.approx([2.0, 4.0])

    def test_advance_wall_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance_wall(-0.1)

    def test_advance_wall_charges_no_cost(self):
        clock = VirtualClock()
        clock.advance_wall(5.0)
        assert clock.cost_charged[IO] == 0
        assert clock.cost_charged[CPU] == 0
