"""Unit tests for load profiles."""

import math

import pytest

from repro.sim.load import CPU, IO, InterferenceWindow, LoadProfile
from repro.sim.units import NEVER, factor, instant


class TestInterferenceWindow:
    def test_factor_by_resource(self):
        w = InterferenceWindow(0.0, 10.0, io_factor=2.0, cpu_factor=3.0)
        assert w.factor(IO) == 2.0
        assert w.factor(CPU) == 3.0

    def test_unknown_resource_rejected(self):
        w = InterferenceWindow(0.0, 10.0)
        with pytest.raises(ValueError):
            w.factor("gpu")

    def test_active_at_half_open_interval(self):
        profile = LoadProfile([InterferenceWindow(5.0, 10.0, io_factor=2.0)])
        assert profile.factor(instant(4.999), IO) == factor(1.0)
        assert profile.factor(instant(5.0), IO) == factor(2.0)
        assert profile.factor(instant(9.999), IO) == factor(2.0)
        assert profile.factor(instant(10.0), IO) == factor(1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            InterferenceWindow(5.0, 5.0)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            InterferenceWindow(0.0, 1.0, io_factor=0.0)

    def test_infinite_end_allowed(self):
        w = InterferenceWindow(100.0, math.inf, cpu_factor=2.0)
        assert LoadProfile([w]).factor(instant(1e12), CPU) == factor(2.0)


class TestLoadProfile:
    def test_unloaded_factor_is_one(self):
        profile = LoadProfile.unloaded()
        assert profile.factor(instant(0.0), IO) == factor(1.0)
        assert profile.factor(instant(1e9), CPU) == factor(1.0)

    def test_factor_inside_and_outside_window(self):
        profile = LoadProfile.file_copy(10.0, 20.0, slowdown=3.0)
        assert profile.factor(instant(5.0), IO) == factor(1.0)
        assert profile.factor(instant(15.0), IO) == factor(3.0)
        assert profile.factor(instant(25.0), IO) == factor(1.0)

    def test_file_copy_leaves_cpu_alone(self):
        profile = LoadProfile.file_copy(10.0, 20.0, slowdown=3.0)
        assert profile.factor(instant(15.0), CPU) == factor(1.0)

    def test_cpu_hog_leaves_io_alone(self):
        profile = LoadProfile.cpu_hog(10.0, slowdown=2.5)
        assert profile.factor(instant(15.0), IO) == factor(1.0)
        assert profile.factor(instant(15.0), CPU) == factor(2.5)

    def test_next_change_after(self):
        profile = LoadProfile.file_copy(10.0, 20.0)
        assert profile.next_change_after(instant(0.0)) == instant(10.0)
        assert profile.next_change_after(instant(10.0)) == instant(20.0)
        assert profile.next_change_after(instant(20.0)) == NEVER

    def test_next_change_with_infinite_end(self):
        profile = LoadProfile.cpu_hog(100.0)
        assert profile.next_change_after(instant(0.0)) == instant(100.0)
        assert profile.next_change_after(instant(100.0)) == NEVER

    def test_overlapping_windows_multiply(self):
        profile = LoadProfile(
            [
                InterferenceWindow(0.0, 10.0, io_factor=2.0),
                InterferenceWindow(5.0, 15.0, io_factor=4.0),
            ]
        )
        assert profile.factor(instant(7.0), IO) == factor(8.0)
        assert profile.factor(instant(12.0), IO) == factor(4.0)

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile.unloaded().factor(instant(0.0), "net")

    def test_paper_slowdowns_convert_exactly(self):
        # The fixed-point form of the shipped factors is exact, so a
        # charge under them needs no rounding.
        assert factor(2.5) * 2 == factor(5.0)
        assert LoadProfile.cpu_hog(0.0).factor(0, CPU) == 2500
        assert LoadProfile.file_copy(0.0, 1.0).factor(0, IO) == 3000
