"""Unit tests for the work tracker (U counters)."""

import pytest

from repro.executor.work import WorkTracker
from repro.sim.clock import VirtualClock
from repro.sim.units import ticks


def make_tracker(num_inputs=(1, 2), final=1, clock=None):
    return WorkTracker(list(num_inputs), final_segment=final, clock=clock)


class TestCounting:
    def test_input_rows_accumulate(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 10, 400.0)
        tracker.input_rows(0, 0, 5, 200.0)
        seg = tracker.segments[0]
        assert seg.input_rows[0] == 15
        assert seg.input_bytes[0] == 600.0
        assert tracker.total_done_bytes == 600.0

    def test_output_rows_counted_for_inner_segments(self):
        tracker = make_tracker()
        tracker.output_rows(0, 3, 90.0)
        assert tracker.segments[0].output_rows == 3
        assert tracker.total_done_bytes == 90.0

    def test_final_segment_output_not_work(self):
        # Section 4.5: the final result shown to the user is not counted.
        tracker = make_tracker()
        tracker.output_rows(1, 3, 90.0)
        assert tracker.segments[1].output_rows == 3
        assert tracker.total_done_bytes == 0.0

    def test_extra_pass_counts(self):
        tracker = make_tracker()
        tracker.extra_pass(0, 500.0)
        assert tracker.segments[0].extra_bytes == 500.0
        assert tracker.total_done_bytes == 500.0

    def test_done_pages(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 1, 8192.0)
        assert tracker.done_pages(8192) == pytest.approx(1.0)

    def test_avg_widths(self):
        tracker = make_tracker()
        tracker.input_rows(0, 0, 4, 100.0)
        tracker.output_rows(0, 2, 80.0)
        seg = tracker.segments[0]
        assert seg.avg_input_width(0) == pytest.approx(25.0)
        assert seg.avg_output_width() == pytest.approx(40.0)

    def test_avg_widths_none_before_data(self):
        seg = make_tracker().segments[0]
        assert seg.avg_input_width(0) is None
        assert seg.avg_output_width() is None


class TestLifecycle:
    def test_first_charge_starts_segment(self):
        tracker = make_tracker()
        assert not tracker.segments[0].started
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.segments[0].started

    def test_started_at_records_clock(self):
        clock = VirtualClock()
        tracker = make_tracker(clock=clock)
        clock.advance(ticks(5.0))
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.segments[0].started_at == pytest.approx(5.0)

    def test_segment_finished(self):
        clock = VirtualClock()
        tracker = make_tracker(clock=clock)
        clock.advance(ticks(3.0))
        tracker.segment_finished(0)
        seg = tracker.segments[0]
        assert seg.finished
        assert seg.finished_at == pytest.approx(3.0)

    def test_finished_idempotent(self):
        tracker = make_tracker()
        calls = []
        tracker.on_segment_finished = calls.append
        tracker.segment_finished(0)
        tracker.segment_finished(0)
        assert calls == [0]

    def test_finish_all(self):
        tracker = make_tracker()
        tracker.finish_all()
        assert all(s.finished for s in tracker.segments)


class TestCurrentSegment:
    def test_none_before_start(self):
        assert make_tracker().current_segment() is None

    def test_deepest_unfinished_started(self):
        tracker = make_tracker((1, 1, 1), final=2)
        tracker.input_rows(0, 0, 1, 10.0)
        assert tracker.current_segment() == 0
        tracker.segment_finished(0)
        tracker.input_rows(1, 0, 1, 10.0)
        assert tracker.current_segment() == 1

    def test_overlapping_segments_report_earliest(self):
        # A pipelined plan can have several started segments; the paper's
        # "current segment" is the one still consuming its dominant input.
        tracker = make_tracker((1, 1, 1), final=2)
        tracker.input_rows(0, 0, 1, 10.0)
        tracker.input_rows(1, 0, 1, 10.0)
        assert tracker.current_segment() == 0

    def test_none_after_finish_all(self):
        tracker = make_tracker()
        tracker.finish_all()
        assert tracker.current_segment() is None
