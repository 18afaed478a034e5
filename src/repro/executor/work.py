"""Run-time work accounting: the U counters of the progress indicator.

The paper measures work in bytes processed at segment boundaries
(Section 4.1/4.5): a byte is counted when a segment reads it as input,
when a segment writes it as output (unless that output is the final query
result), and once more per extra multi-stage pass.  :class:`WorkTracker`
holds those counters per segment, plus the global total the speed monitor
consumes.

This module lives in the executor package (not in :mod:`repro.core`) so
operators can report without importing the estimator; the estimator reads
these counters when it refines.

Every byte counter is an integer (:mod:`repro.sim.units`): row widths are
whole bytes, and a per-tuple scan gives each row of a page an integer
share of the page's bytes.  Sums are therefore exact in any order, so the
fused engine may report a run of rows in one call at its next write-back
point instead of one call per row; the counters come out identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.bus import TraceBus


class SegmentCounters:
    """Mutable run-time counters for one segment."""

    __slots__ = (
        "segment_id",
        "input_rows",
        "input_bytes",
        "output_rows",
        "output_bytes",
        "extra_bytes",
        "done_bytes",
        "started",
        "finished",
        "started_at",
        "finished_at",
    )

    def __init__(self, segment_id: int, num_inputs: int):
        self.segment_id = segment_id
        self.input_rows = [0] * num_inputs
        self.input_bytes = [0] * num_inputs
        self.output_rows = 0
        self.output_bytes = 0
        self.extra_bytes = 0
        #: Bytes of this segment counted toward the query's done work.
        self.done_bytes = 0
        self.started = False
        self.finished = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def avg_output_width(self) -> Optional[float]:
        """Observed mean output tuple width, or None before any output."""
        if self.output_rows <= 0:
            return None
        return self.output_bytes / self.output_rows

    def avg_input_width(self, input_index: int) -> Optional[float]:
        """Observed mean width of one input's tuples, or None before data."""
        if self.input_rows[input_index] <= 0:
            return None
        return self.input_bytes[input_index] / self.input_rows[input_index]


class WorkTracker:
    """Per-query progress counters, shared by executor and estimator.

    ``num_inputs`` lists the input count of each segment, indexed by
    segment id (segment ids are dense, assigned by the segment builder).
    ``count_final_output`` is False per the paper: bytes of the final
    result shown to the user are not work.
    """

    def __init__(self, num_inputs: list[int], final_segment: int, clock=None):
        self.segments = [
            SegmentCounters(i, n) for i, n in enumerate(num_inputs)
        ]
        self.final_segment = final_segment
        self.total_done_bytes = 0
        self._clock = clock
        #: Optional hook invoked as segments finish (indicator refresh).
        self.on_segment_finished: Optional[Callable[[int], None]] = None
        #: Optional TraceBus for segment-lifecycle events.  None (default)
        #: is the zero-cost disabled path: lifecycle methods test identity
        #: only, and the per-tuple hot paths above are untouched entirely.
        self.trace: Optional["TraceBus"] = None

    # ------------------------------------------------------------------
    # hot-path reporting (per page / per tuple by row operators; per
    # write-back point by the fused engine)

    def input_rows(
        self, segment_id: int, input_index: int, rows: int, nbytes: int
    ) -> None:
        """Record ``rows`` tuples (``nbytes`` bytes) read by a segment input."""
        seg = self.segments[segment_id]
        if not seg.started:
            self._start(seg)
        seg.input_rows[input_index] += rows
        seg.input_bytes[input_index] += nbytes
        seg.done_bytes += nbytes
        self.total_done_bytes += nbytes

    def output_rows(self, segment_id: int, rows: int, nbytes: int) -> None:
        """Record tuples produced at a segment's output."""
        seg = self.segments[segment_id]
        if not seg.started:
            self._start(seg)
        seg.output_rows += rows
        seg.output_bytes += nbytes
        if segment_id != self.final_segment:
            seg.done_bytes += nbytes
            self.total_done_bytes += nbytes

    def extra_pass(self, segment_id: int, nbytes: int) -> None:
        """Record a multi-stage extra pass over ``nbytes`` (Section 4.5)."""
        seg = self.segments[segment_id]
        seg.extra_bytes += nbytes
        seg.done_bytes += nbytes
        self.total_done_bytes += nbytes
        if self.trace is not None:
            from repro.obs.events import ExtraPass

            self.trace.emit(
                ExtraPass(t=self._now(), segment_id=segment_id, nbytes=nbytes)
            )

    # ------------------------------------------------------------------
    # lifecycle

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _start(self, seg: SegmentCounters) -> None:
        seg.started = True
        if self._clock is not None:
            seg.started_at = self._clock.now
        if self.trace is not None:
            from repro.obs.events import SegmentStarted

            self.trace.emit(
                SegmentStarted(t=self._now(), segment_id=seg.segment_id)
            )

    def segment_finished(self, segment_id: int) -> None:
        """Mark a segment complete (exact counts freeze; hook fires once)."""
        seg = self.segments[segment_id]
        if seg.finished:
            return
        if not seg.started:
            self._start(seg)
        seg.finished = True
        if self._clock is not None:
            seg.finished_at = self._clock.now
        if self.trace is not None:
            from repro.obs.events import SegmentFinished

            self.trace.emit(
                SegmentFinished(
                    t=self._now(),
                    segment_id=segment_id,
                    done_bytes=seg.done_bytes,
                    output_rows=seg.output_rows,
                )
            )
        if self.on_segment_finished is not None:
            self.on_segment_finished(segment_id)

    def finish_all(self) -> None:
        """Mark every segment finished (query completed)."""
        for seg in self.segments:
            if not seg.finished:
                self.segment_finished(seg.segment_id)

    # ------------------------------------------------------------------
    # queries

    def current_segment(self) -> Optional[int]:
        """The running segment the paper calls "the current segment".

        With a pipelined plan several segments can be technically started;
        the *current* one is the deepest unfinished started segment (the
        one actually consuming its dominant input).
        """
        current = None
        for seg in self.segments:
            if seg.started and not seg.finished:
                current = seg.segment_id
                break
        return current

    def done_pages(self, page_size: int) -> float:
        """Total work done so far, in U (pages)."""
        return self.total_done_bytes / page_size
