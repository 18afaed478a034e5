"""Scan operators: sequential heap scans and B-tree index scans.

Scans are where the paper's Section 4.3 base-input accounting happens: the
tracker learns how many base tuples (and bytes) have actually been read,
which the estimator compares against the optimizer's Ne.
"""

from __future__ import annotations

from typing import Iterator

from repro.executor.base import PULSE, ExecContext, Operator
from repro.expr.compiler import compile_predicate
from repro.planner.physical import IndexScanNode, SeqScanNode
from repro.sim.load import CPU, IO


def _scan_layout(node) -> dict[tuple[int, int], int]:
    """Layout of raw base-table rows for a scan's predicate compilation."""
    t = node.table_index
    return {(t, ci): ci for ci in range(len(node.table.schema))}


def _projector(node):
    """Map a raw base row to the scan's pruned output columns."""
    slots = [coord[1] for coord in (c.coordinate for c in node.columns)]
    if len(slots) == len(node.table.schema) and slots == list(range(len(slots))):
        return None  # identity; skip per-row tuple rebuilding
    return slots


class SeqScanOp(Operator):
    """Full scan of a heap through the buffer pool."""

    def __init__(self, node: SeqScanNode, ctx: ExecContext):
        super().__init__(node, ctx)
        layout = _scan_layout(node)
        self._predicates = [compile_predicate(f, layout) for f in node.filters]
        self._slots = _projector(node)

    def rows(self) -> Iterator[tuple]:
        node = self.node
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        ref = getattr(node, "pi_input_ref", None)
        heap = node.table.heap
        handle = heap.handle
        predicates = self._predicates
        slots = self._slots
        cpu_per_row = cost.cpu_tuple + len(predicates) * cost.cpu_operator

        monitored = tracker is not None and ref is not None
        per_tuple = ctx.config.progress.scan_granularity != "page"
        if monitored:
            seg, idx = ref
        pool = ctx.buffer_pool
        for page_no in range(handle.num_pages):
            page = pool.get_page(handle, page_no, sequential=True)
            n = len(page.rows)
            if not n:
                continue
            # The page stays pinned while its rows are in flight — across
            # scheduler suspensions too (PULSE is yielded under the pin) —
            # and the finally releases it on exhaustion *and* on
            # cancellation (generator close).
            pool.pin(handle, page_no)
            try:
                ctx.clock.advance(cpu_per_row * n, CPU)
                # Bytes are reported per tuple (not per page) by default so a
                # slow consumer — e.g. a CPU-bound nested-loops join pulling one
                # outer tuple at a time, the paper's Q5 — still shows smooth
                # byte progress to the speed monitor.  "page" granularity is an
                # ablation knob demonstrating why that matters.  Each row's
                # share is a whole number of bytes: the first ``extra`` rows
                # get one more, so the shares sum to the page exactly.
                share, extra = divmod(page.bytes_used, n)
                if monitored and not per_tuple:
                    tracker.input_rows(seg, idx, n, page.bytes_used)
                for j, row in enumerate(page.rows):
                    if monitored and per_tuple:
                        tracker.input_rows(
                            seg, idx, 1, share + 1 if j < extra else share
                        )
                    keep = True
                    for predicate in predicates:
                        if not predicate(row):
                            keep = False
                            break
                    if not keep:
                        continue
                    if slots is None:
                        yield row
                    else:
                        yield tuple(row[i] for i in slots)
                yield PULSE
            finally:
                pool.unpin(handle, page_no)


class IndexScanOp(Operator):
    """Range scan over a B-tree index with heap fetches."""

    def __init__(self, node: IndexScanNode, ctx: ExecContext):
        super().__init__(node, ctx)
        layout = _scan_layout(node)
        self._predicates = [compile_predicate(f, layout) for f in node.filters]
        self._slots = _projector(node)

    def rows(self) -> Iterator[tuple]:
        node = self.node
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        ref = getattr(node, "pi_input_ref", None)
        index = node.index
        heap_handle = node.table.heap.handle
        schema = node.table.schema
        predicates = self._predicates
        slots = self._slots

        # Root-to-leaf descent.
        ctx.clock.advance(index.height * cost.random_page_read, IO)
        ctx.clock.advance(index.height * cost.cpu_index_level, CPU)

        pool = ctx.buffer_pool
        entries_seen = 0
        for _key, rid in index.search_range(
            node.low, node.high, node.low_inclusive, node.high_inclusive
        ):
            # One sequential leaf-page read per `fanout` entries consumed;
            # leaf-page boundaries are also the scan's scheduling pulses.
            if entries_seen % index.fanout == 0:
                ctx.clock.advance(cost.seq_page_read, IO)
                if entries_seen:
                    yield PULSE
            entries_seen += 1

            page_no, slot = rid
            page = pool.get_page(heap_handle, page_no, sequential=False)
            pool.pin(heap_handle, page_no)
            try:
                row = page.rows[slot]
                ctx.clock.advance(
                    cost.cpu_tuple + len(predicates) * cost.cpu_operator, CPU
                )
                if tracker is not None and ref is not None:
                    tracker.input_rows(ref[0], ref[1], 1, schema.row_width(row))
                keep = True
                for predicate in predicates:
                    if not predicate(row):
                        keep = False
                        break
                if not keep:
                    continue
                if slots is None:
                    yield row
                else:
                    yield tuple(row[i] for i in slots)
            finally:
                pool.unpin(heap_handle, page_no)
