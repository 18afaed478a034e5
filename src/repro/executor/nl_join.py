"""Nested loops join with a materialized inner relation.

The paper's Q5 plan: the *outer* input is the dominant input of the
segment (Section 4.5 rule 2a), the inner is read once during
materialization, and every outer tuple is compared against every inner
tuple — pure CPU when the inner fits in memory, which is what makes Q5
CPU-bound while its byte-based progress still tracks the outer scan
(Section 5.6.1).
"""

from __future__ import annotations

from typing import Iterator

from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.executor.rowops import combiner, concat_layout, row_width_fn
from repro.expr.compiler import compile_predicate
from repro.planner.physical import NestLoopNode
from repro.sim.load import CPU, IO


class NestLoopOp(Operator):
    def __init__(self, node: NestLoopNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._outer_child = build_operator(node.outer, ctx)
        self._inner_child = build_operator(node.inner, ctx)
        layout = concat_layout(node.outer.columns, node.inner.columns)
        self._predicates = [compile_predicate(p, layout) for p in node.predicates]
        self._combine = combiner(node.outer.columns, node.inner.columns, node.columns)
        self._inner_width = row_width_fn(node.inner.columns)

    def rows(self) -> Iterator[tuple]:
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        inner_ref = getattr(self.node, "pi_inner_input_ref", None)

        # Materialize the inner once; its bytes count once (the paper's Q5
        # narrative measures progress through the outer, with the inner's
        # single read accounted up front).
        inner_rows: list[tuple] = []
        inner_bytes = 0
        width_fn = self._inner_width
        for row in self._inner_child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(cost.cpu_tuple, CPU)
            inner_bytes += width_fn(row)
            inner_rows.append(row)
        if tracker is not None and inner_ref is not None:
            tracker.input_rows(inner_ref[0], inner_ref[1], len(inner_rows), inner_bytes)

        predicates = self._predicates
        combine = self._combine
        n_inner = len(inner_rows)
        per_outer_cpu = n_inner * cost.cpu_operator * max(1, len(predicates))
        # Rescan I/O applies only when the materialized inner cannot be
        # cached; each additional outer tuple re-reads the spilled inner.
        rescan_io = 0
        if inner_bytes > ctx.work_mem_bytes:
            rescan_io = inner_bytes * cost.seq_page_read // ctx.config.page_size

        first_outer = True
        for outer_row in self._outer_child.rows():
            if outer_row is PULSE:
                yield outer_row
                continue
            ctx.clock.advance(per_outer_cpu, CPU)
            if rescan_io and not first_outer:
                ctx.clock.advance(rescan_io, IO)
            first_outer = False
            for inner_row in inner_rows:
                merged = outer_row + inner_row
                keep = True
                for predicate in predicates:
                    if not predicate(merged):
                        keep = False
                        break
                if keep:
                    yield combine(outer_row, inner_row)

    def close(self) -> None:
        self._outer_child.close()
        self._inner_child.close()
