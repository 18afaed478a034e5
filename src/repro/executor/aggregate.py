"""Hash aggregation and standalone filtering.

:class:`HashAggregateOp` is a blocking operator: it drains its child into
a hash table of per-group accumulator states, then streams the finalized
group rows.  For the progress indicator this is a segment boundary
exactly like a hash build or a sort — the paper's segment model extends
to grouped queries with no new machinery (this is part of the "wider
classes of queries" future work of Section 6).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ExecutionError
from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.executor.rowops import layout_of, row_width_fn
from repro.expr.bound import AggregateExpr
from repro.expr.compiler import compile_expr, compile_predicate
from repro.planner.physical import FilterNode, HashAggregateNode
from repro.sim.load import CPU


class _AggState:
    """Accumulator for one group: one slot per aggregate."""

    __slots__ = ("counts", "sums", "mins", "maxs")

    def __init__(self, num_aggs: int):
        self.counts = [0] * num_aggs
        self.sums = [0.0] * num_aggs
        self.mins: list[Any] = [None] * num_aggs
        self.maxs: list[Any] = [None] * num_aggs


class HashAggregateOp(Operator):
    def __init__(self, node: HashAggregateNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)
        child_layout = layout_of(node.child.columns)
        key_slots = [child_layout[k] for k in node.group_keys]
        if not key_slots:
            self._key = lambda row: ()
        elif len(key_slots) == 1:
            slot = key_slots[0]
            self._key = lambda row: row[slot]
        else:
            self._key = lambda row: tuple(row[s] for s in key_slots)
        self._key_slots = key_slots
        self._arg_fns = []
        for agg in node.aggregates:
            if not isinstance(agg, AggregateExpr):
                raise ExecutionError("aggregate node holds a non-aggregate")
            if agg.arg is None:
                self._arg_fns.append(None)  # count(*)
            else:
                self._arg_fns.append(compile_expr(agg.arg, child_layout))
        self._width = row_width_fn(node.columns)

    def rows(self) -> Iterator[tuple]:
        node = self.node
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        segment = getattr(node, "pi_agg_segment", None)
        groups_ref = getattr(node, "pi_groups_input_ref", None)

        key_fn = self._key
        arg_fns = self._arg_fns
        kinds = [a.kind for a in node.aggregates]
        per_row = cost.cpu_hash + len(arg_fns) * cost.cpu_operator

        # ---- blocking phase: drain the child into group states --------
        groups: dict = {}
        group_rows: dict = {}
        saw_input = False
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            saw_input = True
            ctx.clock.advance(per_row, CPU)
            key = key_fn(row)
            state = groups.get(key)
            if state is None:
                state = _AggState(len(arg_fns))
                groups[key] = state
                group_rows[key] = row
            for i, fn in enumerate(arg_fns):
                if fn is None:  # count(*)
                    state.counts[i] += 1
                    continue
                value = fn(row)
                if value is None:
                    continue  # aggregates skip NULLs
                state.counts[i] += 1
                kind = kinds[i]
                if kind in ("sum", "avg"):
                    state.sums[i] += value
                elif kind == "min":
                    if state.mins[i] is None or value < state.mins[i]:
                        state.mins[i] = value
                elif kind == "max":
                    if state.maxs[i] is None or value > state.maxs[i]:
                        state.maxs[i] = value

        # Global aggregates over an empty input still produce one row.
        if not node.group_keys and not saw_input:
            groups[()] = _AggState(len(arg_fns))
            group_rows[()] = None

        # ---- finalize: build output rows, count them as segment output
        output: list[tuple] = []
        for key, state in groups.items():
            base_row = group_rows[key]
            values: list[Any] = [
                base_row[s] for s in self._key_slots
            ] if base_row is not None else []
            for i, kind in enumerate(kinds):
                values.append(self._finalize(kind, state, i))
            out = tuple(values)
            ctx.clock.advance(cost.cpu_tuple, CPU)
            if tracker is not None and segment is not None:
                tracker.output_rows(segment, 1, self._width(out))
            output.append(out)
        if tracker is not None and segment is not None:
            tracker.segment_finished(segment)

        # ---- streaming phase: the consumer segment reads the groups ---
        width_fn = self._width
        for out in output:
            ctx.clock.advance(cost.cpu_tuple, CPU)
            if tracker is not None and groups_ref is not None:
                tracker.input_rows(groups_ref[0], groups_ref[1], 1, width_fn(out))
            yield out

    @staticmethod
    def _finalize(kind: str, state: _AggState, i: int):
        if kind == "count":
            return state.counts[i]
        if kind == "sum":
            return state.sums[i] if state.counts[i] else None
        if kind == "avg":
            return state.sums[i] / state.counts[i] if state.counts[i] else None
        if kind == "min":
            return state.mins[i]
        if kind == "max":
            return state.maxs[i]
        raise ExecutionError(f"unknown aggregate kind {kind!r}")

    def close(self) -> None:
        self._child.close()


class FilterOp(Operator):
    """Evaluates standalone predicates (HAVING) over child rows."""

    def __init__(self, node: FilterNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._child = build_operator(node.child, ctx)
        layout = layout_of(node.child.columns)
        self._predicates = [compile_predicate(p, layout) for p in node.predicates]

    def rows(self) -> Iterator[tuple]:
        ctx = self.ctx
        per_row = len(self._predicates) * ctx.ticks.cpu_operator
        predicates = self._predicates
        for row in self._child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(per_row, CPU)
            keep = True
            for predicate in predicates:
                if not predicate(row):
                    keep = False
                    break
            if keep:
                yield row

    def close(self) -> None:
        self._child.close()
