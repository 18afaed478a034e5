"""Sort-merge join.

The paper's prototype skipped this operator; we implement the full design
described in Section 4.5: the join's segment has *two* dominant inputs
(the sorted runs of both sides) and finishes as soon as either input is
exhausted — which is why the estimator uses ``p = max(qA, qB)`` over the
two inputs' progress fractions.
"""

from __future__ import annotations

from typing import Iterator

from repro.executor.base import ExecContext, Operator, build_operator, pull
from repro.executor.rowops import combiner, concat_layout, layout_of
from repro.expr.compiler import compile_predicate
from repro.planner.physical import MergeJoinNode
from repro.sim.load import CPU


class MergeJoinOp(Operator):
    def __init__(self, node: MergeJoinNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._left_child = build_operator(node.left, ctx)
        self._right_child = build_operator(node.right, ctx)
        self._left_slot = layout_of(node.left.columns)[node.left_key]
        self._right_slot = layout_of(node.right.columns)[node.right_key]
        self._combine = combiner(node.left.columns, node.right.columns, node.columns)
        if node.extra_filters:
            layout = concat_layout(node.left.columns, node.right.columns)
            self._extra = [compile_predicate(f, layout) for f in node.extra_filters]
        else:
            self._extra = []

    def rows(self) -> Iterator[tuple]:
        ctx = self.ctx
        cost = ctx.ticks
        lslot = self._left_slot
        rslot = self._right_slot
        combine = self._combine
        extra = self._extra
        per_step = cost.cpu_compare
        per_match = cost.cpu_tuple + len(extra) * cost.cpu_operator

        # Children are advanced through ``pull`` so their PULSE markers
        # propagate to our caller between explicit next-row fetches.
        left = self._left_child.rows()
        right = self._right_child.rows()
        left_row = yield from pull(left)
        right_row = yield from pull(right)

        while left_row is not None and right_row is not None:
            ctx.clock.advance(per_step, CPU)
            lkey = left_row[lslot]
            rkey = right_row[rslot]
            # NULL keys never match; skip past them.
            if lkey is None:
                left_row = yield from pull(left)
                continue
            if rkey is None:
                right_row = yield from pull(right)
                continue
            if lkey < rkey:
                left_row = yield from pull(left)
            elif lkey > rkey:
                right_row = yield from pull(right)
            else:
                # Collect the full matching group on the right, then emit
                # the cross product with every matching left row.
                group = [right_row]
                right_row = yield from pull(right)
                while right_row is not None and right_row[rslot] == lkey:
                    ctx.clock.advance(per_step, CPU)
                    group.append(right_row)
                    right_row = yield from pull(right)
                while left_row is not None and left_row[lslot] == lkey:
                    ctx.clock.advance(per_match * len(group), CPU)
                    if extra:
                        for r in group:
                            merged = left_row + r
                            if all(p(merged) for p in extra):
                                yield combine(left_row, r)
                    else:
                        for r in group:
                            yield combine(left_row, r)
                    left_row = yield from pull(left)

    def close(self) -> None:
        self._left_child.close()
        self._right_child.close()
