"""Row-level helpers shared by join/sort operators: combining child rows,
computing actual stored widths, and building slot layouts."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.planner.physical import PlanColumn
from repro.storage.schema import TUPLE_HEADER_BYTES
from repro.storage.types import StringType


def layout_of(columns: Sequence[PlanColumn]) -> dict[tuple[int, int], int]:
    """Coordinate -> slot mapping for rows shaped like ``columns``."""
    return {col.coordinate: i for i, col in enumerate(columns)}


def row_width_fn(columns: Sequence[PlanColumn]) -> Callable[[tuple], int]:
    """Return a fast ``row -> stored width in bytes`` function.

    Width is exact per row: fixed-type widths are folded into a constant
    and only string slots are inspected, so the per-tuple cost stays low.
    """
    fixed = TUPLE_HEADER_BYTES
    var_slots: list[int] = []
    for i, col in enumerate(columns):
        if isinstance(col.type, StringType):
            var_slots.append(i)
        else:
            fixed += col.type.width(None)

    if not var_slots:
        return lambda row: fixed

    def width(row: tuple) -> int:
        w = fixed
        for i in var_slots:
            v = row[i]
            w += 1 if v is None else 1 + len(v)
        return w

    return width


def combiner(
    left_columns: Sequence[PlanColumn],
    right_columns: Sequence[PlanColumn],
    out_columns: Sequence[PlanColumn],
) -> Callable[[tuple, tuple], tuple]:
    """Build ``(left_row, right_row) -> output_row`` for a join.

    The output picks each column from whichever side produced it, in
    ``out_columns`` order (the optimizer prunes columns nobody needs).
    """
    left_slots = layout_of(left_columns)
    right_slots = layout_of(right_columns)
    plan: list[tuple[bool, int]] = []
    for col in out_columns:
        if col.coordinate in left_slots:
            plan.append((True, left_slots[col.coordinate]))
        else:
            plan.append((False, right_slots[col.coordinate]))

    def combine(left_row: tuple, right_row: tuple) -> tuple:
        return tuple(
            left_row[i] if from_left else right_row[i] for from_left, i in plan
        )

    return combine


def concat_layout(
    left_columns: Sequence[PlanColumn], right_columns: Sequence[PlanColumn]
) -> dict[tuple[int, int], int]:
    """Layout of ``left_row + right_row`` concatenations (for join filters)."""
    layout = layout_of(left_columns)
    offset = len(left_columns)
    for i, col in enumerate(right_columns):
        layout[col.coordinate] = offset + i
    return layout
