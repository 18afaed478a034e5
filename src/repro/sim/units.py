"""Exact integer units of virtual time, work cost and load.

Every quantity the virtual clock and the work tracker add up is an
integer, so any sequence of additions is exact and order-free: ``n``
charges of ``c`` equal one charge of ``n * c``, and a byte count summed
per row equals the same count summed per page.  That is what lets the
fused engine (:mod:`repro.executor.fused`) account per page and per
clock event instead of per row and still agree with the row engine bit
for bit.

The units:

* **cost ticks** -- work charged to the clock.  One tick is
  ``1 / TICKS_PER_SECOND`` seconds of unloaded work (a microsecond).
  :class:`CostTicks` holds the cost model in ticks, converted once from
  :class:`~repro.config.CostModelConfig` (whose values stay in seconds).
* **load factors** -- fixed point, ``FACTOR_ONE`` per 1.0, so the
  paper's slowdowns 2.5 and 3.0 are exactly 2500 and 3000.
* **instants** -- clock positions and ticker periods.  One cost tick
  at factor ``f`` lasts ``f`` instants, so a charge needs no division:
  ``now += ticks * factor``.  ``VirtualClock.now`` converts an instant
  to float seconds for every reader.
* **bytes** -- the tracker's U counters.  Row widths are integers; a
  per-tuple scan hands each row of a page an integer share of the
  page's ``bytes_used`` (:func:`share_prefix`).

Rounding happens in exactly two kinds of place, both outside the hot
path: converting a configured float (a cost, a factor, an interval, an
instant) into these units, and :func:`reprice`, which re-prices the rest
of a charge that straddles a load-factor change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

#: Cost ticks per second of unloaded work (one tick = 1 microsecond).
TICKS_PER_SECOND = 1_000_000
#: Fixed-point scale of load factors (1.0 -> 1000).
FACTOR_ONE = 1_000
#: Clock instants per virtual second (one instant = 1 nanosecond).
INSTANTS_PER_SECOND = TICKS_PER_SECOND * FACTOR_ONE
#: An instant no event ever reaches (a load profile with no more changes).
NEVER = 1 << 80


def ticks(seconds: float) -> int:
    """Cost ticks of ``seconds`` of unloaded work (rounded to nearest)."""
    return round(seconds * TICKS_PER_SECOND)


def factor(value: float) -> int:
    """Fixed-point form of a load factor; it must stay positive."""
    fp = round(value * FACTOR_ONE)
    if fp <= 0:
        raise ValueError(f"load factor {value!r} rounds to zero")
    return fp


def instant(seconds: float) -> int:
    """Clock instant (or span) of ``seconds``; infinity maps to NEVER."""
    if math.isinf(seconds):
        return NEVER if seconds > 0 else -NEVER
    return round(seconds * INSTANTS_PER_SECOND)


def seconds(at: int) -> float:
    """Float seconds of a clock instant (correctly rounded)."""
    return at / INSTANTS_PER_SECOND


def scaled(cost: int, multiplier: float) -> int:
    """``cost`` ticks stretched by a float multiplier (fault slowdowns)."""
    return cost * factor(multiplier) // FACTOR_ONE


def reprice(span: int, old: int, new: int) -> int:
    """The rest of a charge, ``span`` instants at factor ``old``, at ``new``.

    The one rounding of the clock: a charge that straddles a load-factor
    change is split at the change, and its remainder is re-priced to the
    nearest instant.
    """
    return (span * new + old // 2) // old


def share_prefix(total: int, rows: int, k: int) -> int:
    """Bytes of the first ``k`` of ``rows`` rows sharing ``total`` bytes.

    Row ``j`` gets ``q + 1`` bytes for ``j < r`` and ``q`` after, with
    ``q, r = divmod(total, rows)``: integer shares that sum to ``total``
    exactly.
    """
    q, r = divmod(total, rows)
    return k * q + (k if k < r else r)


@dataclass(frozen=True)
class CostTicks:
    """The cost model in integer ticks (see :func:`cost_ticks`)."""

    seq_page_read: int
    random_page_read: int
    page_write: int
    cpu_tuple: int
    cpu_operator: int
    cpu_hash: int
    cpu_compare: int
    cpu_index_level: int


@lru_cache(maxsize=64)
def cost_ticks(cost) -> CostTicks:
    """Convert a :class:`~repro.config.CostModelConfig` to ticks, once."""
    return CostTicks(
        seq_page_read=ticks(cost.seq_page_read),
        random_page_read=ticks(cost.random_page_read),
        page_write=ticks(cost.page_write),
        cpu_tuple=ticks(cost.cpu_tuple),
        cpu_operator=ticks(cost.cpu_operator),
        cpu_hash=ticks(cost.cpu_hash),
        cpu_compare=ticks(cost.cpu_compare),
        cpu_index_level=ticks(cost.cpu_index_level),
    )
