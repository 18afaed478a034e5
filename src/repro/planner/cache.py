"""The prepared-plan cache behind :meth:`repro.database.Database.prepare`.

A service sees a handful of SQL texts submitted over and over; parsing,
binding and optimizing each submission again yields the same plan every
time.  The cache keeps one :class:`~repro.planner.optimizer.PlannedQuery`
per ``(SQL text, config object)`` pair, least recently used first out
past :data:`PLAN_CACHE_SIZE` entries.

A hit is only served while the catalog facts the optimizer read are
unchanged.  For every table the plan references the entry remembers the
``Table`` object, its ``statistics`` object, its heap page and tuple
counts and its index set; any difference (ANALYZE, committed DML,
``create_index``, drop and recreate) makes the lookup a miss, and the
re-planned query replaces the entry.

Plans with ``subplans`` are never cached: an IN-subquery's InitPlan
deposits its value set on the plan's own expression tree
(``InSubqueryExpr.set_result``), so two in-flight executions of one
shared plan would probe with each other's sets.

Cached plans are shared by every execution of their text and must be
treated as read-only.  The fused engine keeps its compiled code objects
on the plan (``PlannedQuery.code_cache``), so they are evicted and
invalidated with it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.catalog.catalog import Catalog, Table
from repro.config import SystemConfig
from repro.planner.optimizer import PlannedQuery

#: Most plans one database keeps; the least recently used goes first.
PLAN_CACHE_SIZE = 64


class _TableFacts:
    """What planning read from one table: the table, its statistics
    object, its page and tuple counts, and its ``(column, index)`` pairs."""

    __slots__ = ("table", "statistics", "num_pages", "num_tuples", "indexes")

    def __init__(self, table: Table):
        self.table = table
        self.statistics = table.statistics
        self.num_pages = table.num_pages
        self.num_tuples = table.num_tuples
        self.indexes = tuple(table.indexes.items())

    def hold(self, catalog: Catalog) -> bool:
        """Whether ``catalog`` still shows this table exactly so."""
        table = self.table
        return (
            catalog.has_table(table.name)
            and catalog.get_table(table.name) is table
            and table.statistics is self.statistics
            and table.num_pages == self.num_pages
            and table.num_tuples == self.num_tuples
            and tuple(table.indexes.items()) == self.indexes
        )


class PlanCache:
    """A bounded LRU of prepared plans, validated against the catalog."""

    def __init__(self) -> None:
        #: (SQL text, id of the config) -> (plan, per-table facts).  The
        #: plan holds its config, so the id cannot be reused while cached.
        self._entries: OrderedDict[
            tuple[str, int], tuple[PlannedQuery, list[_TableFacts]]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, sql: str, config: SystemConfig, catalog: Catalog
    ) -> Optional[PlannedQuery]:
        """The cached plan for ``sql`` under ``config``, if ``catalog``
        still shows every table it references as planning saw it."""
        key = (sql, id(config))
        entry = self._entries.get(key)
        if entry is None:
            return None
        planned, facts = entry
        if planned.config is not config:
            return None
        for table_facts in facts:
            if not table_facts.hold(catalog):
                return None
        self._entries.move_to_end(key)
        return planned

    def put(self, sql: str, config: SystemConfig, planned: PlannedQuery) -> None:
        """Remember ``planned`` (unless it has subplans), evicting past
        :data:`PLAN_CACHE_SIZE`."""
        if planned.subplans:
            return
        key = (sql, id(config))
        facts = [_TableFacts(bound.table) for bound in planned.query.tables]
        self._entries[key] = (planned, facts)
        self._entries.move_to_end(key)
        if len(self._entries) > PLAN_CACHE_SIZE:
            self._entries.popitem(last=False)
