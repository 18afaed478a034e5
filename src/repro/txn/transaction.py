"""Update/delete transactions over heap tables, with monitored rollback.

Scope is deliberately small — enough substrate for the rollback-progress
story, not a full transaction manager: one transaction at a time, no
concurrency control, physical undo records.  DML invalidates a table's
indexes (they address rows by position) and marks its statistics stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.rollback import RollbackMonitor
from repro.database import Database
from repro.errors import ExecutionError
from repro.sim.load import CPU, IO
from repro.sim.units import cost_ticks


@dataclass(frozen=True)
class UndoRecord:
    """One physical undo record.

    ``kind`` is "update" (restore ``row`` at slot) or "delete" (re-insert
    ``row`` at slot).  Records are replayed strictly last-to-first, so each
    restore sees exactly the state the operation left behind.
    """

    kind: str
    table: str
    page_no: int
    slot: int
    row: tuple


class Transaction:
    """A single-writer transaction with undo-based rollback."""

    #: Undo records per simulated log page (for I/O charging).
    _RECORDS_PER_LOG_PAGE = 64

    def __init__(self, db: Database):
        self._db = db
        self._undo: list[UndoRecord] = []
        self._state = "active"

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def undo_records(self) -> int:
        return len(self._undo)

    def _require_active(self) -> None:
        if self._state != "active":
            raise ExecutionError(f"transaction is {self._state}, not active")

    def _charge_row(self) -> None:
        cost = cost_ticks(self._db.config.cost)
        self._db.clock.advance(cost.cpu_tuple + cost.cpu_operator, CPU)

    def _charge_log(self) -> None:
        cost = cost_ticks(self._db.config.cost)
        self._db.clock.advance(cost.cpu_tuple, CPU)
        if len(self._undo) % self._RECORDS_PER_LOG_PAGE == 0:
            self._db.clock.advance(cost.page_write, IO)

    def _charge_page_write(self) -> None:
        self._db.clock.advance(cost_ticks(self._db.config.cost).page_write, IO)

    # ------------------------------------------------------------------
    # DML

    def update(
        self,
        table_name: str,
        set_values: dict[str, Callable[[tuple], Any]],
        where: Optional[Callable[[tuple], bool]] = None,
    ) -> int:
        """Update matching rows; returns the number updated.

        ``set_values`` maps column names to ``row -> new value`` callables
        (pass ``lambda row: constant`` for plain assignments).
        """
        self._require_active()
        table = self._db.catalog.get_table(table_name)
        schema = table.heap.schema
        slots = {name: schema.index_of(name) for name in set_values}
        updated = 0
        for page_no, page in enumerate(table.heap.iter_pages()):
            dirty = False
            for slot, row in enumerate(page.rows):
                self._charge_row()
                if where is not None and not where(row):
                    continue
                new_row = list(row)
                for name, fn in set_values.items():
                    new_row[slots[name]] = fn(row)
                new_tuple = tuple(new_row)
                if new_tuple == row:
                    continue
                self._undo.append(
                    UndoRecord("update", table.name, page_no, slot, row)
                )
                self._charge_log()
                page.bytes_used += schema.row_width(new_tuple) - schema.row_width(row)
                page.rows[slot] = new_tuple
                table.heap.total_bytes += (
                    schema.row_width(new_tuple) - schema.row_width(row)
                )
                dirty = True
                updated += 1
            if dirty:
                self._charge_page_write()
        if updated:
            self._mark_modified(table)
        return updated

    def delete(
        self,
        table_name: str,
        where: Optional[Callable[[tuple], bool]] = None,
    ) -> int:
        """Delete matching rows; returns the number deleted."""
        self._require_active()
        table = self._db.catalog.get_table(table_name)
        schema = table.heap.schema
        deleted = 0
        for page_no, page in enumerate(table.heap.iter_pages()):
            victims = []
            for slot, row in enumerate(page.rows):
                self._charge_row()
                if where is None or where(row):
                    victims.append(slot)
            if not victims:
                continue
            # Remove in descending slot order (and log in that order) so
            # reverse-order undo re-inserts ascending, reconstructing the
            # original layout exactly.
            for slot in reversed(victims):
                row = page.rows[slot]
                self._undo.append(
                    UndoRecord("delete", table.name, page_no, slot, row)
                )
                self._charge_log()
                del page.rows[slot]
                width = schema.row_width(row)
                page.bytes_used -= width
                table.heap.total_bytes -= width
                table.heap.num_tuples -= 1
                deleted += 1
            self._charge_page_write()
        if deleted:
            self._mark_modified(table)
        return deleted

    # ------------------------------------------------------------------
    # termination

    def commit(self) -> None:
        """Make the transaction's changes permanent and drop the undo log."""
        self._require_active()
        self._undo.clear()
        self._state = "committed"

    def rollback(
        self,
        monitor: Optional[RollbackMonitor] = None,
        on_record: Optional[Callable[[RollbackMonitor], None]] = None,
    ) -> RollbackMonitor:
        """Undo everything, reporting progress through a rollback monitor.

        Returns the monitor (a fresh one is created when none is passed),
        whose remaining-time estimates evolve as records are undone —
        the [15] technique the paper says integrates with its indicators.
        """
        self._require_active()
        if monitor is None:
            monitor = RollbackMonitor(len(self._undo), self._db.clock)
        cost = cost_ticks(self._db.config.cost)
        touched_pages: set[tuple[str, int]] = set()
        for record in reversed(self._undo):
            table = self._db.catalog.get_table(record.table)
            page = table.heap.handle.pages[record.page_no]
            schema = table.heap.schema
            width = schema.row_width(record.row)
            self._db.clock.advance(cost.cpu_tuple + cost.cpu_operator, CPU)
            if record.kind == "update":
                old = page.rows[record.slot]
                page.bytes_used += width - schema.row_width(old)
                table.heap.total_bytes += width - schema.row_width(old)
                page.rows[record.slot] = record.row
            elif record.kind == "delete":
                page.rows.insert(record.slot, record.row)
                page.bytes_used += width
                table.heap.total_bytes += width
                table.heap.num_tuples += 1
            else:
                raise ExecutionError(f"unknown undo kind {record.kind!r}")
            key = (record.table, record.page_no)
            if key not in touched_pages:
                touched_pages.add(key)
                self._db.clock.advance(cost.page_write, IO)
            monitor.record_rolled_back(1)
            if on_record is not None:
                on_record(monitor)
        self._undo.clear()
        self._state = "rolled back"
        return monitor

    # ------------------------------------------------------------------

    def _mark_modified(self, table) -> None:
        """DML side effects: positional indexes and statistics go stale."""
        table.indexes.clear()
        table.statistics = None
        self._db.buffer_pool.invalidate_file(table.heap.handle)


def rows_matching(
    db: Database, table_name: str, where: Callable[[tuple], bool]
) -> list[tuple]:
    """Convenience: collect rows of a table matching a Python predicate."""
    return [
        row
        for row in db.catalog.get_table(table_name).heap.iter_rows()
        if where(row)
    ]
