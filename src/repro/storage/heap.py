"""Heap files: the on-disk representation of tables and spill streams."""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.storage.disk import FileHandle, SimulatedDisk
from repro.storage.page import Page
from repro.storage.schema import Schema


class HeapFile:
    """An unordered collection of rows in pages.

    Used both for base tables (bulk-loaded cost-free before an experiment
    starts) and for temp spill files (written with I/O charged).  Reads are
    performed by the executor through the buffer pool (base tables) or the
    disk directly (temp files); this class only owns layout and append.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        disk: SimulatedDisk,
        page_size: int,
        temp: bool = False,
    ):
        self.name = name
        self.schema = schema
        self._disk = disk
        self._page_size = page_size
        self.handle: FileHandle = disk.allocate(name, temp=temp)
        self._open_page: Page | None = None
        #: Bytes the open page still takes before an append writes it
        #: out (unbounded while no row is open: a fresh page takes any).
        self.room: float = math.inf
        self.num_tuples = 0
        self.total_bytes = 0
        #: Whether appends charge I/O time (False while bulk loading).
        self.charge_io = temp

    # ------------------------------------------------------------------
    # writing

    def append(self, row: Sequence[Any], width: Optional[int] = None) -> None:
        """Append one row, flushing the open page when it fills.

        ``width`` is the row's schema width when the caller knows it;
        the append writes a page exactly when ``width > self.room``.
        """
        if width is None:
            width = self.schema.row_width(row)
        page = self._open_page
        if page is None:
            page = Page(self._page_size)
            self._open_page = page
        elif width > self.room:
            self._disk.append_page(self.handle, page, charge_io=self.charge_io)
            page = Page(self._page_size)
            self._open_page = page
        page.append(row, width)
        self.room = self._page_size - page.bytes_used
        self.num_tuples += 1
        self.total_bytes += width

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    def flush(self) -> None:
        """Force the open page to disk (call after the last append)."""
        if self._open_page is not None and len(self._open_page):
            self._disk.append_page(self.handle, self._open_page, charge_io=self.charge_io)
        self._open_page = None
        self.room = math.inf

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> None:
        """Load rows without charging I/O (experiment setup path)."""
        previous = self.charge_io
        self.charge_io = False
        try:
            self.extend(rows)
            self.flush()
        finally:
            self.charge_io = previous

    # ------------------------------------------------------------------
    # geometry

    @property
    def num_pages(self) -> int:
        return self.handle.num_pages

    def avg_tuple_width(self) -> float:
        """Mean stored row width in bytes (header included)."""
        return self.total_bytes / self.num_tuples if self.num_tuples else 0.0

    # ------------------------------------------------------------------
    # raw iteration (cost-free; the executor charges through buffer/disk)

    def iter_pages(self) -> Iterator[Page]:
        """Yield pages without charging any I/O (catalog/ANALYZE use)."""
        yield from self.handle.pages

    def iter_rows(self) -> Iterator[tuple]:
        """Yield rows without charging any I/O."""
        for page in self.handle.pages:
            yield from page.rows

    def drop(self) -> None:
        """Release the underlying file (temp cleanup)."""
        self._disk.deallocate(self.handle)
        self._open_page = None
        self.room = math.inf

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.name!r}, tuples={self.num_tuples}, "
            f"pages={self.num_pages}, bytes={self.total_bytes})"
        )
