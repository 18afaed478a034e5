"""The simulated disk.

Every page read or write charges the virtual clock with I/O cost from the
cost model.  Sequential reads are cheap, random reads expensive, writes in
between — the ratio is what makes table scans, index probes and spill
passes occupy realistic proportions of a query's life, which in turn shapes
the speed curves in the paper's Figures 5, 10 and 14.

With a :class:`~repro.fault.FaultInjector` installed (``self.faults``),
charged transfers may fail: transient faults (device timeouts, checksum
mismatches) are retried here with bounded exponential backoff on the
virtual clock — emitting ``fault_injected`` / ``io_retry`` /
``io_gave_up`` trace events — while fatal faults (spill-space
exhaustion) propagate immediately.  Slow-disk windows multiply the I/O
cost instead of raising.  ``self.faults is None`` (the default) keeps
every hook a single identity test, the same near-zero pattern as tracing.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - fault/obs are imported lazily
    from repro.fault.injector import FaultInjector, InjectedFault
    from repro.obs.bus import TraceBus

from repro.config import CostModelConfig
from repro.errors import StorageError
from repro.sim.clock import VirtualClock
from repro.sim.load import IO
from repro.sim.units import cost_ticks, scaled
from repro.storage.page import Page


class FileHandle:
    """A file on the simulated disk: an ordered sequence of pages."""

    __slots__ = ("file_id", "name", "pages", "temp")

    def __init__(self, file_id: int, name: str, temp: bool):
        self.file_id = file_id
        self.name = name
        self.pages: list[Page] = []
        self.temp = temp

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    def __repr__(self) -> str:
        kind = "temp" if self.temp else "perm"
        return f"FileHandle({self.file_id}, {self.name!r}, {kind}, pages={len(self.pages)})"


class SimulatedDisk:
    """Allocates files and charges I/O time for page transfers.

    ``charge_io=False`` reads/writes are used only for cost-free setup
    (bulk-loading the test data set before the experiment clock starts).
    """

    def __init__(self, clock: VirtualClock, cost: CostModelConfig):
        self._clock = clock
        self._ticks = cost_ticks(cost)
        self._files: dict[int, FileHandle] = {}
        self._ids = itertools.count(1)
        # Observability counters.
        self.seq_reads = 0
        self.random_reads = 0
        self.writes = 0
        #: Optional repro.obs.TraceBus emitting PageRead/PageWritten events
        #: for charged I/O.  None (default) is the zero-cost disabled path.
        self.trace: Optional["TraceBus"] = None
        #: Optional repro.fault.FaultInjector consulted on every charged
        #: transfer.  None (default) is the zero-cost disabled path.
        self.faults: Optional["FaultInjector"] = None
        #: Current I/O owner label (set per scheduler slice); None disables
        #: per-owner attribution entirely (single-query fast path).
        self._owner: Optional[str] = None
        #: Per-owner I/O counters: owner -> {seq_reads, random_reads, writes}.
        self._owner_counters: dict[str, dict[str, int]] = {}

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    # ------------------------------------------------------------------
    # per-owner I/O attribution (scheduler slices)

    def set_owner(self, owner: Optional[str]) -> Optional[str]:
        """Attribute subsequent charged I/O to ``owner``; returns the prior
        owner so callers can restore it (the scheduler brackets each slice
        with ``set_owner``/restore)."""
        previous = self._owner
        self._owner = owner
        return previous

    def set_trace(self, trace: Optional["TraceBus"]) -> Optional["TraceBus"]:
        """Install (or clear) the trace bus; returns the prior bus so
        callers can restore it.  The mediating API for a shared-state
        attribute (see the ownership registry in repro.analysis.flow):
        the scheduler brackets each slice with ``set_trace``/restore."""
        previous = self.trace
        self.trace = trace
        return previous

    def set_faults(
        self, faults: Optional["FaultInjector"]
    ) -> Optional["FaultInjector"]:
        """Install (or clear) the fault injector; returns the prior one."""
        previous = self.faults
        self.faults = faults
        return previous

    def owner_counters(self, owner: str) -> dict[str, int]:
        """Copy of one owner's I/O counters (zeros if it never did I/O)."""
        counters = self._owner_counters.get(owner)
        if counters is None:
            return {"seq_reads": 0, "random_reads": 0, "writes": 0}
        return dict(counters)

    def _charge_owner(self, kind: str) -> None:
        counters = self._owner_counters.get(self._owner)  # type: ignore[arg-type]
        if counters is None:
            counters = {"seq_reads": 0, "random_reads": 0, "writes": 0}
            self._owner_counters[self._owner] = counters  # type: ignore[index]
        counters[kind] += 1

    # ------------------------------------------------------------------
    # file lifecycle

    def allocate(self, name: str, temp: bool = False) -> FileHandle:
        """Create a new empty file."""
        handle = FileHandle(next(self._ids), name, temp)
        self._files[handle.file_id] = handle
        return handle

    def deallocate(self, handle: FileHandle) -> None:
        """Drop a file (used to reclaim temp partitions and sort runs)."""
        self._files.pop(handle.file_id, None)
        handle.pages.clear()

    def file(self, file_id: int) -> FileHandle:
        """Look up a file handle by id; raises StorageError when absent."""
        try:
            return self._files[file_id]
        except KeyError:
            raise StorageError(f"no such file id: {file_id}") from None

    def temp_file_count(self) -> int:
        """Live temp files (spill partitions, sort runs) on the disk.

        Zero once every query reached a terminal state — the chaos
        harness asserts this on every path (finish, fail, cancel,
        timeout).
        """
        return sum(1 for f in self._files.values() if f.temp)

    # ------------------------------------------------------------------
    # charging

    def _charge_read(self, sequential: bool) -> None:
        """Charge one page read: counters, owner attribution, I/O time."""
        if sequential:
            self.seq_reads += 1
            if self._owner is not None:
                self._charge_owner("seq_reads")
            cost = self._ticks.seq_page_read
        else:
            self.random_reads += 1
            if self._owner is not None:
                self._charge_owner("random_reads")
            cost = self._ticks.random_page_read
        if self.faults is not None:
            cost = scaled(cost, self.faults.io_factor())
        self._clock.advance(cost, IO)

    def _charge_write(self) -> None:
        """Charge one page write: counters, owner attribution, I/O time."""
        self.writes += 1
        if self._owner is not None:
            self._charge_owner("writes")
        cost = self._ticks.page_write
        if self.faults is not None:
            cost = scaled(cost, self.faults.io_factor())
        self._clock.advance(cost, IO)

    # ------------------------------------------------------------------
    # fault recovery (transient I/O retry with backoff)

    def _recover(
        self,
        fault: "InjectedFault",
        handle: FileHandle,
        page_no: int,
        is_read: bool,
        sequential: bool = True,
    ) -> None:
        """Retry a faulted transfer with bounded exponential backoff.

        The original attempt already charged its I/O time and then
        failed; each retry waits its backoff (pure virtual wall time —
        visible to the speed monitor exactly like a stalled disk), pays
        the transfer cost again, and either clears the fault or, once the
        budget is spent, lets the transient error propagate.
        """
        injector = self.faults
        assert injector is not None
        policy = injector.plan.retry
        clock = self._clock
        if self.trace is not None:
            from repro.obs.events import FaultInjected

            self.trace.emit(FaultInjected(
                t=clock.now, fault=fault.fault,
                file_id=handle.file_id, page_no=page_no,
            ))
        failures_left = fault.failures - 1  # the original attempt failed once
        attempts = 1
        while attempts < policy.max_attempts:
            backoff = policy.backoff(attempts)
            clock.advance_wall(backoff)
            if is_read:
                self._charge_read(sequential)
            else:
                self._charge_write()
            attempts += 1
            injector.retries += 1
            if self.trace is not None:
                from repro.obs.events import IoRetried

                self.trace.emit(IoRetried(
                    t=clock.now, fault=fault.fault,
                    file_id=handle.file_id, page_no=page_no,
                    attempt=attempts, backoff=backoff,
                ))
            if failures_left == 0:
                return  # the retry went through clean
            failures_left -= 1
        injector.gave_up += 1
        if self.trace is not None:
            from repro.obs.events import IoGaveUp

            self.trace.emit(IoGaveUp(
                t=clock.now, fault=fault.fault,
                file_id=handle.file_id, page_no=page_no,
                attempts=attempts, error=repr(fault.error),
            ))
        raise fault.error

    def _inject_read(self, handle: FileHandle, page_no: int, sequential: bool) -> None:
        assert self.faults is not None
        fault = self.faults.on_read(handle.file_id, page_no)
        if fault is not None:
            self._recover(fault, handle, page_no, is_read=True, sequential=sequential)

    def _inject_write(self, handle: FileHandle, page_no: int) -> None:
        assert self.faults is not None
        fault = self.faults.on_write(handle.file_id, page_no)
        if fault is not None:
            self._recover(fault, handle, page_no, is_read=False)

    # ------------------------------------------------------------------
    # page transfer

    def read_page(
        self, handle: FileHandle, page_no: int, sequential: bool = True, charge_io: bool = True
    ) -> Page:
        """Read one page, charging sequential or random I/O time."""
        try:
            page = handle.pages[page_no]
        except IndexError:
            raise StorageError(
                f"page {page_no} out of range for file {handle.name!r} "
                f"({handle.num_pages} pages)"
            ) from None
        if charge_io:
            self._charge_read(sequential)
            if self.trace is not None:
                from repro.obs.events import PageRead

                self.trace.emit(PageRead(
                    t=self._clock.now, file_id=handle.file_id,
                    page_no=page_no, sequential=sequential,
                ))
            if self.faults is not None:
                self._inject_read(handle, page_no, sequential)
        return page

    def append_page(self, handle: FileHandle, page: Page, charge_io: bool = True) -> int:
        """Append a full page to a file, charging one page write."""
        page_no = len(handle.pages)
        if charge_io and self.faults is not None and handle.temp:
            # Fatal path first: an exhausted spill budget fails the write
            # before any time is charged (the device rejected it).
            self.faults.check_spill(handle.file_id, page_no)
        handle.pages.append(page)
        if charge_io:
            self._charge_write()
            if self.trace is not None:
                self._emit_write(handle, page_no)
            if self.faults is not None:
                self._inject_write(handle, page_no)
        return page_no

    def write_page(self, handle: FileHandle, page_no: int, page: Page, charge_io: bool = True) -> None:
        """Overwrite an existing page in place (buffer-pool eviction path)."""
        if not 0 <= page_no < handle.num_pages:
            raise StorageError(f"page {page_no} out of range for file {handle.name!r}")
        handle.pages[page_no] = page
        if charge_io:
            self._charge_write()
            if self.trace is not None:
                self._emit_write(handle, page_no)
            if self.faults is not None:
                self._inject_write(handle, page_no)

    def _emit_write(self, handle: FileHandle, page_no: int) -> None:
        from repro.obs.events import PageWritten

        assert self.trace is not None
        self.trace.emit(
            PageWritten(t=self._clock.now, file_id=handle.file_id, page_no=page_no)
        )

    def io_counters(self) -> dict[str, int]:
        """Snapshot of read/write counters (for tests and overhead benches)."""
        return {
            "seq_reads": self.seq_reads,
            "random_reads": self.random_reads,
            "writes": self.writes,
        }
