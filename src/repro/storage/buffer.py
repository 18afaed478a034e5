"""An LRU buffer pool in front of the simulated disk.

Base-table page reads go through the pool: a hit costs only a token CPU
charge, a miss pays the disk's I/O time.  This is what lets a query's
observed speed differ between "disk-bound" and "completely cached" — the
paper's Section 4.1 explicitly ranges the time-per-U between those poles.
With several in-flight queries (see :mod:`repro.sched`) the pool is the
shared resource they fight over: one query's pages evict another's, and
the loser's observed speed drops — contention the paper modeled with a
synthetic interference window now emerges from the workload itself.

Pages can be *pinned* while a query is actively consuming them: pinned
frames are exempt from eviction, so a scan suspended mid-page by the
scheduler finds its page still resident when resumed, and a cancelled
query releases its pins on the way out (the operator's cleanup path).

Temp files (spill partitions, sort runs) intentionally bypass the pool so
multi-stage passes always pay I/O.

A :class:`~repro.fault.FaultInjector` with buffer-pressure windows can
temporarily reserve frames (as if a co-tenant pinned them): the pool's
effective capacity drops while the window is active and recovers
afterwards.  No pages are lost — extra evictions just raise miss rates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - fault/obs are imported lazily
    from repro.fault.injector import FaultInjector
    from repro.obs.bus import TraceBus

from repro.config import CostModelConfig
from repro.errors import BufferPoolError
from repro.sim.load import CPU
from repro.sim.units import cost_ticks
from repro.storage.disk import FileHandle, SimulatedDisk
from repro.storage.page import Page


class BufferPool:
    """Fixed-capacity LRU cache of (file_id, page_no) -> Page."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int, cost: CostModelConfig):
        if capacity_pages <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self._disk = disk
        self._capacity = capacity_pages
        self._hit_ticks = cost_ticks(cost).cpu_operator
        self._frames: OrderedDict[tuple[int, int], Page] = OrderedDict()
        #: Pin refcounts per (file_id, page_no); pinned frames never evict.
        self._pins: dict[tuple[int, int], int] = {}
        self.hits = 0
        self.misses = 0
        #: Optional repro.obs.TraceBus emitting BufferAccess events.
        #: None (default) is the zero-cost disabled path.
        self.trace: Optional["TraceBus"] = None
        #: Optional repro.fault.FaultInjector whose pressure windows shrink
        #: the effective capacity.  None (default) is the zero-cost path.
        self.faults: Optional["FaultInjector"] = None

    def set_trace(self, trace: Optional["TraceBus"]) -> Optional["TraceBus"]:
        """Install (or clear) the trace bus; returns the prior bus so
        callers can restore it (the scheduler brackets each slice)."""
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

    @property
    def capacity(self) -> int:
        return self._capacity

    def effective_capacity(self) -> int:
        """Capacity minus any frames reserved by an active pressure window.

        Never below one frame — the pool stays functional, just badly
        squeezed (degrade, don't die).
        """
        if self.faults is None:
            return self._capacity
        reserved = self.faults.reserved_frames()
        if not reserved:
            return self._capacity
        return max(1, self._capacity - reserved)

    @property
    def num_cached(self) -> int:
        return len(self._frames)

    @property
    def pinned_count(self) -> int:
        """Number of distinct pages currently holding at least one pin."""
        return len(self._pins)

    def get_page(self, handle: FileHandle, page_no: int, sequential: bool = True) -> Page:
        """Fetch a page, charging I/O on a miss and a token CPU hit cost."""
        key = (handle.file_id, page_no)
        page = self._frames.get(key)
        if page is not None:
            self.hits += 1
            self._frames.move_to_end(key)
            self._disk.clock.advance(self._hit_ticks, CPU)
            if self.trace is not None:
                self._emit_access(handle, page_no, hit=True)
            return page
        self.misses += 1
        page = self._disk.read_page(handle, page_no, sequential=sequential)
        self._frames[key] = page
        limit = self._capacity if self.faults is None else self.effective_capacity()
        while len(self._frames) > limit:
            self._evict_one()
        if self.trace is not None:
            self._emit_access(handle, page_no, hit=False)
        return page

    def _evict_one(self) -> None:
        """Drop the least-recently-used unpinned frame."""
        pins = self._pins
        for key in self._frames:
            if key not in pins:
                del self._frames[key]
                return
        raise BufferPoolError(
            f"cannot evict: all {len(self._frames)} resident pages are pinned"
        )

    # ------------------------------------------------------------------
    # pinning

    def pin(self, handle: FileHandle, page_no: int) -> None:
        """Exempt a page from eviction while a query is consuming it.

        Pins are refcounted; every ``pin`` must be paired with an
        :meth:`unpin` (operators do this in ``finally`` blocks, so
        cancellation mid-segment releases them on the way out).
        """
        key = (handle.file_id, page_no)
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, handle: FileHandle, page_no: int) -> None:
        """Release one pin on a page.

        Tolerates pins already dropped wholesale by :meth:`clear` (a
        restart while abandoned generators are still pending collection),
        so operator cleanup paths can always unpin unconditionally.
        """
        key = (handle.file_id, page_no)
        count = self._pins.get(key)
        if count is None:
            return
        if count <= 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1

    def _emit_access(self, handle: FileHandle, page_no: int, hit: bool) -> None:
        from repro.obs.events import BufferAccess

        assert self.trace is not None
        self.trace.emit(BufferAccess(
            t=self._disk.clock.now, file_id=handle.file_id,
            page_no=page_no, hit=hit,
        ))

    def invalidate_file(self, handle: FileHandle) -> None:
        """Drop all cached pages of a file (after truncation/drop)."""
        stale = [key for key in self._frames if key[0] == handle.file_id]
        for key in stale:
            del self._frames[key]

    def clear(self) -> None:
        """Empty the pool (the paper restarts with a cold buffer pool)."""
        self._frames.clear()
        self._pins.clear()

    def hit_rate(self) -> float:
        """Fraction of requests served from memory."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
