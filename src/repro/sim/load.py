"""Run-time system-load profiles.

The paper evaluates its indicator under three regimes (Section 5.1):

* an unloaded system,
* an *I/O interference* test where a large concurrent file copy runs during
  part of the query, and
* a *CPU interference* test where a CPU-intensive program runs.

We model each concurrent job as an :class:`InterferenceWindow` that scales
the virtual time charged for one resource class by a slowdown factor while
the window is active.  The progress indicator never sees these windows
directly; it only observes their effect on the query-execution speed, which
is exactly the information a real indicator would get.

Windows are declared in float seconds and float factors; the profile
answers the clock in its exact units (:mod:`repro.sim.units`): instants
and fixed-point factors, converted once when the profile is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.sim import units

#: Resource class for disk work (page reads/writes).
IO = "io"
#: Resource class for processor work (tuple handling, hashing, comparing).
CPU = "cpu"

_RESOURCES = (IO, CPU)


@dataclass(frozen=True)
class InterferenceWindow:
    """A concurrent job active during ``[start, end)`` virtual seconds.

    ``io_factor``/``cpu_factor`` multiply the virtual time charged for the
    corresponding resource while the window is active.  A large file copy is
    expressed as ``io_factor > 1``; a CPU hog as ``cpu_factor > 1``.  An
    ``end`` of ``math.inf`` means "runs until the query finishes", as in the
    paper's CPU interference test for Q5.
    """

    start: float
    end: float
    io_factor: float = 1.0
    cpu_factor: float = 1.0

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("interference window must have end > start")
        if self.io_factor <= 0 or self.cpu_factor <= 0:
            raise ValueError("slowdown factors must be positive")

    def factor(self, resource: str) -> float:
        """Return this window's slowdown factor for ``resource``."""
        if resource == IO:
            return self.io_factor
        if resource == CPU:
            return self.cpu_factor
        raise ValueError(f"unknown resource class: {resource!r}")


class LoadProfile:
    """A piecewise-constant system-load profile.

    The profile maps a clock instant and a resource class to a fixed-point
    slowdown factor (the product of all active windows' factors, so
    overlapping jobs compound).  ``next_change_after(at)`` exposes the next
    instant at which any factor changes, which lets the clock advance in
    large steps between boundaries.
    """

    def __init__(self, windows: Iterable[InterferenceWindow] = ()):
        self._windows = tuple(windows)
        #: (start, end) instants of each window, converted once.
        self._spans = [
            (units.instant(w.start), units.instant(w.end)) for w in self._windows
        ]
        boundaries = set()
        for start, end in self._spans:
            boundaries.add(start)
            if end != units.NEVER:
                boundaries.add(end)
        self._boundaries = sorted(boundaries)

    @classmethod
    def unloaded(cls) -> "LoadProfile":
        """An idle system: factor 1.0 everywhere."""
        return cls(())

    @classmethod
    def file_copy(cls, start: float, end: float, slowdown: float = 3.0) -> "LoadProfile":
        """The paper's I/O interference test: a file copy in [start, end)."""
        return cls([InterferenceWindow(start, end, io_factor=slowdown)])

    @classmethod
    def cpu_hog(cls, start: float, end: float = math.inf, slowdown: float = 2.5) -> "LoadProfile":
        """The paper's CPU interference test: a compute job from ``start``."""
        return cls([InterferenceWindow(start, end, cpu_factor=slowdown)])

    @property
    def windows(self) -> tuple[InterferenceWindow, ...]:
        return self._windows

    def factor(self, at: int, resource: str) -> int:
        """Fixed-point slowdown factor for ``resource`` at instant ``at``."""
        if resource not in _RESOURCES:
            raise ValueError(f"unknown resource class: {resource!r}")
        f = 1.0
        for w, (start, end) in zip(self._windows, self._spans):
            if start <= at < end:
                f *= w.factor(resource)
        return units.factor(f)

    def next_change_after(self, at: int) -> int:
        """First instant strictly after ``at`` where any factor changes."""
        for b in self._boundaries:
            if b > at:
                return b
        return units.NEVER

    def __repr__(self) -> str:
        return f"LoadProfile({list(self._windows)!r})"
