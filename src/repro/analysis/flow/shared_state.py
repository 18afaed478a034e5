"""The ownership registry of shared mutable engine objects.

A *shared object* is one that several in-flight queries (or the scheduler
and a query) observe concurrently in virtual time: the buffer pool, the
simulated disk, the virtual clock, a trace bus, the catalog, the
prepared-plan cache, and the scheduler's task table.  Each entry names

* the owning class — the only code allowed to store to the object's
  registered attributes (everyone else must go through the owner's
  mediating API: ``set_owner``, ``set_trace``, ``set_faults``, ...);
* its **receiver aliases** — the local/attribute names the codebase
  conventionally binds instances to (``ctx.buffer_pool``, ``disk``,
  ``self._clock``), which is how a purely syntactic analysis recognises
  a receiver as shared without type inference;
* the **registered attributes** whose raw mutation from outside the
  owner is an atomicity hazard (REPRO100) and whose read/write straddling
  a yield inside the owner is one too (REPRO101/102).

The alias convention is enforced socially, not mechanically: binding a
``BufferPool`` to a name like ``x`` hides it from this analysis.  The
hybrid trace cross-check (:mod:`~repro.analysis.flow.crosscheck`) exists
precisely to catch the static story drifting from runtime behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SharedObject:
    """One shared mutable engine object and its ownership contract."""

    #: ClassInfo key of the owner ("repro.sim.clock.VirtualClock").
    cls: str
    #: Receiver names an instance is conventionally bound to.
    aliases: frozenset[str]
    #: Instance attributes whose unmediated external mutation is flagged.
    attrs: frozenset[str]
    description: str

    @property
    def class_name(self) -> str:
        return self.cls.rsplit(".", 1)[1]

    @property
    def module(self) -> str:
        return self.cls.rsplit(".", 1)[0]


SHARED_STATE_REGISTRY: tuple[SharedObject, ...] = (
    SharedObject(
        cls="repro.sim.clock.VirtualClock",
        aliases=frozenset({"clock", "_clock"}),
        attrs=frozenset({
            "_now", "cost_charged", "_timers", "_ticker_seq",
            "_firing", "_load", "_factors", "_next_event",
        }),
        description="the virtual clock every query charges time against",
    ),
    SharedObject(
        cls="repro.storage.disk.SimulatedDisk",
        aliases=frozenset({"disk", "_disk"}),
        attrs=frozenset({
            "trace", "faults", "seq_reads", "random_reads", "writes",
            "_owner", "_owner_counters", "_files", "_ids",
        }),
        description="the simulated disk shared by all files and queries",
    ),
    SharedObject(
        cls="repro.storage.buffer.BufferPool",
        aliases=frozenset({"pool", "buffer_pool", "_pool", "_buffer_pool"}),
        attrs=frozenset({
            "trace", "faults", "hits", "misses", "_frames", "_pins",
        }),
        description="the LRU buffer pool in-flight queries contend for",
    ),
    SharedObject(
        cls="repro.obs.bus.TraceBus",
        aliases=frozenset({"trace", "bus", "trace_bus", "_trace", "_bus"}),
        attrs=frozenset({"events", "_subscribers", "_last_t", "_counts"}),
        description="a trace bus with monotonic-timestamp state",
    ),
    SharedObject(
        cls="repro.catalog.catalog.Catalog",
        aliases=frozenset({"catalog", "_catalog"}),
        attrs=frozenset({"_tables"}),
        description="the table catalog (DDL mutates it mid-workload)",
    ),
    SharedObject(
        cls="repro.planner.cache.PlanCache",
        aliases=frozenset({"plan_cache", "_plan_cache"}),
        attrs=frozenset({"_entries"}),
        description="the prepared-plan cache every submission goes through",
    ),
    SharedObject(
        cls="repro.sched.scheduler.CooperativeScheduler",
        aliases=frozenset({"scheduler", "sched", "_scheduler"}),
        attrs=frozenset({"tasks", "slices", "_seq"}),
        description="the cooperative scheduler's task table and slice log",
    ),
)


def receiver_type_map() -> dict[str, str]:
    """alias -> owner ClassInfo key, for call-graph receiver resolution.

    ``trace``/``bus`` style aliases are unambiguous; where two owners
    could claim an alias the registry is constructed so they do not.
    """
    out: dict[str, str] = {}
    for obj in SHARED_STATE_REGISTRY:
        for alias in obj.aliases:
            out.setdefault(alias, obj.cls)
    # Not a *shared* object, but a conventional receiver the resolver
    # benefits from knowing: the per-query work tracker.
    out.setdefault("tracker", "repro.executor.work.WorkTracker")
    return out


def owner_for_store(receiver_tail: str, attr: str) -> "SharedObject | None":
    """The registry entry a store ``<...>.<receiver_tail>.<attr> = v``
    touches, if any."""
    for obj in SHARED_STATE_REGISTRY:
        if receiver_tail in obj.aliases and attr in obj.attrs:
            return obj
    return None


def registry_entry(class_key: str) -> "SharedObject | None":
    for obj in SHARED_STATE_REGISTRY:
        if obj.cls == class_key:
            return obj
    return None
