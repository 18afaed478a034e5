"""The benchmark's three workloads.

Each workload turns ``--seed`` into its query stream (SQL texts and
their order, deadlines, fault plan, ANALYZE schedule) once, then runs
*passes*: one pass builds nothing, it drives a freshly built database
through the workload's fixed unit of work and returns one
:class:`QueryRecord` per query plus the pass's virtual-time signature.
The data set is the same for every seed (:data:`DATA_SEED`), like the
paper's one Table 1 data set.  Every pass of one invocation runs the
same inputs on an identically built database, so every pass must give
the same signature (the determinism check).

* ``paper_q1_q5`` -- closed loop, one client: rounds of the five paper
  queries, each once monitored and once with ``monitor=False`` in a
  seeded order, cold buffer pool before every query (the paper restarts
  before each test).
* ``service_backlog`` -- a fixed backlog submitted up front to
  ``db.service()`` and drained by one driver calling ``step()``.
* ``adhoc_analyze`` -- closed loop, one client: distinct SQL texts of
  five shapes with seed-drawn literals, ``db.analyze(table)`` every
  ``ANALYZE_EVERY`` queries.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.fault.plan import BufferPressureWindow, FaultPlan, SlowDiskWindow
from repro.sched.task import FINISHED
from repro.workloads import queries, tpcr

_clock = time.perf_counter

#: Generator seed of the TPC-R data set every workload runs on.
DATA_SEED = 42
#: Real seconds between two calibration-loop probes within a pass.
PROBE_INTERVAL = 0.5


def calibration_loop() -> float:
    """Real seconds of a fixed pure-Python loop (the machine's speed)."""
    t0 = _clock()
    sum(i * i for i in range(200_000))
    return _clock() - t0


class SpeedProbe:
    """Samples the machine's speed during one pass.

    The host's speed drifts by tens of percent over tens of seconds, so
    a pass runs :func:`calibration_loop` about every
    :data:`PROBE_INTERVAL` real seconds, between queries or scheduler steps, and time metrics are
    also reported in units of the loop's time measured in the same pass.
    ``spent`` is the real time the probes took; the pass subtracts it
    from its wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0

    def maybe(self) -> None:
        now = _clock()
        if now < self._due:
            return
        self.samples.append(calibration_loop())
        end = _clock()
        self.spent += end - now
        self._due = end + PROBE_INTERVAL

    @property
    def current(self) -> float:
        """The machine's recent speed: median of the last three samples."""
        return statistics.median(self.samples[-3:])


@dataclass
class QueryRecord:
    """One timed query: what the benchmark measured and checked."""

    name: str
    #: Query class: metrics that average per class group on this.
    cls: str
    sql: str
    monitored: bool
    #: Real seconds the program spent on this query.
    real_s: float
    #: The same, in calibration-loop times measured around it.
    cal_s: float
    state: str
    rows: int
    #: Virtual seconds from first slice to the end (None if never run).
    virtual_s: Optional[float] = None
    #: (elapsed, fraction_done, finished) per progress report.
    reports: tuple = ()
    #: Virtual elapsed at the end of a finished monitored query.
    final_elapsed: Optional[float] = None
    done_pages: Optional[float] = None
    slices: int = 0
    #: Real seconds from submit to the first progress report.
    first_report_s: Optional[float] = None
    #: Real seconds from submit to the first slice (traced passes only).
    queue_wait_s: Optional[float] = None


@dataclass
class PassResult:
    records: list[QueryRecord]
    signature: tuple
    wall_s: float
    #: Real seconds per ``db.analyze`` call made during the pass.
    analyze_s: list[float] = field(default_factory=list)
    virtual_s: float = 0.0
    buffer_hits: int = 0
    buffer_misses: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    #: Calibration-loop times sampled during the pass.
    calibration: list[float] = field(default_factory=list)


def _record(name, cls, sql, monitored, real_s, cal_s, task, first_report_at=None,
            submitted_at=None) -> QueryRecord:
    """Fill a record from a scheduler task's public fields."""
    rec = QueryRecord(
        name=name, cls=cls, sql=sql, monitored=monitored, real_s=real_s, cal_s=cal_s,
        state=task.state, rows=task.row_count, slices=len(task.slices),
    )
    if task.started_at is not None and task.finished_at is not None:
        rec.virtual_s = task.finished_at - task.started_at
    log = task.log
    if log is not None:
        rec.reports = tuple(
            (r.elapsed, r.fraction_done, r.finished) for r in log.reports
        )
        rec.done_pages = log.reports[-1].done_pages if log.reports else 0.0
        if task.state == FINISHED:
            rec.final_elapsed = log.finished_at - log.started_at
    if submitted_at is not None:
        if first_report_at is not None:
            rec.first_report_s = first_report_at - submitted_at
        first_next = getattr(task.gen, "first_next_at", None)
        if first_next is not None:
            rec.queue_wait_s = first_next - submitted_at
    return rec


def _counters(db) -> tuple:
    io = db.disk.io_counters()
    return (
        db.clock.now, db.buffer_pool.hits, db.buffer_pool.misses,
        io["seq_reads"] + io["random_reads"], io["writes"],
    )


def _finish_pass(db, before: tuple, records, signature, wall, probe, analyze_s=()):
    after = _counters(db)
    return PassResult(
        records=records, signature=signature, wall_s=wall,
        analyze_s=list(analyze_s), calibration=probe.samples,
        virtual_s=after[0] - before[0],
        buffer_hits=after[1] - before[1],
        buffer_misses=after[2] - before[2],
        disk_reads=after[3] - before[3],
        disk_writes=after[4] - before[4],
    )


def _closed_loop_query(db, name, cls, sql, monitored, probe) -> tuple:
    """One client request: ``db.connect().submit(...).result()``.

    Returns the :func:`_record` arguments; records are built after the
    pass clock stops.
    """
    probe.maybe()
    t0 = _clock()
    handle = db.connect().submit(
        sql, name=name, monitor=monitored, keep_rows=False
    )
    try:
        handle.result()
    except ReproError:
        pass  # the record carries the terminal state
    real = _clock() - t0
    return (name, cls, sql, monitored, real, real / probe.current, handle.task, None, t0)


class Workload:
    """Inputs from one seed, plus how to build and drive a database."""

    name = ""
    scale = 0.002
    subset_rows: Optional[int] = None

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed

    def config(self) -> SystemConfig:
        return SystemConfig()

    def build(self, engine: str = "batch"):
        """Set-up: data generation + load + ANALYZE (the ``setup_s`` unit)."""
        config = self.config()
        if engine != "batch":
            config = config.with_progress(engine=engine)
        return tpcr.build_database(
            scale=self.scale, config=config,
            subset_rows=self.subset_rows, seed=DATA_SEED,
        )

    def distinct_sql(self) -> list[str]:
        raise NotImplementedError

    def run_pass(self, db) -> PassResult:
        raise NotImplementedError


class PaperQueries(Workload):
    name = "paper_q1_q5"
    scale = 0.01
    subset_rows = None
    rounds_per_pass = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.scale = 0.002
            self.subset_rows = 60
        rng = random.Random(seed)
        #: (query name, SQL, monitored) in this seed's order, one round
        #: after another.
        self.runs = []
        for _ in range(self.rounds_per_pass):
            round_ = [
                (qname, sql, monitored)
                for qname, sql in queries.PAPER_QUERIES.items()
                for monitored in (True, False)
            ]
            rng.shuffle(round_)
            self.runs.extend(round_)

    def config(self) -> SystemConfig:
        # Small work_mem: the Q2/Q4 hash joins spill, as in the paper.
        return SystemConfig(work_mem_pages=24)

    def distinct_sql(self) -> list[str]:
        return list(queries.PAPER_QUERIES.values())

    def run_pass(self, db) -> PassResult:
        before = _counters(db)
        done = []
        probe = SpeedProbe()
        t0 = _clock()
        for i, (qname, sql, monitored) in enumerate(self.runs):
            db.restart()
            name = f"{qname}.{'monitored' if monitored else 'plain'}.{i}"
            done.append(_closed_loop_query(db, name, qname, sql, monitored, probe))
        wall = _clock() - t0 - probe.spent
        records = [_record(*args) for args in done]
        signature = tuple((r.name, r.rows, r.virtual_s) for r in records)
        return _finish_pass(db, before, records, signature, wall, probe)


#: The ``bench_saturation`` mix: two thirds light, one third heavy.
LIGHT = (
    "select * from lineitem",
    "select * from customer",
    "select c.custkey, o.totalprice from customer c, orders o "
    "where c.custkey = o.custkey",
)
HEAVY = (
    "select c.custkey, o.totalprice, l.extendedprice "
    "from customer c, orders o, lineitem l "
    "where c.custkey = o.custkey and o.orderkey = l.orderkey"
)
SQL_CLASS = {LIGHT[0]: "scan_lineitem", LIGHT[1]: "scan_customer",
             LIGHT[2]: "join2", HEAVY: "join3"}


class ServiceBacklog(Workload):
    name = "service_backlog"
    scale = 0.002
    subset_rows = 60
    max_inflight = 64

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        size = 120 if smoke else 1000
        rng = random.Random(seed)
        self.backlog: list[tuple[str, float]] = []
        for i in range(size):
            if i % 3 == 0:
                self.backlog.append((HEAVY, rng.uniform(40.0, 90.0)))
            else:
                self.backlog.append((LIGHT[i % len(LIGHT)], rng.uniform(80.0, 250.0)))

    def config(self) -> SystemConfig:
        # A 24-page pool under a 138-page working set.
        return SystemConfig(work_mem_pages=8, buffer_pool_pages=24).with_service(
            max_inflight=self.max_inflight,
            admission_queue_limit=2 * len(self.backlog),
            shedding=True,
            policy_interval=2.0,
            deprioritize_after=1,
            shed_after=2,
        )

    def fault_plan(self) -> FaultPlan:
        """Mild chaos: transient faults with recovery, one slow-disk and
        one buffer-pressure window; every query stays completable."""
        return FaultPlan(
            seed=self.seed,
            transient_read_rate=0.008,
            transient_write_rate=0.004,
            max_repeat=1,
            slow_windows=(SlowDiskWindow(start=5.0, end=25.0, factor=2.5, period=60.0),),
            pressure_windows=(
                BufferPressureWindow(start=10.0, end=20.0, reserved_frames=8, period=50.0),
            ),
        )

    def distinct_sql(self) -> list[str]:
        return list(dict.fromkeys(sql for sql, _ in self.backlog))

    def run_pass(self, db) -> PassResult:
        db.install_faults(self.fault_plan())
        service = db.service()
        before = _counters(db)
        real: dict[str, float] = {}
        real_cal: dict[str, float] = {}
        submitted_at: dict[str, float] = {}
        first_report: dict[str, float] = {}

        inner_retire = service.scheduler.on_retire

        def on_retire(task) -> None:
            inner_retire(task)
            # The final report was just taken; a query that never gave a
            # periodic one first reports here.
            first_report.setdefault(task.name, _clock())

        service.scheduler.on_retire = on_retire

        def reporter(name: str) -> Callable:
            return lambda _report: first_report.setdefault(name, _clock())

        handles = []
        probe = SpeedProbe()
        t0 = _clock()
        for i, (sql, timeout) in enumerate(self.backlog):
            name = f"s{i}"
            probe.maybe()
            ts = _clock()
            handles.append(service.submit(
                sql, name=name, keep_rows=False, timeout=timeout,
                on_report=reporter(name),
            ))
            submitted_at[name] = ts
            real[name] = _clock() - ts
            real_cal[name] = real[name] / probe.current
        while True:
            probe.maybe()
            ts = _clock()
            task = service.step()
            if task is None:
                break
            dt = _clock() - ts
            real[task.name] += dt
            real_cal[task.name] += dt / probe.current
        wall = _clock() - t0 - probe.spent

        records = [
            _record(h.name, SQL_CLASS[sql], sql, True, real[h.name], real_cal[h.name], h.task,
                    first_report.get(h.name), submitted_at[h.name])
            for h, (sql, _) in zip(handles, self.backlog)
        ]
        signature = (
            tuple(h.state for h in handles),
            len(service.scheduler.slices),
            db.clock.now,
        )
        return _finish_pass(db, before, records, signature, wall, probe)


#: Ad-hoc query shapes: (template, low, high) of the one literal.
SHAPES = {
    "scan_filter": (
        "select orderkey, partkey, extendedprice from lineitem "
        "where quantity > {:.2f}", 1.0, 50.0,
    ),
    "join2": (
        "select c.custkey, c.acctbal, o.orderkey, o.totalprice "
        "from customer c, orders o "
        "where c.custkey = o.custkey and o.totalprice > {:.2f}", 900.0, 500_000.0,
    ),
    "join3": (
        "select c.custkey, o.orderkey, l.extendedprice "
        "from customer c, orders o, lineitem l "
        "where c.custkey = o.custkey and o.orderkey = l.orderkey "
        "and c.acctbal > {:.2f}", -1_000.0, 10_000.0,
    ),
    "group_agg": (
        "select returnflag, linestatus, count(*), sum(quantity), "
        "avg(extendedprice) from lineitem where partkey < {:.0f} "
        "group by returnflag, linestatus", 1.0, 200_000.0,
    ),
    "order_by": (
        "select orderkey, custkey, totalprice from orders "
        "where orderdate > {:.0f} order by totalprice desc", 8_000.0, 11_000.0,
    ),
}
ANALYZE_TABLES = ("customer", "orders", "lineitem")
#: Queries between two ``db.analyze(table)`` calls.
ANALYZE_EVERY = 20


def _stratified(rng: random.Random, low: float, high: float, n: int) -> list[float]:
    """``n`` literals, one near the middle of each of ``n`` equal strata
    of [low, high) (within 2% of the stratum's width), in seeded order:
    every seed asks for the same spread of selectivities, so seeds differ
    in texts and order but hardly in work or estimation error, and no two
    literals of one shape format alike."""
    width = (high - low) / n
    strata = list(range(n))
    rng.shuffle(strata)
    return [low + width * (k + 0.48 + 0.04 * rng.random()) for k in strata]


class AdhocAnalyze(Workload):
    name = "adhoc_analyze"
    scale = 0.002
    subset_rows = 60

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        per_shape = 8 if smoke else 40
        rng = random.Random(seed)
        literals = {
            shape: _stratified(rng, low, high, per_shape)
            for shape, (_, low, high) in SHAPES.items()
        }
        first_table = rng.randrange(len(ANALYZE_TABLES))
        #: ("query", shape, sql) or ("analyze", table, None), in order.
        self.schedule: list[tuple[str, str, Optional[str]]] = []
        count = 0
        for i in range(per_shape):
            for shape, (template, _, _) in SHAPES.items():
                self.schedule.append(("query", shape, template.format(literals[shape][i])))
                count += 1
                if count % ANALYZE_EVERY == 0:
                    table = ANALYZE_TABLES[
                        (first_table + count // ANALYZE_EVERY) % len(ANALYZE_TABLES)
                    ]
                    self.schedule.append(("analyze", table, None))
        assert len(set(self.distinct_sql())) == count

    def distinct_sql(self) -> list[str]:
        return [sql for kind, _, sql in self.schedule if kind == "query"]

    def run_pass(self, db) -> PassResult:
        before = _counters(db)
        done = []
        analyze_s = []
        probe = SpeedProbe()
        t0 = _clock()
        for i, (kind, what, sql) in enumerate(self.schedule):
            if kind == "analyze":
                ts = _clock()
                db.analyze(what)
                analyze_s.append(_clock() - ts)
                continue
            done.append(_closed_loop_query(db, f"a{i}", what, sql, True, probe))
        wall = _clock() - t0 - probe.spent
        records = [_record(*args) for args in done]
        signature = tuple((r.rows, r.virtual_s) for r in records)
        return _finish_pass(db, before, records, signature, wall, probe, analyze_s)


WORKLOADS = {w.name: w for w in (PaperQueries, ServiceBacklog, AdhocAnalyze)}

