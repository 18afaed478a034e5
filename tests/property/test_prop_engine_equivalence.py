"""Property: the fused batch engine is bit-identical to the row engine.

The batch engine (``progress.engine = "batch"``) compiles each plan into
fused per-pipeline loops and ships rows in :class:`Batch` objects — a
pure real-time optimization.  Its contract is *bit identity* with the
reference volcano row engine: the same rows in the same order, the same
ProgressLog (every report field, float-for-float), and the same final
virtual-clock charge totals.  No tolerance anywhere: costs and bytes are
exact integers, so the fused engine's per-page and per-event commits must
land on exactly the row engine's per-row state.

This property is checked across every tier-1 workload grid variant
(~40 cells spanning scan/sort/agg/join/self-join/multi-join shapes, four
skew profiles, four selectivity levels, three scales) — the same grid CI
scores the estimator on.  Each engine keeps its own database (identical
build: same scale, skew and seed), restarted before every variant so
each comparison starts from a cold buffer pool and the engines' clock
histories stay pairwise identical.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.load import LoadProfile
from repro.workloads import grid, tpcr

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Engine -> (dataset_key -> Database); built lazily, shared module-wide.
_DATABASES: dict[str, dict] = {"row": {}, "batch": {}}


def _database(engine: str, variant: grid.Variant):
    cache = _DATABASES[engine]
    db = cache.get(variant.dataset_key)
    if db is None:
        config = SystemConfig().with_progress(engine=engine)
        db = cache[variant.dataset_key] = variant.build_database(config)
    return db


def _run(engine: str, variant: grid.Variant):
    """One monitored run; returns (rows, log, charge-delta-by-resource)."""
    db = _database(engine, variant)
    db.restart()
    before = dict(db.clock.cost_charged)
    handle = db.connect().submit(
        variant.sql, name=f"eq-{variant.name}-{engine}", monitor=True
    )
    result = handle.result()
    delta = {
        res: total - before.get(res, 0.0)
        for res, total in db.clock.cost_charged.items()
    }
    return result, handle.log, delta


def _assert_identical(variant: grid.Variant) -> None:
    row_result, row_log, row_u = _run("row", variant)
    batch_result, batch_log, batch_u = _run("batch", variant)

    # Result stream: same rows, same order, same count.
    assert batch_result.row_count == row_result.row_count
    assert batch_result.rows == row_result.rows

    # Progress history: every report, float-for-float.  ProgressReport
    # and ProgressLog are dataclasses, so == compares all fields.
    assert len(batch_log) == len(row_log)
    for got, want in zip(batch_log, row_log):
        assert got == want
    assert batch_log == row_log

    # Final virtual-clock charges per resource (U accounting).
    assert batch_u == row_u

    # Virtual elapsed time, for good measure (implied by the log).
    assert batch_result.elapsed == row_result.elapsed


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant_bit_identical(name):
    _assert_identical(grid.variants_by_name()[name])


def _run_fresh(variant: grid.Variant, tag: str, **progress):
    """Run on a freshly built database (clock history starts at zero).

    The shared ``_DATABASES`` caches stay pairwise comparable because the
    two engines run the same query sequence; a one-off configuration
    needs a fresh database on *both* sides, or absolute report
    timestamps diverge.
    """
    config = SystemConfig().with_progress(**progress)
    db = grid.build_dataset(*variant.dataset_key, config=config)
    db.restart()
    handle = db.connect().submit(
        variant.sql, name=f"eq-{tag}", monitor=True
    )
    return handle.result(), handle.log


def test_batch_rows_one_degenerates_to_row_transport():
    """batch_rows=1 changes transport granularity, never results."""
    variant = grid.variants_by_name()["xs-uniform-join3-half"]
    tiny_result, tiny_log = _run_fresh(
        variant, "batchrows-1", engine="batch", batch_rows=1
    )
    row_result, row_log = _run_fresh(variant, "batchrows-1-row", engine="row")
    assert tiny_result.rows == row_result.rows
    assert tiny_log == row_log


def test_oversized_batch_rows_still_flushes_at_pulses():
    """A huge batch_rows flushes at PULSE boundaries, results unchanged."""
    variant = grid.variants_by_name()["xs-uniform-scan-half"]
    huge_result, huge_log = _run_fresh(
        variant, "batchrows-huge", engine="batch", batch_rows=1 << 20
    )
    row_result, row_log = _run_fresh(variant, "batchrows-huge-row", engine="row")
    assert huge_result.rows == row_result.rows
    assert huge_log == row_log


#: Report and speed-sample periods of a few milliseconds of virtual time:
#: a clock event lands every few rows, mid-page and mid-pipeline, so
#: every fused charge site, commit and reload point sees events.
_DENSE = dict(update_interval=0.05, speed_window=0.02, speed_sample_interval=0.002,
              warmup=0.01)
_DENSE_VARIANTS = (
    "xs-uniform-scan-half",
    "xs-uniform-sort-half",
    "xs-uniform-agg-half",
    "xs-uniform-join3-half",
    "xs-uniform-selfjoin-tenth",
    "xs-uniform-multi4-tenth",
)


def _dense_run(variant: grid.Variant, engine: str, batch_rows: int, work_mem: int):
    config = SystemConfig(work_mem_pages=work_mem).with_progress(
        engine=engine, batch_rows=batch_rows, **_DENSE
    )
    db = grid.build_dataset(*variant.dataset_key, config=config)
    db.restart()
    # A CPU slowdown starting mid-query: charges straddle its start too.
    db.set_load(LoadProfile.cpu_hog(db.clock.now + 0.15, slowdown=2.5))
    handle = db.connect().submit(
        variant.sql, name=f"dense-{variant.name}", monitor=True
    )
    result = handle.result()
    tracker = handle.task.indicator.tracker
    segments = [
        (
            seg.input_rows, seg.input_bytes, seg.output_rows, seg.output_bytes,
            seg.extra_bytes, seg.done_bytes, seg.started_at, seg.finished_at,
        )
        for seg in tracker.segments
    ]
    clock = (db.clock.now, dict(db.clock.cost_charged))
    return result.rows, handle.log, clock, segments, tracker.total_done_bytes


@pytest.mark.parametrize("work_mem", [256, 2])
@pytest.mark.parametrize("batch_rows", [1, 256])
@pytest.mark.parametrize("name", _DENSE_VARIANTS)
def test_dense_events_bit_identical(name, batch_rows, work_mem):
    """Events every few rows: identical rows, ProgressLog, clock and
    tracker state, with row-at-a-time and default batches, in memory and
    spilling (``work_mem_pages=2``)."""
    variant = grid.variants_by_name()[name]
    fused = _dense_run(variant, "batch", batch_rows, work_mem)
    row = _dense_run(variant, "row", batch_rows, work_mem)
    assert len(fused[1]) > 20  # the events really are dense
    assert fused == row


@pytest.mark.parametrize(
    "sql, planner",
    [
        # An index scan: inline I/O charges and per-row heap fetches.
        ("select o.orderkey, o.totalprice from orders o where o.custkey = 7", {}),
        # A merge join over spilled sorts: the embedded volcano operator
        # charges the clock itself between the fused code's pulls.
        (
            "select c.custkey, o.orderkey from customer c, orders o "
            "where c.custkey = o.custkey",
            {"enable_hashjoin": False, "enable_nestloop": False},
        ),
    ],
)
def test_dense_events_index_scan_and_merge_join(sql, planner):
    def run(engine):
        config = (
            SystemConfig(work_mem_pages=2)
            .with_planner(**planner)
            .with_progress(engine=engine, **_DENSE)
        )
        db = tpcr.build_database(scale=0.002, config=config, with_indexes=True)
        db.restart()
        db.set_load(LoadProfile.cpu_hog(db.clock.now + 0.1, slowdown=2.5))
        handle = db.connect().submit(sql, name="dense-tpcr", monitor=True)
        rows = handle.result().rows
        tracker = handle.task.indicator.tracker
        segments = [
            (s.input_rows, s.input_bytes, s.output_rows, s.output_bytes,
             s.done_bytes, s.started_at, s.finished_at)
            for s in tracker.segments
        ]
        return rows, handle.log, db.clock.now, dict(db.clock.cost_charged), segments

    fused = run("batch")
    assert len(fused[1]) > 20
    assert fused == run("row")
