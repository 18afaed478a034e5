"""Metric names, units and definitions.

``END_TO_END`` are the metrics every workload emits with tracing off;
they are the ones ``BENCHMARK.json`` lists and bounds.  Its two speed
metrics are in units of ``cal``, the real time of the benchmark's fixed
calibration loop measured throughout the same run
(:class:`workloads.SpeedProbe`): the host's speed drifts by tens of
percent over tens of seconds, and the ratio cancels that drift while
still moving with any change to the program.  ``REPORTED`` adds, per
workload, the same speeds in seconds and the metrics that only make
sense on that workload; they are printed and stored in the results file
but not bounded, since the benchmark contract bounds only metrics that
every workload emits.
``PER_LAYER`` are the traced run's metrics.  NOTES.md defines each one.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

from repro.sched.task import FINISHED, SHED, TIMED_OUT

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("qps_cal", "1/cal"),
    ("query_cal_geomean", "cal"),
    ("progress_err_pct", "pct"),
)

_RAW = (
    ("qps", "1/s"),
    ("query_s_geomean", "s"),
    ("calibration_s", "s"),
    ("fail_frac", "ratio"),
)

REPORTED = {
    "paper_q1_q5": _RAW + (
        ("plain_query_s_geomean", "s"),
        ("monitor_ratio", "ratio"),
    ),
    "service_backlog": _RAW + (
        ("query_s_p50", "s"),
        ("query_s_p99", "s"),
        ("first_report_s_p99", "s"),
        ("deadline_hit_rate", "ratio"),
    ),
    "adhoc_analyze": _RAW + (
        ("query_s_p50", "s"),
        ("query_s_p99", "s"),
        ("analyze_s_p50", "s"),
    ),
}

#: (name, unit, better) -- self seconds and counts are per traced pass.
PER_LAYER = (
    ("sql.parse_s", "s", "lower"),
    ("sql.bind_s", "s", "lower"),
    ("planner.optimize_s", "s", "lower"),
    ("planner.plans_per_query", "count", "lower"),
    ("catalog.analyze_s", "s", "lower"),
    ("core.segments_s", "s", "lower"),
    ("core.segments_per_query", "count", "lower"),
    ("core.indicator.init_s", "s", "lower"),
    ("core.indicator.tick_s", "s", "lower"),
    ("core.indicator.finalize_s", "s", "lower"),
    ("core.indicator.ticks", "count", "lower"),
    ("core.indicator.reports", "count", "higher"),
    ("executor.fused.compile_s", "s", "lower"),
    ("executor.fused.compiles_per_query", "count", "lower"),
    ("executor.execute_s", "s", "lower"),
    ("executor.rows_out", "count", "higher"),
    ("executor.rows_per_s", "rows/s", "higher"),
    ("sim.clock.tickers_peak", "count", "lower"),
    ("sim.clock.virtual_s", "s", "lower"),
    ("storage.buffer_s", "s", "lower"),
    ("storage.disk_s", "s", "lower"),
    ("storage.buffer.hit_rate", "ratio", "higher"),
    ("storage.disk.reads", "count", "lower"),
    ("storage.disk.writes", "count", "lower"),
    ("sched.step_s", "s", "lower"),
    ("sched.policy_s", "s", "lower"),
    ("sched.slices", "count", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.step_s", "s", "lower"),
    ("service.admission_s", "s", "lower"),
    ("service.shedding_s", "s", "lower"),
    ("service.queue_wait_s_p50", "s", "lower"),
    ("service.shed", "count", "lower"),
    ("service.wasted_work_frac", "ratio", "lower"),
    ("bench.harness_s", "s", "lower"),
    ("obs.tracing_overhead", "ratio", "lower"),
)

#: Per-layer self-time metric -> the span name it totals.
SELF_TIME_SPANS = {
    "sql.parse_s": "sql.parse",
    "sql.bind_s": "sql.bind",
    "planner.optimize_s": "planner.optimize",
    "catalog.analyze_s": "catalog.analyze",
    "core.segments_s": "core.segments",
    "core.indicator.init_s": "core.indicator.init",
    "core.indicator.tick_s": "core.indicator.tick",
    "core.indicator.finalize_s": "core.indicator.finalize",
    "executor.fused.compile_s": "executor.fused.compile",
    "executor.execute_s": "executor.execute",
    "storage.buffer_s": "storage.buffer",
    "storage.disk_s": "storage.disk",
    "sched.step_s": "sched.step",
    "sched.policy_s": "sched.policy",
    "service.submit_s": "service.submit",
    "service.step_s": "service.step",
    "service.admission_s": "service.admission",
    "service.shedding_s": "service.shedding",
}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_geomean(records, monitored: bool, field: str = "real_s") -> float:
    """Geometric mean over query classes of each class's median time per
    query (``real_s`` seconds, or ``cal_s`` calibration-loop times)."""
    by_class: dict[str, list[float]] = {}
    for rec in records:
        if rec.monitored == monitored:
            by_class.setdefault(rec.cls, []).append(getattr(rec, field))
    return geomean(median(times) for times in by_class.values())


def progress_error_pct(records) -> float:
    """Mean |reported fraction - true fraction| over the periodic
    reports of finished monitored queries, in percentage points.  The
    true fraction is the report's virtual elapsed over the query's final
    virtual elapsed."""
    errors = [
        abs(fraction - elapsed / rec.final_elapsed)
        for rec in records
        if rec.state == FINISHED and rec.final_elapsed
        for elapsed, fraction, finished in rec.reports
        if not finished
    ]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


def end_to_end(workload: str, passes, setup_s: list[float], peak_rss_mb: float,
               failed: int) -> tuple[dict, dict]:
    """(values, sample counts) for END_TO_END + REPORTED[workload].

    The ``_cal`` metrics use each query's time in calibration-loop
    times measured around it (:attr:`QueryRecord.cal_s`), so they follow
    the host's speed within a run, not only from run to run.
    """
    records = [rec for p in passes for rec in p.records]
    timed_s = sum(p.wall_s for p in passes)
    calibration = [c for p in passes for c in p.calibration]
    values = {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "qps": len(records) / timed_s,
        "qps_cal": len(records) / sum(rec.cal_s for rec in records),
        "query_s_geomean": class_geomean(records, monitored=True),
        "query_cal_geomean": class_geomean(records, monitored=True, field="cal_s"),
        "calibration_s": median(calibration),
        "progress_err_pct": progress_error_pct(records),
        "fail_frac": failed / len(records),
    }
    samples = {
        "setup_s": len(setup_s),
        "query_s_geomean": sum(r.monitored for r in records),
        "calibration_s": len(calibration),
    }
    if workload == "paper_q1_q5":
        values["plain_query_s_geomean"] = class_geomean(records, monitored=False)
        values["monitor_ratio"] = values["query_s_geomean"] / values["plain_query_s_geomean"]
    else:
        times = [rec.real_s for rec in records]
        values["query_s_p50"] = median(times)
        values["query_s_p99"] = percentile(times, 99)
        samples["query_s_p99"] = len(times)
    if workload == "service_backlog":
        firsts = [rec.first_report_s for rec in records if rec.first_report_s is not None]
        values["first_report_s_p99"] = percentile(firsts, 99)
        samples["first_report_s_p99"] = len(firsts)
        values["deadline_hit_rate"] = (
            sum(rec.state == FINISHED for rec in records) / len(records)
        )
    if workload == "adhoc_analyze":
        analyze = [s for p in passes for s in p.analyze_s]
        values["analyze_s_p50"] = median(analyze)
        samples["analyze_s_p50"] = len(analyze)
    return values, samples


def per_layer(passes, tracer, tickers_peak: int, untraced_wall_s: float) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    n = len(passes)
    records = [rec for p in passes for rec in p.records]
    queries = len(records)
    traced_wall_s = sum(p.wall_s for p in passes)
    values: dict[str, float] = {}
    for metric, span in SELF_TIME_SPANS.items():
        values[metric] = tracer.self_seconds(span) / n
    spans_s = tracer.top_level_s
    values["bench.harness_s"] = (traced_wall_s - spans_s) / n
    values["planner.plans_per_query"] = tracer.calls("planner.optimize") / queries
    values["core.segments_per_query"] = tracer.calls("core.segments") / queries
    values["executor.fused.compiles_per_query"] = (
        tracer.calls("executor.fused.compile") / queries
    )
    rows = sum(rec.rows for rec in records)
    values["executor.rows_out"] = rows / n
    execute_s = tracer.self_seconds("executor.execute")
    values["executor.rows_per_s"] = rows / execute_s if execute_s else 0.0
    values["core.indicator.ticks"] = tracer.calls("core.indicator.tick") / n
    values["core.indicator.reports"] = sum(len(rec.reports) for rec in records) / n
    values["sim.clock.tickers_peak"] = tickers_peak
    values["sim.clock.virtual_s"] = sum(p.virtual_s for p in passes) / n
    hits = sum(p.buffer_hits for p in passes)
    misses = sum(p.buffer_misses for p in passes)
    values["storage.buffer.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["storage.disk.reads"] = sum(p.disk_reads for p in passes) / n
    values["storage.disk.writes"] = sum(p.disk_writes for p in passes) / n
    values["sched.slices"] = sum(rec.slices for rec in records) / n
    waits = [rec.queue_wait_s for rec in records if rec.queue_wait_s is not None]
    values["service.queue_wait_s_p50"] = median(waits) if waits else 0.0
    values["service.shed"] = sum(rec.state == SHED for rec in records) / n
    done = [rec for rec in records if rec.done_pages is not None]
    wasted = sum(rec.done_pages for rec in done if rec.state in (SHED, TIMED_OUT))
    total = sum(rec.done_pages for rec in done)
    values["service.wasted_work_frac"] = wasted / total if total else 0.0
    values["obs.tracing_overhead"] = traced_wall_s / untraced_wall_s
    return values

