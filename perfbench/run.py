#!/usr/bin/env python3
"""The repository benchmark: one workload, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_q1_q5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One invocation builds the database from source (``src/``), runs passes
of the chosen workload until ``--seconds`` of timed work are done (at
least two, for the determinism check), then:

* checks every timed query's row count, and once per run compares an
  order-insensitive digest of each distinct query's full result against
  the row engine (``ProgressConfig.engine="row"``), outside the timed
  phase;
* checks that every pass gave the identical virtual-time signature;
* prints each metric by name with its unit, writes a results file under
  ``perfbench/out/``, and prints as the last line one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the same inputs and reports the per-layer
metrics (see ``tracing.py``); its spans go to ``perfbench/out/``.
``--smoke`` runs all three workloads, small, in both modes.

The run exits 2 without a result when the program source is missing,
and 1 when an output check or the determinism check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("paper_q1_q5", "service_backlog", "adhoc_analyze")
#: Set-up repetitions per run at least (``setup_s`` is their median).
MIN_SETUPS = 7
#: Passes per run at least (the determinism check compares them).
MIN_PASSES = 2


def _load_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # Pin the program's environment switches: tracing off, default gate.
    os.environ["REPRO_TRACE"] = "0"
    os.environ["REPRO_VERIFY"] = "warn"


def _provenance(calibration: list[float]) -> dict:
    commit = None
    git_dir = ROOT / ".git"
    if git_dir.exists():  # a checkout without git history has no commit
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": statistics.median(calibration),
        "calibration_samples_s": calibration,
    }


def _digest(db, sql: str):
    """(row count, order-insensitive digest) of the full result, or None."""
    from repro.errors import ReproError

    try:
        rows = db.connect().submit(sql, monitor=False, keep_rows=True).result().rows
    except ReproError:
        return None
    # A sum of row hashes ignores order and keeps multiplicity; both
    # engines are hashed in this process, so string hashing agrees.
    return len(rows), sum(map(hash, rows)) % (1 << 64)


def oracle(workload) -> dict:
    """Reference row count per distinct SQL, and whether the program's
    full result multiset equals the row engine's."""
    program = workload.build()
    reference = workload.build(engine="row")
    checked = {}
    for sql in workload.distinct_sql():
        got = _digest(program, sql)
        want = _digest(reference, sql)
        checked[sql] = {
            "rows": None if want is None else want[0],
            "match": got is not None and got == want,
        }
    return checked


def _failed(rec, checked: dict) -> bool:
    from repro.sched.task import FAILED, FINISHED

    ref = checked[rec.sql]
    if rec.state == FAILED or not ref["match"]:
        return True
    return rec.state == FINISHED and rec.rows != ref["rows"]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One benchmark run; returns the full result document."""
    import metrics
    from tracing import Instrumentation, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, smoke=smoke)
    setup_s: list[float] = []

    def build():
        # Free the previous pass's database first, so peak RSS holds one
        # database, not a number that depends on when the cyclic garbage
        # collector happened to run.
        gc.collect()
        t0 = time.perf_counter()
        db = workload.build()
        setup_s.append(time.perf_counter() - t0)
        return db

    # Warm-up: one small untimed pass, so imports and first-call costs
    # stay out of the timed phase.
    small = WORKLOADS[workload_name](seed, smoke=True)
    small.run_pass(small.build())

    untraced, traced = [], []
    tracer = Tracer() if trace else None
    tickers_peak = 0

    def traced_pass() -> None:
        nonlocal tickers_peak
        db = build()
        with Instrumentation(tracer) as inst:
            traced.append(workload.run_pass(db))
        tickers_peak = max(tickers_peak, inst.tickers_peak)

    while True:
        # With tracing, untraced and traced passes alternate, and which
        # goes first alternates too, so host-speed drift cancels in
        # obs.tracing_overhead.
        if trace and len(traced) % 2:
            traced_pass()
        untraced.append(workload.run_pass(build()))
        if trace and len(traced) < len(untraced):
            traced_pass()
        done = len(untraced) + len(traced)
        timed = sum(p.wall_s for p in untraced + traced)
        if timed >= seconds and done >= MIN_PASSES:
            break
    while len(setup_s) < MIN_SETUPS:
        build()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = oracle(workload)
    passes = untraced + traced
    records = [rec for p in passes for rec in p.records]
    failed = sum(_failed(rec, checked) for rec in records)
    signatures = [p.signature for p in passes]
    deterministic = all(s == signatures[0] for s in signatures)

    values, samples = metrics.end_to_end(
        workload_name, untraced, setup_s, peak_rss_mb,
        sum(_failed(rec, checked) for p in untraced for rec in p.records),
    )
    doc = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "provenance": _provenance([c for p in passes for c in p.calibration]),
        "passes": len(untraced),
        "timed_s": sum(p.wall_s for p in untraced),
        "pass_walls_s": [p.wall_s for p in untraced],
        "setup_samples_s": setup_s,
        "correct": deterministic and failed == 0,
        "deterministic": deterministic,
        "attempted": len(records),
        "failed": failed,
        "oracle_mismatches": [sql for sql, c in checked.items() if not c["match"]],
        "end_to_end": {
            name: {"value": values[name], "unit": unit}
            for name, unit in metrics.END_TO_END + metrics.REPORTED[workload_name]
        },
        "samples": samples,
    }
    if trace:
        layer = metrics.per_layer(
            traced, tracer, tickers_peak, sum(p.wall_s for p in untraced)
        )
        doc["per_layer"] = {
            name: {"value": layer[name], "unit": unit}
            for name, unit, _ in metrics.PER_LAYER
        }
        doc["layer_table"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(tracer.totals.items())
        }
        # Self times of all spans cover the traced passes but for the
        # driver loop; that remainder should not exceed what tracing
        # itself cost.
        traced_wall = sum(p.wall_s for p in traced)
        self_sum = sum(s for _, _, s in tracer.totals.values())
        doc["traced_wall_s"] = traced_wall
        doc["layer_self_sum_s"] = self_sum
        doc["unattributed_s"] = traced_wall - self_sum
        doc["tracing_cost_s"] = traced_wall - sum(p.wall_s for p in untraced)
        doc["traced_passes"] = len(traced)
        tracer.write(OUT / f"spans-{workload_name}-seed{seed}.jsonl")
    return doc


def _print_doc(doc: dict) -> None:
    print(
        f"workload {doc['workload']}  seed {doc['seed']}  "
        f"passes {doc['passes']}  timed {doc['timed_s']:.2f} s  "
        f"queries {doc['attempted']}  failed {doc['failed']}  "
        f"deterministic {doc['deterministic']}"
    )
    for name, m in doc["end_to_end"].items():
        n = doc["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}{suffix}")
    if "per_layer" in doc:
        print(f"  per traced pass ({doc['traced_passes']} traced passes):")
        for name, m in doc["per_layer"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'span':<28} {'calls':>10} {'self_s':>12} {'total_s':>12}")
        for name, row in doc["layer_table"].items():
            print(
                f"  {name:<28} {row['calls']:>10} "
                f"{row['self_s']:>12.4f} {row['total_s']:>12.4f}"
            )
        print(
            f"  traced wall {doc['traced_wall_s']:.4f} s, layer self-time sum "
            f"{doc['layer_self_sum_s']:.4f} s, unattributed "
            f"{doc['unattributed_s']:.4f} s, tracing cost {doc['tracing_cost_s']:.4f} s"
        )
    if doc["oracle_mismatches"]:
        print(f"  oracle mismatches: {doc['oracle_mismatches']}")


def _result_line(doc: dict, trace: bool) -> dict:
    import metrics

    section = doc["per_layer"] if trace else doc["end_to_end"]
    names = (
        [n for n, _, _ in metrics.PER_LAYER] if trace
        else [n for n, _ in metrics.END_TO_END]
    )
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: section[n] for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, small, both trace modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _load_program()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    if args.smoke:
        docs = {}
        for name in WORKLOAD_NAMES:
            for trace in (False, True):
                doc = run(name, args.seed, 0.0, trace, smoke=True)
                _print_doc(doc)
                docs[f"{name}/trace{int(trace)}"] = doc
        correct = all(d["correct"] for d in docs.values())
        (OUT / "smoke.json").write_text(json.dumps(docs, indent=1, default=str))
        print(json.dumps({"smoke": True, "correct": correct, "runs": {
            key: {
                "correct": d["correct"],
                "failed": d["failed"],
                "end_to_end": d["end_to_end"],
                "per_layer": d.get("per_layer"),
            } for key, d in docs.items()
        }}))
        return 0 if correct else 1

    trace = bool(args.trace)
    doc = run(args.workload, args.seed, args.seconds, trace)
    _print_doc(doc)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, default=str)
    )
    print(json.dumps(_result_line(doc, trace)))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
