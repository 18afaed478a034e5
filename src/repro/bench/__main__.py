"""CLI for the real-time performance suite.

Two subcommands::

    python -m repro.bench perf [--write-baseline] [--runs N] [--cases a,b]
    python -m repro.bench perfcheck [--tolerance F] [--runs N] [--cases a,b]

``perf`` times the suite (row vs. batch engine) and prints the table;
with ``--write-baseline`` it also rewrites
``benchmarks/results/perf_baseline.json`` and ``benchmarks/PERF_SHEET.md``.

``perfcheck`` is the CI gate: it re-times the suite (or a ``--cases``
smoke subset), compares fresh speedups and the Q1–Q5 monitored/plain
ratios (full registry only) against the committed baseline within
``--tolerance``, checks the absolute floors, and exits non-zero on any
violation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench import perf


def _parse_cases(text):
    if not text:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scale",
        type=float,
        default=perf.DEFAULT_SCALE,
        help=f"TPC-R scale factor (default {perf.DEFAULT_SCALE})",
    )
    sub.add_argument(
        "--runs",
        type=int,
        default=perf.DEFAULT_RUNS,
        help=f"timed runs per case+engine (default {perf.DEFAULT_RUNS})",
    )
    sub.add_argument(
        "--cases",
        type=_parse_cases,
        default=None,
        metavar="A,B,...",
        help="comma-separated case subset (default: the full registry)",
    )
    sub.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also write the fresh timings as JSON to FILE",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="real-time engine performance suite",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("perf", help="time the suite and print the table")
    _add_common(run_p)
    run_p.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite benchmarks/results/perf_baseline.json and "
        "benchmarks/PERF_SHEET.md from this run (full registry only)",
    )

    check_p = subs.add_parser(
        "perfcheck", help="re-time and gate against the committed baseline"
    )
    _add_common(check_p)
    check_p.add_argument(
        "--tolerance",
        type=float,
        default=perf.DEFAULT_TOLERANCE,
        help="fractional speedup tolerance vs. the baseline "
        f"(default {perf.DEFAULT_TOLERANCE})",
    )
    check_p.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help=f"baseline JSON (default {perf.BASELINE_PATH})",
    )

    args = parser.parse_args(argv)
    try:
        cases = perf.select_cases(args.cases)
    except ValueError as exc:
        parser.error(str(exc))

    suite = perf.run_suite(
        cases=cases,
        scale=args.scale,
        runs=args.runs,
        progress=lambda msg: print(msg, file=sys.stderr),
        # A --cases smoke subset skips the Q1-Q5 monitor ratios.
        monitor_queries=() if args.cases else perf.MONITOR_QUERIES,
    )
    print(perf.render_suite(suite))

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(perf.suite_to_doc(suite), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.command == "perf":
        if args.write_baseline:
            if args.cases:
                parser.error("--write-baseline requires the full registry")
            path = perf.write_baseline(suite)
            perf.SHEET_PATH.write_text(perf.render_sheet(suite))
            print(f"wrote {path}")
            print(f"wrote {perf.SHEET_PATH}")
            problems = perf.check_suite(suite)
            for p in problems:
                print(f"WARNING: {p}")
        return 0

    # perfcheck
    baseline = perf.load_baseline(args.baseline)
    problems = perf.compare_to_baseline(
        suite, baseline, tolerance=args.tolerance
    )
    # Absolute floors apply (with the same noise tolerance) only when the
    # full registry ran; a --cases smoke subset skews the geomean.
    if not args.cases:
        scaled_geo = perf.GEOMEAN_FLOOR * (1.0 - args.tolerance)
        if suite.geomean_speedup < scaled_geo:
            problems.append(
                f"geomean {suite.geomean_speedup:.2f}x below the absolute "
                f"{perf.GEOMEAN_FLOOR:.1f}x floor - {args.tolerance:.0%} "
                f"tolerance"
            )
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"perf gate: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
