"""The benchmark's own test: smoke mode of all three workloads.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402

ALL = ("paper_q1_q5", "service_backlog", "adhoc_analyze")

#: The end-to-end metric table: name -> (unit, workloads it applies to).
EXPECTED = {
    "setup_s": ("s", ALL),
    "peak_rss_mb": ("MiB", ALL),
    "fail_frac": ("ratio", ALL),
    "qps": ("1/s", ALL),
    "query_s_p50": ("s", ("service_backlog", "adhoc_analyze")),
    "query_s_p99": ("s", ("service_backlog", "adhoc_analyze")),
    "query_s_geomean": ("s", ("paper_q1_q5",)),
    "plain_query_s_geomean": ("s", ("paper_q1_q5",)),
    "monitor_ratio": ("ratio", ("paper_q1_q5",)),
    "first_report_s_p99": ("s", ("service_backlog",)),
    "deadline_hit_rate": ("ratio", ("service_backlog",)),
    "progress_err_pct": ("pct", ("paper_q1_q5", "adhoc_analyze")),
    "analyze_s_p50": ("s", ("adhoc_analyze",)),
}


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_are_correct_and_deterministic(smoke):
    assert smoke["correct"]
    assert sorted(smoke["runs"]) == sorted(
        f"{w}/trace{t}" for w in ALL for t in (0, 1)
    )
    for key, run in smoke["runs"].items():
        assert run["correct"], key
        assert run["failed"] == 0, key
        assert run["end_to_end"]["fail_frac"]["value"] == 0, key


def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke):
    for name, (unit, workloads) in EXPECTED.items():
        for workload in workloads:
            emitted = smoke["runs"][f"{workload}/trace0"]["end_to_end"]
            assert emitted[name]["unit"] == unit, (workload, name)
            assert emitted[name]["value"] >= 0, (workload, name)


def test_every_per_layer_metric_is_emitted_with_its_unit(smoke):
    for workload in ALL:
        emitted = smoke["runs"][f"{workload}/trace1"]["per_layer"]
        assert set(emitted) == {name for name, _, _ in metrics.PER_LAYER}
        for name, unit, _ in metrics.PER_LAYER:
            assert emitted[name]["unit"] == unit, (workload, name)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ALL)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_q1_q5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
