"""Unit tests: yield-point atomicity hazards (REPRO100..102)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.flow.atomicity import analyze_races
from repro.analysis.flow.callgraph import CallGraph, build_callgraph

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"


def build_repro_pkg(tmp_path: Path, modules: dict[str, str]) -> CallGraph:
    """Write ``modules`` (dotted name under ``repro``) and build the
    graph.  Naming the package ``repro`` lets synthetic classes land in
    registry-owner modules like ``repro.storage.buffer``."""
    root = tmp_path / "repro"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for dotted, source in modules.items():
        parts = dotted.split(".")
        d = root
        for part in parts[:-1]:
            d = d / part
            d.mkdir(exist_ok=True)
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
        (d / f"{parts[-1]}.py").write_text(source)
    return build_callgraph(root, package="repro", receiver_types={})


def races(tmp_path, modules):
    return analyze_races(build_repro_pkg(tmp_path, modules))


def rules_of(findings):
    return {f.rule for f in findings}


class TestUnmediatedStores:
    def test_store_through_registered_alias_is_flagged(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def f(pool):\n"
            "    pool.hits = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}
        assert "BufferPool.hits" in findings[0].message

    def test_nested_receiver_chain_is_flagged(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "class Runner:\n"
            "    def go(self):\n"
            "        self.db.disk.seq_reads = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}
        assert "SimulatedDisk.seq_reads" in findings[0].message

    def test_augmented_store_is_still_unmediated(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def f(clock):\n"
            "    clock.cost_charged += 1\n"
        )})
        assert rules_of(findings) == {"REPRO100"}

    def test_owner_frame_is_exempt(self, tmp_path):
        findings = races(tmp_path, {"storage.buffer": (
            "class BufferPool:\n"
            "    def absorb(self, pool):\n"
            "        pool.hits = 0\n"
        )})
        assert findings == []

    def test_same_store_outside_owner_module_is_not_exempt(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "class BufferPool:\n"  # name collision is not ownership
            "    def absorb(self, pool):\n"
            "        pool.hits = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}

    def test_unregistered_attr_is_ignored(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def f(pool):\n"
            "    pool.nickname = 'x'\n"
        )})
        assert findings == []

    def test_load_alone_is_not_a_store(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def f(pool):\n"
            "    return pool.hits\n"
        )})
        assert findings == []


class TestRmwAcrossYield:
    def test_stale_read_modify_write_is_flagged(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield 1\n"
            "    pool.hits = h + 1\n"
        )})
        assert "REPRO101" in rules_of(findings)
        [f] = [f for f in findings if f.rule == "REPRO101"]
        assert "crosses" in f.message
        assert f.line == 4

    def test_reload_after_yield_revalidates(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield 1\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
        )})
        assert "REPRO101" not in rules_of(findings)

    def test_augmented_assignment_is_rmw_safe(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield h\n"
            "    pool.hits += 1\n"
        )})
        assert "REPRO101" not in rules_of(findings)

    def test_plain_function_cannot_suspend(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def bump(pool):\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
        )})
        assert "REPRO101" not in rules_of(findings)

    def test_store_before_yield_is_fine(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
            "    yield 1\n"
        )})
        assert "REPRO101" not in rules_of(findings)


class TestYieldInOwner:
    def test_owner_generator_storing_registered_state(self, tmp_path):
        findings = races(tmp_path, {"storage.buffer": (
            "class BufferPool:\n"
            "    def drain(self):\n"
            "        self.hits = 0\n"
            "        yield 1\n"
        )})
        assert rules_of(findings) == {"REPRO102"}
        assert "BufferPool" in findings[0].message

    def test_atomic_owner_method_is_fine(self, tmp_path):
        findings = races(tmp_path, {"storage.buffer": (
            "class BufferPool:\n"
            "    def reset(self):\n"
            "        self.hits = 0\n"
        )})
        assert findings == []

    def test_owner_generator_touching_unregistered_state(self, tmp_path):
        findings = races(tmp_path, {"storage.buffer": (
            "class BufferPool:\n"
            "    def walk(self):\n"
            "        self.cursor = 0\n"
            "        yield 1\n"
        )})
        assert findings == []


class TestFindingShape:
    def test_witness_names_a_call_path(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def store(pool):\n"
            "    pool.hits = 0\n"
            "def entry(pool):\n"
            "    store(pool)\n"
        )})
        [f] = findings
        assert f.witness == ("repro.util.m.entry", "repro.util.m.store")

    def test_findings_sort_by_path_then_line(self, tmp_path):
        findings = races(tmp_path, {"util.m": (
            "def b(pool):\n"
            "    pool.hits = 0\n"
            "def a(clock):\n"
            "    clock._now = 0\n"
        )})
        assert [f.line for f in findings] == [2, 4]


def test_shipped_tree_has_no_atomicity_hazards():
    """The merge gate: the engine's own tree is race-clean."""
    graph = build_callgraph(REPO_SRC / "repro")
    assert analyze_races(graph, repo_root=REPO_ROOT) == []
