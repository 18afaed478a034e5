"""Unit tests: the prepared-plan cache behind ``Database.prepare``.

Every catalog change the optimizer can observe must make the next
``prepare`` re-plan: the cached path's EXPLAIN text and result multiset
must equal those of a cold database that saw the same changes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.database import Database
from repro.planner.cache import PLAN_CACHE_SIZE
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string
from repro.txn import Transaction

SQL = "select t.a, t.b, u.c from t, u where t.a = u.a and t.a < 10"

T_SCHEMA = Schema(
    [Column("a", INTEGER), Column("b", INTEGER), Column("pad", string(100))]
)
U_SCHEMA = Schema([Column("a", INTEGER), Column("c", INTEGER)])


def build(analyzed: bool = True, steps=()) -> Database:
    db = Database()
    db.create_table("t", T_SCHEMA, [(i, i % 7, "x" * 100) for i in range(3000)])
    db.create_table("u", U_SCHEMA, [(i % 80, i) for i in range(400)])
    if analyzed:
        db.analyze()
    for step in steps:
        step(db)
    return db


def observe(db: Database, sql: str = SQL) -> tuple[str, Counter]:
    """EXPLAIN text (before running) and the result multiset."""
    text = db.explain(sql)
    rows = db.connect().submit(sql, keep_rows=True).result().rows
    return text, Counter(rows)


def analyze_t(db):
    db.analyze("t")


def index_t_a(db):
    db.create_index("t", "a")


def update_t(db):
    txn = Transaction(db)
    txn.update("t", {"a": lambda row: row[0] + 1000}, where=lambda row: row[0] < 20)
    txn.commit()


def delete_u(db):
    txn = Transaction(db)
    txn.delete("u", where=lambda row: row[0] % 2 == 0)
    txn.commit()


def no_hash_join(db):
    db.config = db.config.with_planner(enable_hashjoin=False)


def load_u(db):
    db.catalog.get_table("u").heap.bulk_load([(i % 5, i) for i in range(2000)])


def recreate_u(db):
    db.catalog.drop_table("u")
    db.create_table("u", U_SCHEMA, [(i % 30, -i) for i in range(90)])
    db.analyze("u")


CHANGES = [
    pytest.param(False, analyze_t, id="analyze"),
    pytest.param(True, index_t_a, id="create_index"),
    pytest.param(True, update_t, id="committed_update"),
    pytest.param(True, delete_u, id="committed_delete"),
    pytest.param(True, no_hash_join, id="config_reassignment"),
    pytest.param(False, load_u, id="load_without_analyze"),
    pytest.param(True, recreate_u, id="drop_and_recreate"),
]


class TestInvalidation:
    @pytest.mark.parametrize("analyzed, change", CHANGES)
    def test_cached_path_matches_cold_database(self, analyzed, change):
        db = build(analyzed)
        before = observe(db)
        stale = db.prepare(SQL)
        assert db.prepare(SQL) is stale  # the warm path is a cache hit

        change(db)
        after = observe(db)
        assert db.prepare(SQL) is not stale
        assert after == observe(build(analyzed, steps=[change]))
        # The change is visible to the optimizer (or the data), so a
        # cache that ignored it would have failed the comparison above.
        assert after != before

    def test_unrelated_table_change_keeps_the_plan(self):
        db = build()
        db.create_table("v", U_SCHEMA, [(1, 1)])
        planned = db.prepare("select t.a from t where t.a < 5")
        db.analyze("v")
        db.create_index("v", "a")
        assert db.prepare("select t.a from t where t.a < 5") is planned

    def test_each_config_object_has_its_own_entry(self):
        db = build()
        base = db.config
        hashed = db.prepare(SQL)
        db.config = base.with_planner(enable_hashjoin=False)
        other = db.prepare(SQL)
        assert other is not hashed and other.config is db.config
        db.config = base
        assert db.prepare(SQL) is hashed


class TestBound:
    def test_many_distinct_texts_never_grow_past_the_bound(self):
        db = build()
        for i in range(10 * PLAN_CACHE_SIZE):
            db.prepare(f"select t.b from t where t.a < {i}")
            assert len(db.plan_cache) <= PLAN_CACHE_SIZE
        assert len(db.plan_cache) == PLAN_CACHE_SIZE

    def test_least_recently_used_is_evicted_first(self):
        db = build()
        kept = db.prepare("select t.b from t where t.a < -1")
        oldest = db.prepare("select t.b from t where t.a < 0")
        for i in range(1, PLAN_CACHE_SIZE):
            db.prepare(f"select t.b from t where t.a < {i}")
            assert db.prepare("select t.b from t where t.a < -1") is kept
        assert db.prepare("select t.b from t where t.a < 0") is not oldest


def build_in() -> Database:
    db = Database()
    db.create_table(
        "emp",
        Schema([Column("id", INTEGER), Column("dept", INTEGER)]),
        [(i, i % 5) for i in range(4000)],
    )
    db.create_table(
        "dept", Schema([Column("id", INTEGER)]), [(0,), (1,), (2,), (3,)]
    )
    db.analyze()
    return db


IN_SQL = "select emp.id from emp where emp.dept in (select dept.id from dept)"


class TestSubplans:
    def test_plans_with_subplans_are_not_cached(self):
        db = build_in()
        first = db.prepare(IN_SQL)
        assert first.subplans
        assert db.prepare(IN_SQL) is not first
        assert len(db.plan_cache) == 0

    def test_interleaved_in_subquery_executions_keep_their_own_sets(self):
        """Each execution probes with the InitPlan set it computed, even
        when a DML commit lands between the two first slices."""
        db = build_in()
        session = db.connect(quantum_pages=1)
        early = session.submit(IN_SQL, name="early", keep_rows=True)
        late = session.submit(IN_SQL, name="late", keep_rows=True)
        session.step()
        assert len(early.task.slices) == 1 and not late.task.slices
        txn = Transaction(db)
        assert txn.delete("dept", where=lambda row: row[0] >= 2) == 2
        txn.commit()
        session.step()
        assert len(late.task.slices) == 1 and not early.task.done
        session.run()
        assert sorted(r[0] for r in early.result().rows) == [
            i for i in range(4000) if i % 5 in (0, 1, 2, 3)
        ]
        assert sorted(r[0] for r in late.result().rows) == [
            i for i in range(4000) if i % 5 in (0, 1)
        ]
