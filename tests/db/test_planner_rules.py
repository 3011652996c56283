"""Where the compiler places conjuncts, and the planner's pruning.

The compiler evaluates each WHERE conjunct at the first node where it
resolves and emits no projection that re-emits its input; the planner
only narrows columns.  Each test checks the structure and answer
equality against a reference tree under :func:`evaluate`.
"""

import pytest

from repro.db.database import Database
from repro.db.ra import PlannedQuery, Planner, default_planner
from repro.db.ra.ast import (
    AggLookup,
    And,
    ColumnRef,
    Comparison,
    CrossProduct,
    GroupAggregate,
    Join,
    Literal,
    Project,
    Scan,
    Select,
)
from repro.db.ra.eval import evaluate, evaluate_rows
from repro.db.ra.planner import prune_projections
from repro.db.schema import Attribute, AttrType, Schema
from repro.db.sql.compiler import plan_query


def make_db():
    db = Database("planner-test")
    db.create_table(
        Schema(
            "R",
            [
                Attribute("ID", AttrType.INT),
                Attribute("GRP", AttrType.INT),
                Attribute("NAME", AttrType.STRING),
                Attribute("VAL", AttrType.INT),
            ],
            key=("ID",),
        )
    )
    db.create_table(
        Schema(
            "S",
            [
                Attribute("ID", AttrType.INT),
                Attribute("GRP", AttrType.INT),
                Attribute("TAG", AttrType.STRING),
            ],
            key=("ID",),
        )
    )
    for i in range(20):
        db.insert("R", (i, i % 4, f"n{i % 5}", i * 10))
    for i in range(12):
        db.insert("S", (i, i % 4, f"t{i % 3}"))
    return db


def scan(db, table, alias=None):
    return Scan(db.table(table).schema, alias)


def eq(left, right):
    return Comparison("=", left, right)


def answers_equal(db, plan_a, plan_b):
    assert evaluate(plan_a, db) == evaluate(plan_b, db)


class TestConjunctPlacement:
    """The compiler evaluates each WHERE conjunct at the first node where
    it resolves; the planner moves none of them."""

    def test_side_conjuncts_filter_their_scans(self):
        db = make_db()
        reference = Select(
            Join(
                scan(db, "R"),
                scan(db, "S"),
                eq(ColumnRef("R.GRP"), ColumnRef("S.GRP")),
            ),
            And(
                eq(ColumnRef("R.NAME"), Literal("n2")),
                eq(ColumnRef("S.TAG"), Literal("t1")),
            ),
        )
        compiled = plan_query(
            db,
            "SELECT * FROM R JOIN S ON R.GRP = S.GRP "
            "WHERE R.NAME = 'n2' AND S.TAG = 't1'",
        )
        assert isinstance(compiled, Join)
        assert isinstance(compiled.left, Select)
        assert isinstance(compiled.right, Select)
        answers_equal(db, reference, compiled)

    def test_spanning_conjunct_sits_above_first_join_it_resolves(self):
        db = make_db()
        compiled = plan_query(
            db,
            "SELECT * FROM R A JOIN R B ON A.GRP = B.GRP "
            "JOIN S C ON B.GRP = C.GRP WHERE A.VAL = B.ID AND A.ID < C.ID",
        )
        # A.ID < C.ID needs all three tables; A.VAL = B.ID only two.
        assert isinstance(compiled, Select)
        top = compiled.child
        assert isinstance(top, Join)
        assert isinstance(top.left, Select)
        assert isinstance(top.left.child, Join)
        assert repr(top.left.predicate) == repr(
            eq(ColumnRef("VAL", "A"), ColumnRef("ID", "B"))
        )
        reference = Select(
            Join(
                Join(
                    scan(db, "R", "A"),
                    scan(db, "R", "B"),
                    eq(ColumnRef("A.GRP"), ColumnRef("B.GRP")),
                ),
                scan(db, "S", "C"),
                eq(ColumnRef("B.GRP"), ColumnRef("C.GRP")),
            ),
            And(
                eq(ColumnRef("A.VAL"), ColumnRef("B.ID")),
                Comparison("<", ColumnRef("A.ID"), ColumnRef("C.ID")),
            ),
        )
        answers_equal(db, reference, compiled)

    def test_comma_join_equality_becomes_join_condition(self):
        db = make_db()
        reference = Select(
            CrossProduct(scan(db, "R"), scan(db, "S")),
            And(
                eq(ColumnRef("R.GRP"), ColumnRef("S.GRP")),
                eq(ColumnRef("R.NAME"), Literal("n0")),
            ),
        )
        compiled = plan_query(
            db, "SELECT * FROM R, S WHERE R.GRP = S.GRP AND R.NAME = 'n0'"
        )
        assert isinstance(compiled, Join)
        assert isinstance(compiled.left, Select)
        answers_equal(db, reference, compiled)

    def test_subquery_conjunct_sits_above_its_lookup(self):
        db = make_db()
        compiled = plan_query(
            db,
            "SELECT NAME FROM R WHERE VAL > (SELECT AVG(VAL) FROM R) "
            "AND GRP < (SELECT COUNT(*) FROM S)",
        )
        second = compiled.child.child
        assert isinstance(second, AggLookup)
        assert isinstance(second.outer, Select)
        assert isinstance(second.outer.child, AggLookup)
        rows = evaluate_rows(compiled, db)
        average = sum(i * 10 for i in range(20)) / 20
        assert rows == sorted(
            (f"n{i % 5}",) for i in range(20) if i * 10 > average and i % 4 < 12
        )


class TestSelectList:
    def test_identity_select_list_emits_no_project(self):
        db = make_db()
        assert isinstance(plan_query(db, "SELECT * FROM R"), Scan)
        grouped = plan_query(db, "SELECT GRP FROM R GROUP BY GRP")
        assert isinstance(grouped, GroupAggregate)

    def test_reorder_rename_or_dropped_column_keeps_project(self):
        db = make_db()
        for sql in [
            "SELECT ID AS IDENT, GRP, TAG FROM S",
            "SELECT TAG, GRP, ID FROM S",
            "SELECT S.ID, S.GRP, S.TAG FROM S",
            "SELECT * FROM R WHERE VAL > (SELECT AVG(VAL) FROM R)",
        ]:
            assert isinstance(plan_query(db, sql), Project), sql


class TestProjectionPruning:
    def test_narrows_join_inputs(self):
        db = make_db()
        join = Join(
            scan(db, "R"),
            scan(db, "S"),
            eq(ColumnRef("R.GRP"), ColumnRef("S.GRP")),
        )
        original = Project(join, [(ColumnRef("R.NAME"), "NAME")])
        fired = []
        pruned = prune_projections(original, lambda rule, detail: fired.append(rule))
        assert fired  # narrowing Projects were inserted
        assert isinstance(pruned, Project)
        narrowed = pruned.child
        assert isinstance(narrowed, Join)
        # Each side now exposes only the columns the join + output need.
        assert len(narrowed.left.schema.attributes) == 2  # NAME, GRP
        assert len(narrowed.right.schema.attributes) == 1  # GRP
        answers_equal(db, original, pruned)

    def test_root_schema_is_preserved(self):
        db = make_db()
        original = Project(
            Select(scan(db, "R"), eq(ColumnRef("GRP"), Literal(3))),
            [(ColumnRef("NAME"), "NAME"), (ColumnRef("VAL"), "VAL")],
        )
        pruned = prune_projections(original, lambda *_: None)
        assert [a.name for a in pruned.schema.attributes] == ["NAME", "VAL"]
        answers_equal(db, original, pruned)


class TestPlannerObject:
    def test_planned_query_carries_trace(self):
        db = make_db()
        raw = plan_query(
            db,
            "SELECT R.NAME FROM R, S WHERE R.GRP = S.GRP AND S.TAG = 't1'",
        )
        planned = default_planner().plan(raw)
        assert isinstance(planned, PlannedQuery)
        assert planned.trace
        assert {application.rule for application in planned.trace} == {
            "prune-projections"
        }
        report = planned.explain()
        assert "plan:" in report and "rewrites:" in report
        assert "original:" not in report

    def test_planner_is_deterministic(self):
        db = make_db()
        sql = "SELECT R.NAME FROM R, S WHERE R.GRP = S.GRP AND R.VAL > 50"
        a = default_planner().plan(plan_query(db, sql))
        b = default_planner().plan(plan_query(db, sql))
        assert a.plan.describe() == b.plan.describe()
        assert [str(t) for t in a.trace] == [str(t) for t in b.trace]

    def test_empty_rule_program_still_prunes(self):
        db = make_db()
        raw = plan_query(db, "SELECT R.NAME FROM R, S WHERE R.GRP = S.GRP")
        planned = Planner().plan(raw)
        assert planned.plan.describe() != raw.describe()
        answers_equal(db, raw, planned.plan)


SQL_BATTERY = [
    "SELECT NAME FROM R WHERE GRP = 1",
    "SELECT R.NAME, S.TAG FROM R, S WHERE R.GRP = S.GRP",
    "SELECT R.NAME, S.TAG FROM R, S WHERE R.GRP = S.GRP AND S.TAG = 't1' AND R.VAL > 30",
    "SELECT DISTINCT NAME FROM R",
    "SELECT GRP, COUNT(*), SUM(VAL) FROM R GROUP BY GRP",
    "SELECT GRP, COUNT(*) FROM R GROUP BY GRP HAVING COUNT(*) > 4",
    "SELECT NAME, VAL FROM R ORDER BY VAL DESC LIMIT 3",
    "SELECT NAME FROM R WHERE VAL > (SELECT AVG(VAL) FROM R)",
    "SELECT R.NAME FROM R JOIN S ON R.GRP = S.GRP WHERE S.ID < 6",
]


class TestAnswerEquivalenceBattery:
    @pytest.mark.parametrize("sql", SQL_BATTERY)
    def test_optimized_plan_answers_match(self, sql):
        db = make_db()
        raw = plan_query(db, sql)
        planned = default_planner().plan(raw)
        assert evaluate_rows(planned.plan, db) == evaluate_rows(raw, db)
        assert [a.name for a in planned.plan.schema.attributes] == [
            a.name for a in raw.schema.attributes
        ]
