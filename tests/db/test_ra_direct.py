"""Direct relational-algebra plan construction and evaluation.

The SQL tests exercise plans through the compiler; these build plans by
hand to pin down operator semantics (bag arithmetic, cross products,
union-all, distinct-over-join) and the expression language.
"""

import pytest

from repro.db import AttrType, Database, Schema
from repro.db.multiset import Multiset
from repro.db.ra.ast import (
    AggregateSpec,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    CrossProduct,
    Distinct,
    GroupAggregate,
    InList,
    Join,
    Like,
    Limit,
    Literal,
    Not,
    Or,
    OrderBy,
    Project,
    Scan,
    Select,
    UnionAll,
)
from repro.db.ra.eval import evaluate, evaluate_rows, zero_for
from repro.db.types import AttrType as AT
from repro.errors import PlanError, QueryError


def make_db():
    db = Database()
    db.create_table(
        Schema.build(
            "R", [("A", AttrType.INT), ("B", AttrType.STRING)], key=["A"]
        )
    )
    db.create_table(
        Schema.build(
            "S", [("C", AttrType.INT), ("D", AttrType.STRING)], key=["C"]
        )
    )
    db.insert_many("R", [(1, "x"), (2, "y"), (3, "x")])
    db.insert_many("S", [(1, "x"), (2, "z")])
    return db


def scan(db, table):
    return Scan(db.table(table).schema)


class TestOperators:
    def test_scan_exposes_qualified_names(self):
        db = make_db()
        node = scan(db, "R")
        assert node.schema.attribute_names == ("R.A", "R.B")
        assert len(evaluate(node, db)) == 3

    def test_select_predicate(self):
        db = make_db()
        node = Select(scan(db, "R"), Comparison("=", ColumnRef("B"), Literal("x")))
        assert len(evaluate(node, db)) == 2

    def test_project_collapses_counts(self):
        db = make_db()
        node = Project(scan(db, "R"), [(ColumnRef("B"), "B")])
        result = evaluate(node, db)
        assert result.count(("x",)) == 2
        assert result.count(("y",)) == 1

    def test_cross_product(self):
        db = make_db()
        node = CrossProduct(scan(db, "R"), scan(db, "S"))
        assert len(evaluate(node, db)) == 6

    def test_join_on_equality(self):
        db = make_db()
        node = Join(
            scan(db, "R"),
            scan(db, "S"),
            Comparison("=", ColumnRef("A", "R"), ColumnRef("C", "S")),
        )
        result = evaluate(node, db)
        assert result.support_set() == {(1, "x", 1, "x"), (2, "y", 2, "z")}
        assert node.equi_pairs  # hash path engaged

    def test_join_with_residual(self):
        db = make_db()
        condition = And(
            Comparison("=", ColumnRef("A", "R"), ColumnRef("C", "S")),
            Comparison("=", ColumnRef("B", "R"), Literal("x")),
        )
        node = Join(scan(db, "R"), scan(db, "S"), condition)
        assert evaluate(node, db).support_set() == {(1, "x", 1, "x")}

    def test_non_equi_join_falls_back(self):
        db = make_db()
        node = Join(
            scan(db, "R"),
            scan(db, "S"),
            Comparison("<", ColumnRef("A", "R"), ColumnRef("C", "S")),
        )
        assert node.equi_pairs == ()
        assert evaluate(node, db).support_set() == {(1, "x", 2, "z")}

    def test_union_all_adds_counts(self):
        db = make_db()
        b_of_r = Project(scan(db, "R"), [(ColumnRef("B"), "V")])
        d_of_s = Project(scan(db, "S"), [(ColumnRef("D"), "V")])
        result = evaluate(UnionAll(b_of_r, d_of_s), db)
        assert result.count(("x",)) == 3

    def test_union_all_requires_compatibility(self):
        db = make_db()
        with pytest.raises(PlanError):
            UnionAll(scan(db, "R"), Project(scan(db, "S"), [(ColumnRef("C"), "C")]))

    def test_distinct(self):
        db = make_db()
        node = Distinct(Project(scan(db, "R"), [(ColumnRef("B"), "B")]))
        result = evaluate(node, db)
        assert result.count(("x",)) == 1

    def test_group_aggregate_global_empty(self):
        db = make_db()
        node = GroupAggregate(
            Select(scan(db, "R"), Comparison("=", ColumnRef("B"), Literal("none"))),
            group_by=[],
            aggregates=[AggregateSpec("count", None, "n")],
        )
        assert list(evaluate(node, db).support()) == [(0,)]

    def test_group_aggregate_keys(self):
        db = make_db()
        node = GroupAggregate(
            scan(db, "R"),
            group_by=[(ColumnRef("B"), "B")],
            aggregates=[
                AggregateSpec("count", None, "n"),
                AggregateSpec("sum", ColumnRef("A"), "total"),
            ],
        )
        assert evaluate(node, db).support_set() == {("x", 2, 4), ("y", 1, 2)}

    def test_limit_requires_rows_api(self):
        db = make_db()
        node = Limit(Project(scan(db, "R"), [(ColumnRef("A"), "A")]), 2)
        with pytest.raises(PlanError):
            evaluate(node, db)
        assert len(evaluate_rows(node, db)) == 2

    def test_order_by_rows(self):
        db = make_db()
        node = OrderBy(
            Project(scan(db, "R"), [(ColumnRef("A"), "A")]),
            [(ColumnRef("A"), True)],
        )
        assert evaluate_rows(node, db) == [(3,), (2,), (1,)]

    def test_empty_projection_rejected(self):
        db = make_db()
        with pytest.raises(PlanError):
            Project(scan(db, "R"), [])

    def test_describe_renders_tree(self):
        db = make_db()
        node = Select(scan(db, "R"), Comparison("=", ColumnRef("B"), Literal("x")))
        text = node.describe()
        assert "Select" in text and "Scan(R)" in text


class TestExpressions:
    def bind(self, expr, db):
        return expr.bind(Scan(db.table("R").schema).schema)

    def test_arithmetic(self):
        db = make_db()
        fn = self.bind(Arithmetic("*", ColumnRef("A"), Literal(10)), db)
        assert fn((2, "y")) == 20
        fn = self.bind(Arithmetic("/", ColumnRef("A"), Literal(2)), db)
        assert fn((3, "x")) == 1.5

    def test_boolean_composition(self):
        db = make_db()
        expr = Or(
            And(
                Comparison(">", ColumnRef("A"), Literal(1)),
                Not(Comparison("=", ColumnRef("B"), Literal("y"))),
            ),
            Comparison("=", ColumnRef("A"), Literal(1)),
        )
        fn = self.bind(expr, db)
        assert fn((1, "q"))
        assert fn((3, "x"))
        assert not fn((2, "y"))

    def test_in_list_and_like(self):
        db = make_db()
        fn = self.bind(InList(ColumnRef("B"), ("x", "z")), db)
        assert fn((1, "x")) and not fn((2, "y"))
        fn = self.bind(Like(ColumnRef("B"), "_"), db)
        assert fn((1, "x"))
        fn = self.bind(Like(ColumnRef("B"), "q%"), db)
        assert not fn((1, "x"))

    def test_unknown_column(self):
        db = make_db()
        with pytest.raises(QueryError, match="unknown column"):
            self.bind(ColumnRef("NOPE"), db)

    def test_column_resolution_is_memoised_but_errors_are_not(self):
        db = make_db()
        left, right = Scan(db.table("R").schema, "X"), Scan(db.table("R").schema, "Y")
        schema = CrossProduct(left, right).schema
        for _ in range(2):
            assert ColumnRef("b", "y")._resolve(schema) == 3
            assert ColumnRef("B", "Y")._resolve(schema) == 3
            with pytest.raises(QueryError) as unknown:
                ColumnRef("C", "X")._resolve(schema)
            assert str(unknown.value) == (
                "unknown column Col(X.C) among ['X.A', 'X.B', 'Y.A', 'Y.B']"
            )
            with pytest.raises(QueryError) as ambiguous:
                ColumnRef("A")._resolve(schema)
            assert str(ambiguous.value) == (
                "ambiguous column Col(A) among ['X.A', 'X.B', 'Y.A', 'Y.B']"
            )

    def test_bad_operators_rejected(self):
        with pytest.raises(QueryError):
            Comparison("~", ColumnRef("A"), Literal(1))
        with pytest.raises(QueryError):
            Arithmetic("%", ColumnRef("A"), Literal(1))

    def test_aggregate_spec_validation(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", ColumnRef("A"), "m")
        with pytest.raises(QueryError):
            AggregateSpec("sum", None, "s")

    def test_zero_for(self):
        assert zero_for(AT.INT) == 0
        assert zero_for(AT.FLOAT) == 0.0
        assert zero_for(AT.STRING) == ""
