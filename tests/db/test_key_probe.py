"""The primary-key access path (:func:`repro.db.ra.eval.key_probe`).

A ``Select`` over a ``Scan`` whose conjuncts pin the whole primary key
to literals reads one row instead of scanning.  The probe must return
exactly what the scan returns: these tests compare it against
``[r for r in table.rows() if pred(r)]`` case by case, and run reads,
UPDATE, DELETE and view materialisation with the table's scan
entry points disabled so that only the probe can serve them.
"""

import pytest

import repro
from repro.db.database import Database
from repro.db.multiset import Multiset
from repro.db.ra.ast import And, ColumnRef, Comparison, Join, Literal, Scan, Select
from repro.db.ra.eval import evaluate, evaluate_rows, key_probe
from repro.db.schema import AttrType, Schema
from repro.db.sql.compiler import compile_select, plan_query
from repro.db.sql.parser import parse_statement


def make_db():
    db = Database("probe-test")
    db.create_table(
        Schema.build(
            "TOKEN",
            [("TOK_ID", AttrType.INT), ("DOC_ID", AttrType.INT), ("STRING", AttrType.STRING)],
            key=["TOK_ID"],
        )
    )
    db.create_table(
        Schema.build(
            "PAIR",
            [("A", AttrType.INT), ("B", AttrType.STRING), ("V", AttrType.INT)],
            key=["A", "B"],
        )
    )
    db.create_table(Schema.build("BAG", [("X", AttrType.INT), ("Y", AttrType.STRING)]))
    for i in range(30):
        db.insert("TOKEN", (i, i // 10, f"w{i % 7}"))
    for a in range(4):
        for b in "abc":
            db.insert("PAIR", (a, b, a * 10 + ord(b)))
    for x in (1, 1, 2, 3):
        db.insert("BAG", (x, f"y{x}"))
    return db


def key_select(plan):
    """The one ``Select``-over-``Scan`` node of a compiled single-table query."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Select) and isinstance(node.child, Scan):
            return node
        stack.extend(node.children())
    raise AssertionError("no Select over Scan in plan")


def scanned(db, select):
    """The reference answer: test every row of the table."""
    predicate = select.predicate.bind(select.child.schema)
    table = db.table(select.child.table_name)
    return Multiset([row for row in table.rows() if predicate(row)])


# (case id, SQL, the key value the probe must use — ``None`` means scan)
CASES = [
    ("int-key-float-literal", "SELECT STRING FROM TOKEN WHERE TOK_ID = 17.0", (17.0,)),
    ("int-key-string-literal", "SELECT STRING FROM TOKEN WHERE TOK_ID = '17'", ("17",)),
    ("literal-on-left", "SELECT STRING FROM TOKEN WHERE 17 = TOK_ID", (17,)),
    ("qualified-alias", "SELECT T.STRING FROM TOKEN T WHERE T.TOK_ID = 17", (17,)),
    ("contradictory-key", "SELECT STRING FROM TOKEN WHERE TOK_ID = 1 AND TOK_ID = 2", (1,)),
    ("failing-residual", "SELECT STRING FROM TOKEN WHERE TOK_ID = 17 AND DOC_ID > 5", (17,)),
    ("passing-residual", "SELECT STRING FROM TOKEN WHERE DOC_ID = 1 AND TOK_ID = 17", (17,)),
    ("composite-both-bound", "SELECT V FROM PAIR WHERE B = 'b' AND A = 2", (2, "b")),
    ("composite-one-bound", "SELECT V FROM PAIR WHERE A = 2", None),
    ("or-of-key-equalities", "SELECT STRING FROM TOKEN WHERE TOK_ID = 1 OR TOK_ID = 2", None),
    ("in-list", "SELECT STRING FROM TOKEN WHERE TOK_ID IN (1, 2)", None),
    ("range", "SELECT STRING FROM TOKEN WHERE TOK_ID < 3", None),
    ("keyless-table", "SELECT Y FROM BAG WHERE X = 1", None),
]


@pytest.mark.parametrize("sql,expected_key", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_probe_matches_scan(sql, expected_key):
    db = make_db()
    select = key_select(plan_query(db, sql))
    table_schema = db.table(select.child.table_name).schema
    pk = key_probe(select.predicate, select.child.schema, table_schema)
    assert pk == expected_key
    if expected_key is not None:
        # The literal is used as written, not coerced to the column type.
        assert [type(v) for v in pk] == [type(v) for v in expected_key]
    assert evaluate(select, db) == scanned(db, select)


def test_row_read_after_delete():
    db = make_db()
    select = key_select(plan_query(db, "SELECT STRING FROM TOKEN WHERE TOK_ID = 17"))
    assert len(evaluate(select, db)) == 1
    db.delete("TOKEN", (17,))
    assert evaluate(select, db) == scanned(db, select) == Multiset()


def _disable_scans(monkeypatch, table):
    def scan(*_args):
        raise AssertionError(f"{table.name} was scanned")

    monkeypatch.setattr(table, "as_multiset", scan)
    monkeypatch.setattr(table, "rows", scan)


def test_select_pushed_under_join_probes(monkeypatch):
    db = make_db()
    original = Select(
        Join(
            Scan(db.table("TOKEN").schema, "T"),
            Scan(db.table("PAIR").schema, "P"),
            Comparison("=", ColumnRef("DOC_ID", "T"), ColumnRef("A", "P")),
        ),
        And(
            Comparison("=", ColumnRef("TOK_ID", "T"), Literal(13)),
            Comparison("=", ColumnRef("B", "P"), Literal("c")),
        ),
    )
    expected = evaluate(original, db)
    assert len(expected) == 1
    # The compiler evaluates each conjunct on the scan it resolves in.
    compiled = plan_query(
        db,
        "SELECT * FROM TOKEN T JOIN PAIR P ON T.DOC_ID = P.A "
        "WHERE T.TOK_ID = 13 AND P.B = 'c'",
    )
    assert isinstance(compiled, Join) and isinstance(compiled.left, Select)
    _disable_scans(monkeypatch, db.table("TOKEN"))
    assert evaluate(compiled, db) == expected


class TestSessionByKey:
    """Reads and key-addressed DML on a keyed table whose scan entry
    points raise: only the probe can serve them."""

    def session(self, monkeypatch):
        session = repro.connect(make_db())
        _disable_scans(monkeypatch, session.database.table("TOKEN"))
        return session

    def test_select(self, monkeypatch):
        session = self.session(monkeypatch)
        sql = "SELECT TOK_ID, STRING FROM TOKEN WHERE TOK_ID = 17 AND DOC_ID < 5"
        assert session.execute(sql).fetchall() == [(17, "w3")]
        tree = compile_select(parse_statement(sql), session.database)
        assert evaluate_rows(tree, session.database) == [(17, "w3")]

    def test_update(self, monkeypatch):
        session = self.session(monkeypatch)
        cursor = session.execute("UPDATE TOKEN SET STRING = 'x' WHERE TOK_ID = 4")
        assert cursor.rowcount == 1
        assert session.database.table("TOKEN").get((4,)) == (4, 0, "x")
        cursor = session.execute("UPDATE TOKEN SET STRING = 'y' WHERE TOK_ID = 99")
        assert cursor.rowcount == 0

    def test_delete(self, monkeypatch):
        session = self.session(monkeypatch)
        assert session.execute("DELETE FROM TOKEN WHERE TOK_ID = 4").rowcount == 1
        assert not session.database.table("TOKEN").contains_key((4,))
        assert session.execute("DELETE FROM TOKEN WHERE TOK_ID = 4").rowcount == 0


def test_sampled_view_initialises_through_probe(monkeypatch):
    from repro.ie.ner import NerPipeline

    pipeline = NerPipeline.build(200, seed=0, steps_per_sample=10)
    table = pipeline.session.database.table("TOKEN")
    string = table.get((5,))[2]
    monkeypatch.setattr(table, "as_multiset", lambda: pytest.fail("TOKEN was scanned"))
    cursor = pipeline.session.execute(
        "SELECT STRING, LABEL FROM TOKEN WHERE TOK_ID = 5", samples=10
    )
    answers = cursor.top(10)
    assert {row[0] for row, _ in answers} == {string}
    assert sum(p for _, p in answers) == pytest.approx(1.0)


class TestExplainAccessPath:
    def test_key_read_names_its_access_path(self):
        session = repro.connect(make_db())
        report = session.explain("SELECT STRING FROM TOKEN WHERE TOK_ID = 17 AND DOC_ID < 5")
        assert "access: TOKEN by primary key (TOK_ID = 17)" in report.splitlines()

    def test_non_key_read_has_no_access_line(self):
        session = repro.connect(make_db())
        report = session.explain("SELECT STRING FROM TOKEN WHERE DOC_ID = 1")
        assert "access:" not in report

    def test_explain_shows_each_bindings_own_literals(self):
        # The session has cached the plan of this shape for 17; the
        # report for 18 must not be the cached plan's.
        db = make_db()
        session = repro.connect(db)
        shape = (
            "SELECT T1.STRING, T2.STRING FROM TOKEN T1, TOKEN T2 "
            "WHERE T1.TOK_ID = {} AND T1.DOC_ID = T2.DOC_ID"
        )
        session.execute(shape.format(17))
        first = session.explain(shape.format(17))
        second = session.explain(shape.format(18))
        assert "access: TOKEN by primary key (TOK_ID = 17)" in first
        assert "Lit(17)" not in second
        lines = second.splitlines()
        assert "access: TOKEN by primary key (TOK_ID = 18)" in lines
        narrowed = [line for line in lines if "narrowed Select(" in line]
        assert narrowed and all("Lit(18)" in line for line in narrowed)
        assert second == repro.connect(db).explain(shape.format(18))
