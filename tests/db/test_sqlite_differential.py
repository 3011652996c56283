"""Differential test: the SQL engine against stdlib ``sqlite3``.

Random keyed tables (one- and two-column primary keys over INT, REAL
and TEXT columns, no NULLs) receive random SELECT, UPDATE and DELETE
statements whose WHERE clauses mix key equalities, residual
comparisons, ``AND`` and ``OR`` — so some statements take the
primary-key probe and some scan.  The same SQL text runs in a session
and in an in-memory sqlite database; sorted result rows, rowcounts and
the table contents after every statement must agree.

Literals are type-correct for the column they meet.  sqlite applies
column affinity to a mistyped literal (``INT_COL = '17'`` matches 17);
this engine compares values as written, so ``'17'`` matches nothing.
That edge case is pinned in ``test_key_probe.py`` instead.  UPDATEs
assign non-key columns only: sqlite checks key uniqueness row by row,
this engine per statement, so a key-shifting UPDATE may legitimately
differ.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

import repro

VALUES = {
    "INT": st.integers(0, 6),
    "REAL": st.integers(0, 12).map(lambda i: i / 4),
    "TEXT": st.sampled_from(["a", "ab", "b", "c"]),
}
OPS = ["=", "!=", "<", "<=", ">", ">="]


def render(value):
    return f"'{value}'" if isinstance(value, str) else repr(value)


@st.composite
def tables(draw):
    """``(types, key_width, rows)`` for a table ``T(C0, C1, ...)`` keyed
    on its first ``key_width`` columns."""
    key_width = draw(st.integers(1, 2))
    types = draw(
        st.lists(st.sampled_from(sorted(VALUES)), min_size=key_width + 1, max_size=key_width + 3)
    )
    rows = draw(
        st.lists(
            st.tuples(*(VALUES[t] for t in types)),
            max_size=25,
            unique_by=lambda row: row[:key_width],
        )
    )
    return types, key_width, rows


@st.composite
def predicates(draw, types, key_width, rows, depth=0):
    def literal(column):
        return render(draw(VALUES[types[column]]))

    def key_equality(column, row):
        value = render(row[column]) if row else literal(column)
        if draw(st.booleans()):
            return f"C{column} = {value}"
        return f"{value} = C{column}"

    def residual():
        column = draw(st.integers(0, len(types) - 1))
        return f"C{column} {draw(st.sampled_from(OPS))} {literal(column)}"

    kinds = ["pin", "residual"] + (["and", "or"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pin":
        # Usually every key column, sometimes all but one (partial key);
        # half the time the key of a stored row, so probes find rows.
        width = draw(st.sampled_from([key_width, key_width, max(key_width - 1, 1)]))
        row = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else None
        terms = [key_equality(c, row) for c in range(width)]
        terms += draw(st.lists(st.builds(residual), max_size=1))
        return " AND ".join(draw(st.permutations(terms)))
    if kind == "residual":
        return residual()
    left = draw(predicates(types, key_width, rows, depth + 1))
    right = draw(predicates(types, key_width, rows, depth + 1))
    return f"({left}) {kind.upper()} ({right})"


@st.composite
def statements(draw, types, key_width, rows):
    where = draw(predicates(types, key_width, rows))
    kind = draw(st.sampled_from(["select", "update", "delete"]))
    if kind == "select":
        columns = draw(st.lists(st.integers(0, len(types) - 1), min_size=1, max_size=3))
        return f"SELECT {', '.join(f'C{c}' for c in columns)} FROM T WHERE {where}"
    if kind == "update":
        column = draw(st.integers(key_width, len(types) - 1))
        value = render(draw(VALUES[types[column]]))
        return f"UPDATE T SET C{column} = {value} WHERE {where}"
    return f"DELETE FROM T WHERE {where}"


@st.composite
def scenarios(draw):
    types, key_width, rows = draw(tables())
    script = draw(st.lists(statements(types, key_width, rows), min_size=1, max_size=6))
    return types, key_width, rows, script


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_matches_sqlite(scenario):
    types, key_width, rows, script = scenario
    columns = ", ".join(f"C{i} {t}" for i, t in enumerate(types))
    key = ", ".join(f"C{i}" for i in range(key_width))
    ddl = f"CREATE TABLE T ({columns}, PRIMARY KEY ({key}))"

    session = repro.connect()
    reference = sqlite3.connect(":memory:")
    try:
        session.execute(ddl)
        reference.execute(ddl)
        session.database.insert_many("T", rows)
        reference.executemany(f"INSERT INTO T VALUES ({', '.join('?' * len(types))})", rows)
        for sql in script:
            ours = session.execute(sql)
            theirs = reference.execute(sql)
            if sql.startswith("SELECT"):
                assert sorted(ours.fetchall()) == sorted(theirs.fetchall()), sql
            else:
                assert ours.rowcount == theirs.rowcount, sql
            assert sorted(session.database.table("T").rows()) == sorted(
                reference.execute("SELECT * FROM T").fetchall()
            ), sql
    finally:
        reference.close()
        session.close()
