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

Every generated statement is a *shape*: its literals are slots, and
the statement runs under three bindings of them, so a SELECT plans once
and later bindings are served from the plan cache by binding new
literals into the cached plan.  The first binding gives every slot of
one literal type the same value, the later ones draw each slot on its
own, so two literals that were equal when the shape was planned differ
afterwards (the planner shares subtrees whose literals are equal).  A
key pin drawn from the stored rows takes one stored row's key in each
binding, so probes find rows.  Numeric slots take INT or FLOAT literals
whatever the column's type, some are negated, and string slots include
a quote.  Each SELECT runs with the planner on and off, against sqlite,
and against a fresh session that plans the statement's own text: rows
and both planned trees must match.  Two extra shapes aim at
literal-dependent planning: correlated counts whose two subqueries
differ only in a literal (shared when the literals are equal), and
GROUP BY an expression whose select-list twin matches only when their
literals are equal.  That GROUP BY shape is the only statement allowed
to raise, and then the fresh and the cached session must raise alike.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import QueryError

VALUES = {
    "INT": st.integers(0, 6),
    "REAL": st.integers(0, 12).map(lambda i: i / 4),
    "TEXT": st.sampled_from(["a", "ab", "b", "c"]),
}
# The literal values a slot of each literal type may take.
LITERALS = {
    int: VALUES["INT"],
    float: VALUES["REAL"],
    str: st.sampled_from(["a", "ab", "b", "c", "it's"]),
}
OPS = ["=", "!=", "<", "<=", ">", ">="]


def render(value, negative=False):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return ("-" if negative else "") + repr(value)


class Slots:
    """The slots of one statement shape: each a literal type, a value
    strategy (``None`` for a key pinned to a stored row) and whether
    the literal is negated.  ``pins`` lists, per key pin drawn from the
    stored rows, its ``(slot, column)`` pairs."""

    def __init__(self):
        self.specs = []
        self.pins = []

    def add(self, kind, values, negative=False):
        self.specs.append((kind, values, negative))
        return "{%d}" % (len(self.specs) - 1)


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
def literals(draw, slots, column_type):
    """A slot for a literal compared with a column of ``column_type``."""
    if column_type == "TEXT":
        return slots.add(str, LITERALS[str])
    kind = draw(st.sampled_from([int, float]))
    return slots.add(kind, LITERALS[kind], draw(st.booleans()) and draw(st.booleans()))


@st.composite
def predicates(draw, slots, types, key_width, rows, depth=0):
    def key_equality(column, pin):
        kind = {"INT": int, "REAL": float, "TEXT": str}[types[column]]
        if pin is None:
            value = slots.add(kind, VALUES[types[column]])
        else:
            value = slots.add(kind, None)
            pin.append((len(slots.specs) - 1, column))
        if draw(st.booleans()):
            return f"C{column} = {value}"
        return f"{value} = C{column}"

    def residual():
        column = draw(st.integers(0, len(types) - 1))
        literal = draw(literals(slots, types[column]))
        return f"C{column} {draw(st.sampled_from(OPS))} {literal}"

    kinds = ["pin", "residual"] + (["and", "or"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pin":
        # Usually every key column, sometimes all but one (partial key);
        # half the time the key of a stored row, so probes find rows.
        width = draw(st.sampled_from([key_width, key_width, max(key_width - 1, 1)]))
        pin = None
        if rows and draw(st.booleans()):
            pin = []
            slots.pins.append(pin)
        terms = [key_equality(c, pin) for c in range(width)]
        if draw(st.booleans()):
            terms.append(residual())
        return " AND ".join(draw(st.permutations(terms)))
    if kind == "residual":
        return residual()
    left = draw(predicates(slots, types, key_width, rows, depth + 1))
    right = draw(predicates(slots, types, key_width, rows, depth + 1))
    return f"({left}) {kind.upper()} ({right})"


@st.composite
def statements(draw, types, key_width, rows):
    """``(kind, template, slots)``: a statement with ``{i}`` for slot i."""
    slots = Slots()
    numeric = [c for c, t in enumerate(types) if t != "TEXT"]
    kinds = ["select", "select", "update", "delete", "counts"] + (["grouped"] if numeric else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "counts":
        column = draw(st.integers(0, len(types) - 1))
        link = draw(st.integers(0, len(types) - 1))
        op = draw(st.sampled_from(OPS))
        first = draw(literals(slots, types[column]))
        kind_, values, negative = slots.specs[-1]
        second = slots.add(kind_, values, negative)
        counts = [
            f"(SELECT COUNT(*) FROM T T1 WHERE T1.C{column} {op} {literal} "
            f"AND T1.C{link} = T.C{link})"
            for literal in (first, second)
        ]
        return kind, f"SELECT T.C0 FROM T WHERE {counts[0]} = {counts[1]}", slots
    if kind == "grouped":
        column = draw(st.sampled_from(numeric))
        first = draw(literals(slots, types[column]))
        kind_, values, negative = slots.specs[-1]
        second = slots.add(kind_, values, negative)
        having = ""
        if draw(st.booleans()):
            having = f" HAVING COUNT(*) > {slots.add(int, LITERALS[int])}"
        return kind, (
            f"SELECT C{column} + {first}, COUNT(*) FROM T "
            f"GROUP BY C{column} + {second}{having}"
        ), slots
    where = draw(predicates(slots, types, key_width, rows))
    if kind == "select":
        columns = draw(st.lists(st.integers(0, len(types) - 1), min_size=1, max_size=3))
        return kind, f"SELECT {', '.join(f'C{c}' for c in columns)} FROM T WHERE {where}", slots
    if kind == "update":
        column = draw(st.integers(key_width, len(types) - 1))
        value = render(draw(VALUES[types[column]]))
        return kind, f"UPDATE T SET C{column} = {value} WHERE {where}", slots
    return kind, f"DELETE FROM T WHERE {where}", slots


@st.composite
def bound_statements(draw, types, key_width, rows):
    """``(kind, sql)`` for one shape under three bindings.  In the
    first, every slot of a literal type that is not pinned to a stored
    row takes the value of that type's first such slot."""
    kind, template, slots = draw(statements(types, key_width, rows))
    texts = []
    for binding in range(3):
        values = [None if spec[1] is None else draw(spec[1]) for spec in slots.specs]
        if binding == 0:
            first = {}
            values = [
                v if spec[1] is None else first.setdefault(spec[0], v)
                for spec, v in zip(slots.specs, values)
            ]
        for pin in slots.pins:
            row = draw(st.sampled_from(rows))
            for slot, column in pin:
                values[slot] = row[column]
        rendered = [render(v, spec[2]) for spec, v in zip(slots.specs, values)]
        texts.append((kind, template.format(*rendered)))
    return texts


@st.composite
def scenarios(draw):
    types, key_width, rows = draw(tables())
    script = draw(st.lists(bound_statements(types, key_width, rows), min_size=1, max_size=4))
    return types, key_width, rows, [sql for shape in script for sql in shape]


def result(session, sql, optimize=True):
    """Sorted rows."""
    return sorted(session.execute(sql, optimize=optimize).fetchall())


def outcome(session, sql, optimize=True):
    """Sorted rows, or the error ``sql`` raises."""
    try:
        return result(session, sql, optimize)
    except QueryError as error:
        return type(error), str(error)


def trees(session, sql):
    """The optimized and raw plans the session runs for ``sql``."""
    planned = session._route(sql)[2]
    return planned.plan.describe(), planned.raw.describe()


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
        for kind, sql in script:
            if sql.startswith("SELECT"):
                # A session that has planned no statement of this shape.
                fresh = repro.connect(session.database)
                # GROUP BY C + x with C + y selected is an error when x != y.
                run = outcome if kind == "grouped" else result
                expected = run(fresh, sql)
                assert run(session, sql) == expected, sql
                assert run(session, sql, optimize=False) == expected, sql
                if isinstance(expected, list):
                    assert expected == sorted(reference.execute(sql).fetchall()), sql
                    assert trees(session, sql) == trees(fresh, sql), sql
                continue
            ours = session.execute(sql)
            theirs = reference.execute(sql)
            assert ours.rowcount == theirs.rowcount, sql
            assert sorted(session.database.table("T").rows()) == sorted(
                reference.execute("SELECT * FROM T").fetchall()
            ), sql
    finally:
        reference.close()
        session.close()
