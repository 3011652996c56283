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
afterwards.  A key pin drawn from the stored rows takes one stored
row's key in each binding, so probes find rows.  Numeric slots take
INT or FLOAT literals whatever the column's type, some are negated, and
string slots include a quote.

Besides keyed reads over ``T``, SELECTs take the shapes whose conjuncts
the compiler places: ``SELECT *`` (which compiles to no projection),
three copies of ``T`` chained by explicit ``JOIN ... ON`` with a
conjunct spanning two of them, comma joins, and correlated
``COUNT(*)`` subqueries next to plain conjuncts.  Each SELECT runs
against sqlite, against the compiler's own tree evaluated without the
planner, and against a fresh session that plans the statement's own
text: rows and planned trees must match, and the planner may only have
pruned projections.  Two extra shapes aim at literal-dependent
planning: correlated counts whose two subqueries differ only in a
literal, and GROUP BY an expression whose select-list twin matches
only when their literals are equal.  That GROUP BY shape is the only
statement allowed to raise, and then the fresh and the cached session
must raise alike.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.ra.eval import evaluate_rows
from repro.db.sql.compiler import compile_select
from repro.db.sql.parser import parse_statement
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
def predicates(draw, slots, types, key_width, rows, depth=0, alias=""):
    """A WHERE predicate over one copy of ``T``; ``alias`` (``"A."``)
    qualifies its columns."""

    def key_equality(column, pin):
        kind = {"INT": int, "REAL": float, "TEXT": str}[types[column]]
        if pin is None:
            value = slots.add(kind, VALUES[types[column]])
        else:
            value = slots.add(kind, None)
            pin.append((len(slots.specs) - 1, column))
        if draw(st.booleans()):
            return f"{alias}C{column} = {value}"
        return f"{value} = {alias}C{column}"

    def residual():
        column = draw(st.integers(0, len(types) - 1))
        literal = draw(literals(slots, types[column]))
        return f"{alias}C{column} {draw(st.sampled_from(OPS))} {literal}"

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
    left = draw(predicates(slots, types, key_width, rows, depth + 1, alias))
    right = draw(predicates(slots, types, key_width, rows, depth + 1, alias))
    return f"({left}) {kind.upper()} ({right})"


@st.composite
def spanning(draw, types, left, right, ops=OPS):
    """A conjunct comparing a column of ``left`` with one of the same
    kind (TEXT or numeric) of ``right``."""
    column = draw(st.integers(0, len(types) - 1))
    text = types[column] == "TEXT"
    other = draw(st.sampled_from([c for c, t in enumerate(types) if (t == "TEXT") == text]))
    return f"{left}.C{column} {draw(st.sampled_from(ops))} {right}.C{other}"


@st.composite
def select_list(draw, types, aliases):
    """``*`` or one to three qualified columns."""
    if draw(st.booleans()):
        return "*"
    columns = draw(
        st.lists(
            st.tuples(st.sampled_from(aliases), st.integers(0, len(types) - 1)),
            min_size=1,
            max_size=3,
        )
    )
    return ", ".join(f"{alias}.C{column}" for alias, column in columns)


@st.composite
def count_conjunct(draw, slots, types):
    """A conjunct over a correlated ``COUNT(*)`` of ``T``: the one
    aggregate whose empty value sqlite and this engine agree on."""
    link = draw(st.integers(0, len(types) - 1))
    column = draw(st.integers(0, len(types) - 1))
    literal = draw(literals(slots, types[column]))
    count = (
        f"(SELECT COUNT(*) FROM T T1 WHERE T1.C{column} "
        f"{draw(st.sampled_from(OPS))} {literal} AND T1.C{link} = T.C{link})"
    )
    numeric = [c for c, t in enumerate(types) if t != "TEXT"]
    op = draw(st.sampled_from(OPS))
    if numeric and draw(st.booleans()):
        return f"T.C{draw(st.sampled_from(numeric))} {op} {count}"
    return f"{count} {op} {slots.add(int, LITERALS[int])}"


@st.composite
def statements(draw, types, key_width, rows):
    """``(kind, template, slots)``: a statement with ``{i}`` for slot i."""
    slots = Slots()
    numeric = [c for c, t in enumerate(types) if t != "TEXT"]
    kinds = ["select", "select", "update", "delete", "counts", "star", "chain", "comma", "subquery"]
    kind = draw(st.sampled_from(kinds + (["grouped"] if numeric else [])))
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
    if kind == "chain":
        # Three copies of T joined by explicit JOIN ... ON, a conjunct
        # spanning two of them, and a predicate on one of them.
        first, second = sorted(draw(st.permutations("ABC"))[:2])
        span = draw(spanning(types, first, second))
        on_ab = draw(spanning(types, "A", "B", ["="]))
        on_bc = draw(spanning(types, "B", "C", ["="]))
        alias = draw(st.sampled_from("ABC"))
        where = draw(predicates(slots, types, key_width, rows, alias=f"{alias}."))
        return kind, (
            f"SELECT {draw(select_list(types, 'ABC'))} FROM T A JOIN T B ON {on_ab} "
            f"JOIN T C ON {on_bc} WHERE {span} AND ({where})"
        ), slots
    if kind == "comma":
        conjuncts = [
            draw(predicates(slots, types, key_width, rows, alias=f"{alias}."))
            for alias in draw(st.lists(st.sampled_from("AB"), max_size=2))
        ]
        if draw(st.booleans()):
            conjuncts.append(draw(spanning(types, "A", "B")))
        where = " AND ".join(f"({c})" for c in draw(st.permutations(conjuncts)))
        return kind, (
            f"SELECT {draw(select_list(types, 'AB'))} FROM T A, T B"
            + (f" WHERE {where}" if where else "")
        ), slots
    if kind == "subquery":
        conjuncts = [draw(predicates(slots, types, key_width, rows, alias="T."))]
        conjuncts += draw(st.lists(count_conjunct(slots, types), min_size=1, max_size=2))
        where = " AND ".join(f"({c})" for c in draw(st.permutations(conjuncts)))
        return kind, f"SELECT {draw(select_list(types, 'T'))} FROM T WHERE {where}", slots
    where = draw(predicates(slots, types, key_width, rows))
    if kind == "star":
        return kind, f"SELECT * FROM T WHERE {where}", slots
    if kind == "select":
        # Sometimes every column, in some order: one order is the
        # table's own, whose select list re-emits its input.
        columns = draw(
            st.lists(st.integers(0, len(types) - 1), min_size=1, max_size=3)
            | st.permutations(range(len(types)))
        )
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


def result(session, sql):
    """Sorted rows."""
    return sorted(session.execute(sql).fetchall())


def outcome(session, sql):
    """Sorted rows, or the error ``sql`` raises."""
    try:
        return result(session, sql)
    except QueryError as error:
        return type(error), str(error)


def compiled(session, sql):
    """Sorted rows of the compiler's own tree, which no planner touched."""
    tree = compile_select(parse_statement(sql), session.database)
    return sorted(evaluate_rows(tree, session.database))


def trees(session, sql):
    """The plan the session runs for ``sql``, after checking that the
    planner only pruned it."""
    planned = session._route(sql)[2]
    assert {a.rule for a in planned.trace} <= {"prune-projections"}, sql
    return planned.plan.describe()


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
                if isinstance(expected, list):
                    assert expected == sorted(reference.execute(sql).fetchall()), sql
                    assert expected == compiled(session, sql), sql
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
