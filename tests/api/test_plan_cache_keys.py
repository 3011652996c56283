"""Plan-cache keys: literal spellings, statement shapes, bounds.

``normalize_sql`` renders numeric literals from their token values, so
equivalent spellings of the same value must share one cache key while
literals with different result types stay apart.  Before the lexer
learned scientific notation, ``1e2`` tokenized as NUMBER(1) + IDENT(e2)
— a different key *and* a different parse — while ``1.0`` vs ``1.00``
already folded.

A SELECT is planned once per *shape* (its literals lifted into typed
slots, plus which slots hold equal values); the literals the grammar
reads as raw values, and every literal of DML, stay in the key.  Both
of the plan cache's maps stay within their bound under a stream of
statements that never repeats a literal.
"""

import gc
import tracemalloc

import pytest

from repro.api import connect, normalize_sql
from repro.api.plan_cache import statement_key
from repro.db.sql import lexer
from repro.db.sql.lexer import TokenType, tokenize
from repro.errors import SqlSyntaxError


def key(sql: str) -> str:
    return normalize_sql(sql)


class TestNumericKeyFolding:
    def test_float_spellings_share_a_key(self):
        assert key("SELECT A FROM T WHERE B = 1.0") == key(
            "SELECT A FROM T WHERE B = 1.00"
        )

    def test_scientific_notation_folds_to_value(self):
        assert key("SELECT A FROM T WHERE B = 1e2") == key(
            "SELECT A FROM T WHERE B = 100.0"
        )
        assert key("SELECT A FROM T WHERE B = 1.5E-3") == key(
            "SELECT A FROM T WHERE B = 0.0015"
        )
        assert key("SELECT A FROM T WHERE B = 1e0") == key(
            "SELECT A FROM T WHERE B = 1.0"
        )

    def test_int_and_float_literals_stay_distinct(self):
        # SELECT 1 yields an INT column, SELECT 1.0 a FLOAT one — the
        # compiled plans are not interchangeable.
        assert key("SELECT A FROM T WHERE B = 1") != key(
            "SELECT A FROM T WHERE B = 1.0"
        )

    def test_negative_numbers_do_not_split_keys(self):
        # The sign is a symbol token; spacing around it must not matter.
        assert key("SELECT A FROM T WHERE B =-5") == key(
            "SELECT A FROM T WHERE B = -5"
        )
        assert key("SELECT A - 1 FROM T") == key("SELECT A -1 FROM T")


class TestLexerScientificNotation:
    def test_exponent_is_one_float_token(self):
        tokens = tokenize("1e2")
        assert tokens[0].kind is TokenType.NUMBER
        assert tokens[0].value == 100.0
        assert tokens[1].kind is TokenType.EOF

    def test_signed_exponent(self):
        tokens = tokenize("2.5e-2")
        assert tokens[0].value == 0.025

    def test_spaced_e_stays_identifier(self):
        # ``1 e2`` is a literal aliased to column e2, not 100.0.
        tokens = tokenize("1 e2")
        assert [t.kind for t in tokens[:2]] == [TokenType.NUMBER, TokenType.IDENT]
        assert tokens[0].value == 1

    def test_trailing_word_char_reverts(self):
        # ``1e2x`` is not a number followed by garbage we half-consumed.
        tokens = tokenize("1e2x")
        assert tokens[0].kind is TokenType.NUMBER
        assert tokens[0].value == 1
        assert tokens[1].kind is TokenType.IDENT
        assert tokens[1].value == "e2x"

    def test_bare_e_stays_identifier_suffix(self):
        tokens = tokenize("1e")
        assert tokens[0].value == 1
        assert tokens[1].value == "e"


class TestEndToEndKeySharing:
    def test_equivalent_literals_hit_the_same_cached_plan(self):
        session = connect(name="keys")
        session.execute_script(
            "CREATE TABLE T (A INT PRIMARY KEY, B FLOAT); "
            "INSERT INTO T VALUES (1, 100.0), (2, 0.5)"
        )
        baseline = session.cache_info().misses
        assert list(session.execute("SELECT A FROM T WHERE B = 1e2")) == [(1,)]
        assert list(session.execute("SELECT A FROM T WHERE B = 100.0")) == [(1,)]
        assert list(session.execute("SELECT A FROM T WHERE B = 100.00")) == [(1,)]
        info = session.cache_info()
        assert info.misses == baseline + 1  # one compile, two hits
        assert info.hits >= 2


def shape(sql: str) -> str:
    return statement_key(sql).plan


class TestShapeKeys:
    def test_identity_keeps_literals_and_shape_drops_them(self):
        a = "SELECT A FROM T WHERE B = 1 AND C = 'x'"
        b = "SELECT A FROM T WHERE B = 7 AND C = 'it''s'"
        assert statement_key(a).text == normalize_sql(a) != normalize_sql(b)
        assert shape(a) == shape(b)
        assert statement_key(b).binds == (7, "it's")

    def test_slot_types_stay_distinct(self):
        assert shape("SELECT A FROM T WHERE B = 1") != shape("SELECT A FROM T WHERE B = 1.0")
        assert shape("SELECT A FROM T WHERE B = 1") != shape("SELECT A FROM T WHERE B = '1'")
        assert shape("SELECT A FROM T WHERE B = -1") != shape("SELECT A FROM T WHERE B = 1")
        assert shape("SELECT A FROM T WHERE B = -1") == shape("SELECT A FROM T WHERE B = -2")

    def test_equal_slots_are_part_of_the_shape(self):
        same = shape("SELECT A FROM T WHERE B = 1 AND C = 1")
        assert same != shape("SELECT A FROM T WHERE B = 1 AND C = 2")
        assert same == shape("SELECT A FROM T WHERE B = 5 AND C = 5")
        # Equal as the compiler compares literals: 1 == 1.0.
        assert shape("SELECT A FROM T WHERE B = 1 AND C = 1.0") == shape(
            "SELECT A FROM T WHERE B = 2 AND C = 2.0"
        ) != shape("SELECT A FROM T WHERE B = 1 AND C = 2.0")

    @pytest.mark.parametrize(
        "a, b",
        [
            ("SELECT A FROM T LIMIT 5", "SELECT A FROM T LIMIT 6"),
            ("SELECT A FROM T WHERE C LIKE 'a%'", "SELECT A FROM T WHERE C LIKE 'b%'"),
            ("SELECT A FROM T WHERE B IN (1, 2)", "SELECT A FROM T WHERE B IN (1, 3)"),
            ("INSERT INTO T VALUES (1, 'x')", "INSERT INTO T VALUES (2, 'x')"),
            ("UPDATE T SET B = 1 WHERE A = 2", "UPDATE T SET B = 1 WHERE A = 3"),
            ("DELETE FROM T WHERE A = 2", "DELETE FROM T WHERE A = 3"),
        ],
    )
    def test_raw_and_dml_literals_stay_in_the_key(self, a, b):
        assert statement_key(a).plan == normalize_sql(a)
        assert shape(a) != shape(b)

    def test_raw_literals_beside_slots(self):
        a = statement_key("SELECT A FROM T WHERE B IN (1, 2) AND C = 3 LIMIT 4")
        assert a.binds == (3,)
        assert a.plan == shape("SELECT A FROM T WHERE B IN (1, 2) AND C = 9 LIMIT 4")

    def test_each_statement_is_tokenized_at_most_once(self, monkeypatch):
        session = connect(name="lex")
        session.execute_script(
            "CREATE TABLE T (A INT PRIMARY KEY, B FLOAT); INSERT INTO T VALUES (1, 0.5)"
        )
        scans = []
        original = lexer._scan
        monkeypatch.setattr(lexer, "_scan", lambda text: scans.append(text) or original(text))
        for sql in ["SELECT A FROM T WHERE A = 1", "SELECT A FROM T WHERE A = 2"]:
            for _ in range(2):
                session.execute(sql)
        session.execute("INSERT INTO T VALUES (3, 1.5)")
        assert scans == [
            "SELECT A FROM T WHERE A = 1",  # a new shape: one pass
            "SELECT A FROM T WHERE A = 2",  # new text of a known shape
            "INSERT INTO T VALUES (3, 1.5)",
        ]


class TestBoundedCaches:
    SHAPES = [
        "SELECT B FROM T WHERE A = {} AND C < {}",
        "SELECT T1.B FROM T T1, T T2 WHERE T1.A = {} AND T2.A = T1.C AND T2.C > {}",
        "SELECT C, COUNT(*) FROM T WHERE A > {} AND B != 'v{}' GROUP BY C",
    ]

    def test_ten_thousand_new_literals_stay_within_bounds(self):
        session = connect(name="soak", plan_cache_size=8)
        session.execute("CREATE TABLE T (A INT PRIMARY KEY, B TEXT, C INT)")
        session.execute(
            "INSERT INTO T VALUES "
            + ", ".join(f"({i}, 'v{i % 7}', {i % 4}0)" for i in range(12))
        )
        plans = session._plans
        misses = session.cache_info().misses
        # Tracing costs ~6x per read, so only the last 2 000 are traced.
        warm_up, total = 8_000, 10_000
        try:
            for i in range(total):
                if i == warm_up:
                    # What is allocated from here on and still held at
                    # the end is the growth.
                    gc.collect()
                    tracemalloc.start()
                template = self.SHAPES[i % len(self.SHAPES)]
                rows = session.execute(template.format(i % 12, 1_000_000 + i)).fetchall()
                assert rows or template is not self.SHAPES[0]
                assert len(plans) <= 8 and len(plans._keys) <= 8
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert session.cache_info().misses == misses + len(self.SHAPES)
        assert grown < 64 * 1024, grown
