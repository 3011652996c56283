"""Plan caching keyed by statement shape.

Compiling SQL is pure overhead when the same query is executed again —
and re-executing the same query is the norm in this system (every MCMC
sample, every ``refine()``, every dashboard poll).  So is executing a
query that differs from an earlier one only in a literal (every
point read by key).  The cache therefore files a SELECT under its
*shape*: the normalized statement (case-folded keywords and
identifiers, canonical whitespace) with each literal that compiles to
a :class:`~repro.db.ra.ast.Literal` node replaced by a typed slot.  A
hit binds the statement's own literals into the cached plan
(:meth:`repro.db.ra.planner.PlannedQuery.bind`).  DML is filed under
its literal-inclusive text and stores the parsed statement.

:func:`statement_key` is the one place that decides which literals
become slots; :func:`normalize_sql` is the literal-inclusive text,
which stays the statement's identity everywhere else (runner cache,
targeted-chain seed, serve marginal cache).

The cache is LRU-bounded and counts hits/misses so callers can verify
caching behavior (:meth:`PlanCache.info`).  A second map of the same
bound remembers the key of each recent statement text, so repeated
text skips the lexer.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.db.sql.lexer import Token, TokenType, tokenize

__all__ = ["CacheInfo", "PlanCache", "StatementKey", "normalize_sql", "statement_key"]

# Slot markers by literal type: ``?`` is no token of the dialect, so a
# marker never collides with a rendered token, and INT, FLOAT and STRING
# literals stay distinct (``SELECT 1`` and ``SELECT 1.0`` have different
# result types, so their plans are not interchangeable).
_SLOT = {int: "?int", float: "?float", str: "?str"}

# The parser reads the literal right after these keywords as a raw value
# (``LIMIT n``, ``LIKE 'pattern'``), and so the literals of ``IN (...)``
# lists; none of them becomes a Literal node.
_RAW_AFTER = ("limit", "like")


class StatementKey(NamedTuple):
    """How the plan cache files one statement.

    ``text`` is :func:`normalize_sql` of the statement.  ``plan`` is the
    plan-cache key: ``text`` itself for DDL, DML and a SELECT without
    slots, else the SELECT's shape, which also records which slots
    hold equal values (the compiler matches a select-list expression
    to its GROUP BY twin by equality, so equal and unequal bindings
    plan differently).  ``binds`` are the slot values and ``slots`` the
    index of each slot's token, in token order.  ``tokens`` is the
    token list the key was built from, kept only until the statement
    is parsed.
    """

    text: str
    plan: str
    binds: tuple[Any, ...]
    slots: tuple[int, ...]
    tokens: Optional[list[Token]] = None


def statement_key(sql: str) -> StatementKey:
    """Tokenize ``sql`` once and build its :class:`StatementKey`."""
    tokens = tokenize(sql)
    parts: list[str] = []
    binds: list[Any] = []
    slots: list[int] = []
    marks: list[int] = []  # index into ``parts`` of each slot
    select = tokens[0].is_keyword("select")
    in_list = False
    for index, token in enumerate(tokens):
        kind = token.kind
        value = token.value
        if kind is TokenType.KEYWORD:
            parts.append(value)
            in_list = in_list or value == "in"
            continue
        if kind is TokenType.IDENT:
            parts.append(value.lower())
            continue
        if kind is TokenType.SYMBOL:
            parts.append(value)
            in_list = in_list and value != ")"
            continue
        if kind is TokenType.EOF:
            break
        if kind is TokenType.STRING:
            parts.append("'" + value.replace("'", "''") + "'")
        else:
            parts.append(repr(value))
        previous = tokens[index - 1]
        if select and not in_list and not (
            previous.kind is TokenType.KEYWORD and previous.value in _RAW_AFTER
        ):
            marks.append(len(parts) - 1)
            slots.append(index)
            binds.append(value)
    while parts and parts[-1] == ";":
        parts.pop()
    text = " ".join(parts)
    plan = text
    if binds:
        for mark, value in zip(marks, binds):
            parts[mark] = _SLOT[type(value)]
        plan = " ".join(parts)
        # ``==`` groups 1 with 1.0, as Literal equality in the compiler does.
        first: dict[Any, int] = {}
        pattern = [first.setdefault(value, i) for i, value in enumerate(binds)]
        if len(first) < len(binds):
            plan += " ?= " + " ".join(map(str, pattern))
    return StatementKey(text, plan, tuple(binds), tuple(slots), tokens)


def normalize_sql(sql: str) -> str:
    """A canonical single-line rendering of ``sql``.

    Two statements that differ only in whitespace, keyword case,
    identifier case, or a trailing ``;`` normalize identically —
    identifiers are matched case-insensitively throughout the engine,
    so folding them is safe.  String literals keep their case.

    Numeric literals render from their *token value*, so equivalent
    spellings of the same value share a key (``1.0`` / ``1.00`` /
    ``1e0``, and ``1e2`` / ``100.0`` — the lexer folds exponents into
    one float token), while ``1`` and ``1.0`` stay **distinct** on
    purpose: integer and float literals have different result types
    (``SELECT 1`` yields an INT column, ``SELECT 1.0`` a FLOAT one),
    so their compiled plans are not interchangeable.  A sign is a
    separate symbol token (``-5`` is ``- 5``), making ``=-5`` and
    ``= -5`` the same key.
    """
    return statement_key(sql).text


class CacheInfo(NamedTuple):
    """Counters exposed by :meth:`PlanCache.info`."""

    hits: int
    misses: int
    size: int
    maxsize: int


class PlanCache:
    """A bounded LRU mapping of plan key → cached entry, and a map of
    the same bound from recent statement texts to their keys."""

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("plan cache needs maxsize >= 1")
        self.maxsize = maxsize
        self._entries: dict[str, Any] = {}
        # A key is a pure function of the text, so DDL never clears this.
        self._keys: dict[str, StatementKey] = {}
        self._hits = 0
        self._misses = 0

    def key(self, sql: str) -> StatementKey:
        """The :class:`StatementKey` of ``sql``; only text not seen
        recently is tokenized, and only then does the key carry its
        tokens."""
        key = self._keys.pop(sql, None)
        fresh = key is None
        if fresh:
            key = statement_key(sql)
        self._keys[sql] = key._replace(tokens=None) if fresh else key
        if len(self._keys) > self.maxsize:
            self._keys.pop(next(iter(self._keys)))
        return key

    def get(self, key: str) -> Optional[Any]:
        """The cached entry for ``key``, or ``None``; counts hit/miss."""
        try:
            entry = self._entries.pop(key)
        except KeyError:
            self._misses += 1
            return None
        # Re-insert to mark most-recently-used (dicts preserve order).
        self._entries[key] = entry
        self._hits += 1
        return entry

    def put(self, key: str, entry: Any) -> None:
        self._entries.pop(key, None)
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.pop(next(iter(self._entries)))

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._entries), self.maxsize)
