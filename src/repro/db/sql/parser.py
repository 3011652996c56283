"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    stmt     := select | create | drop | insert | update | delete
    select   := SELECT [DISTINCT] items FROM tables [joins] [WHERE expr]
                [GROUP BY exprs] [HAVING expr] [ORDER BY orders] [LIMIT n]
    items    := '*' | item (',' item)*
    item     := expr [[AS] ident]
    tables   := table_ref (',' table_ref)*
    joins    := (JOIN | INNER JOIN) table_ref ON expr ...
    create   := CREATE TABLE [IF NOT EXISTS] ident '(' coldef (',' coldef)*
                [',' PRIMARY KEY '(' ident (',' ident)* ')'] ')'
    coldef   := ident typename [PRIMARY KEY]
    drop     := DROP TABLE [IF EXISTS] ident
    insert   := INSERT INTO ident ['(' idents ')'] VALUES tuple (',' tuple)*
    update   := UPDATE ident SET ident '=' expr (',' ident '=' expr)*
                [WHERE expr]
    delete   := DELETE FROM ident [WHERE expr]
    expr     := or-precedence climb down to primary
    primary  := literal | column | aggregate | '(' expr ')' | '(' select ')'

:func:`parse` produces a :class:`repro.db.sql.ast.SelectStmt` (the
historical entry point); :func:`parse_statement` accepts any statement
class and :func:`parse_script` a ``;``-separated sequence of them.
:func:`parse_tokens` parses an already tokenized statement and reports
the :class:`~repro.db.ra.ast.Literal` nodes it built, so the plan cache
can bind new values into a plan compiled from them.
"""

from __future__ import annotations

from typing import Optional

from repro.db.ra.ast import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Like,
    Literal,
    Not,
    Or,
)
from repro.db.sql.ast import (
    AggCall,
    ColumnDef,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.db.types import AttrType
from repro.errors import SqlSyntaxError

__all__ = ["parse", "parse_statement", "parse_script", "parse_tokens"]

_AGG_KEYWORDS = ("count", "sum", "avg", "min", "max")

# SQL type names (identifiers, not keywords, so that columns may be
# called e.g. STRING) mapped onto the engine's attribute types.
_TYPE_NAMES = {
    "int": AttrType.INT,
    "integer": AttrType.INT,
    "bigint": AttrType.INT,
    "float": AttrType.FLOAT,
    "real": AttrType.FLOAT,
    "double": AttrType.FLOAT,
    "string": AttrType.STRING,
    "text": AttrType.STRING,
    "char": AttrType.STRING,
    "varchar": AttrType.STRING,
}


def parse(sql: str) -> SelectStmt:
    """Parse one SELECT statement (a trailing ``;`` is tolerated)."""
    parser = _Parser(tokenize(sql))
    stmt = parser.select_stmt()
    parser.skip_symbol(";")
    parser.expect_eof()
    return stmt


def parse_statement(sql: str) -> Statement:
    """Parse one statement of any class (SELECT, DDL or DML)."""
    return parse_tokens(tokenize(sql))[0]


def parse_tokens(tokens: list[Token]) -> tuple[Statement, list[tuple[int, Literal]]]:
    """Parse one statement from its token list.

    Also returns every :class:`Literal` node built from a token, as
    ``(token index, node)`` in token order.  Literals the grammar reads
    as raw values (``LIMIT n``, ``LIKE`` patterns, ``IN`` lists) build
    no node and are not reported.
    """
    parser = _Parser(tokens)
    stmt = parser.statement()
    parser.skip_symbol(";")
    parser.expect_eof()
    return stmt, parser.literals


def parse_script(sql: str) -> list[Statement]:
    """Parse a ``;``-separated sequence of statements."""
    parser = _Parser(tokenize(sql))
    statements: list[Statement] = []
    parser.skip_symbol(";")
    while parser.peek().kind is not TokenType.EOF:
        statements.append(parser.statement())
        if parser.peek().kind is TokenType.EOF:
            break
        parser.expect_symbol(";")
        parser.skip_symbol(";")
    return statements


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.literals: list[tuple[int, Literal]] = []

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind is not TokenType.EOF:
            self._pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if not token.is_keyword(word):
            raise SqlSyntaxError(
                f"expected {word.upper()}, found {token.value!r}", token.position
            )

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    def skip_symbol(self, symbol: str) -> None:
        while self.peek().is_symbol(symbol):
            self.advance()

    def expect_symbol(self, symbol: str) -> None:
        token = self.advance()
        if not token.is_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, found {token.value!r}", token.position
            )

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind is TokenType.IDENT:
            return token.value
        raise SqlSyntaxError(
            f"expected identifier, found {token.value!r}", token.position
        )

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind is not TokenType.EOF:
            raise SqlSyntaxError(
                f"unexpected trailing input {token.value!r}", token.position
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("select"):
            return self.select_stmt()
        if token.is_keyword("create"):
            return self.create_table_stmt()
        if token.is_keyword("drop"):
            return self.drop_table_stmt()
        if token.is_keyword("insert"):
            return self.insert_stmt()
        if token.is_keyword("update"):
            return self.update_stmt()
        if token.is_keyword("delete"):
            return self.delete_stmt()
        raise SqlSyntaxError(
            f"expected a statement, found {token.value!r}", token.position
        )

    # -- DDL -------------------------------------------------------------
    def create_table_stmt(self) -> CreateTableStmt:
        self.expect_keyword("create")
        self.expect_keyword("table")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_symbol("(")
        columns: list[ColumnDef] = []
        key: list[str] = []
        while True:
            if self.peek().is_keyword("primary"):
                if key:
                    raise SqlSyntaxError(
                        "duplicate PRIMARY KEY clause", self.peek().position
                    )
                self.advance()
                self.expect_keyword("key")
                self.expect_symbol("(")
                key.append(self.expect_ident())
                while self.accept_symbol(","):
                    key.append(self.expect_ident())
                self.expect_symbol(")")
            else:
                columns.append(self.column_def())
                if self.peek().is_keyword("primary"):
                    # Inline `col TYPE PRIMARY KEY`.
                    if key:
                        raise SqlSyntaxError(
                            "duplicate PRIMARY KEY clause", self.peek().position
                        )
                    self.advance()
                    self.expect_keyword("key")
                    key.append(columns[-1].name)
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        if not columns:
            raise SqlSyntaxError("CREATE TABLE needs at least one column", None)
        return CreateTableStmt(
            table=table,
            columns=tuple(columns),
            key=tuple(key),
            if_not_exists=if_not_exists,
        )

    def column_def(self) -> ColumnDef:
        name = self.expect_ident()
        type_token = self.advance()
        if type_token.kind is not TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected a type name, found {type_token.value!r}",
                type_token.position,
            )
        attr_type = _TYPE_NAMES.get(type_token.value.lower())
        if attr_type is None:
            raise SqlSyntaxError(
                f"unknown type {type_token.value!r} (expected one of "
                f"{sorted(set(_TYPE_NAMES))})",
                type_token.position,
            )
        # Tolerate and ignore a length such as VARCHAR(32).
        if self.accept_symbol("("):
            size = self.advance()
            if size.kind is not TokenType.NUMBER:
                raise SqlSyntaxError(
                    f"expected a type length, found {size.value!r}", size.position
                )
            self.expect_symbol(")")
        return ColumnDef(name, attr_type)

    def drop_table_stmt(self) -> DropTableStmt:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        if_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("exists")
            if_exists = True
        return DropTableStmt(table=self.expect_ident(), if_exists=if_exists)

    # -- DML -------------------------------------------------------------
    def insert_stmt(self) -> InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        columns: Optional[tuple[str, ...]] = None
        if self.accept_symbol("("):
            names = [self.expect_ident()]
            while self.accept_symbol(","):
                names.append(self.expect_ident())
            self.expect_symbol(")")
            columns = tuple(names)
        self.expect_keyword("values")
        rows = [self.value_tuple()]
        while self.accept_symbol(","):
            rows.append(self.value_tuple())
        for row in rows:
            if columns is not None and len(row) != len(columns):
                raise SqlSyntaxError(
                    f"VALUES tuple has {len(row)} items for {len(columns)} columns",
                    None,
                )
        return InsertStmt(table=table, columns=columns, rows=tuple(rows))

    def value_tuple(self) -> tuple[Expr, ...]:
        self.expect_symbol("(")
        values = [self.expr()]
        while self.accept_symbol(","):
            values.append(self.expr())
        self.expect_symbol(")")
        return tuple(values)

    def update_stmt(self) -> UpdateStmt:
        self.expect_keyword("update")
        table = self.expect_ident()
        self.expect_keyword("set")
        assignments = [self.assignment()]
        while self.accept_symbol(","):
            assignments.append(self.assignment())
        where = self.expr() if self.accept_keyword("where") else None
        return UpdateStmt(table=table, assignments=tuple(assignments), where=where)

    def assignment(self) -> tuple[str, Expr]:
        column = self.expect_ident()
        self.expect_symbol("=")
        return column, self.expr()

    def delete_stmt(self) -> DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = self.expr() if self.accept_keyword("where") else None
        return DeleteStmt(table=table, where=where)

    def select_stmt(self) -> SelectStmt:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        select_star = False
        items: list[SelectItem] = []
        if self.peek().is_symbol("*"):
            self.advance()
            select_star = True
        else:
            items.append(self.select_item())
            while self.accept_symbol(","):
                items.append(self.select_item())
        self.expect_keyword("from")
        tables = [self.table_ref()]
        joins: list[tuple[TableRef, Expr]] = []
        while True:
            if self.accept_symbol(","):
                tables.append(self.table_ref())
            elif self.peek().is_keyword("join") or self.peek().is_keyword("inner"):
                if self.accept_keyword("inner"):
                    self.expect_keyword("join")
                else:
                    self.expect_keyword("join")
                ref = self.table_ref()
                self.expect_keyword("on")
                joins.append((ref, self.expr()))
            else:
                break
        where = self.expr() if self.accept_keyword("where") else None
        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.expr())
            while self.accept_symbol(","):
                group_by.append(self.expr())
        having = self.expr() if self.accept_keyword("having") else None
        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.order_item())
            while self.accept_symbol(","):
                order_by.append(self.order_item())
        limit: Optional[int] = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.kind is not TokenType.NUMBER or not isinstance(token.value, int):
                raise SqlSyntaxError("LIMIT expects an integer", token.position)
            limit = token.value
        return SelectStmt(
            items=items,
            from_tables=tables,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            select_star=select_star,
        )

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenType.IDENT:
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def table_ref(self) -> TableRef:
        table = self.expect_ident()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenType.IDENT:
            alias = self.expect_ident()
        return TableRef(table, alias)

    def order_item(self) -> OrderItem:
        expr = self.expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderItem(expr, descending)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        terms = [self.and_expr()]
        while self.accept_keyword("or"):
            terms.append(self.and_expr())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def and_expr(self) -> Expr:
        terms = [self.not_expr()]
        while self.accept_keyword("and"):
            terms.append(self.not_expr())
        return terms[0] if len(terms) == 1 else And(*terms)

    def not_expr(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token.kind is TokenType.SYMBOL and token.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if token.value == "<>" else token.value
            return Comparison(op, left, self.additive())
        if token.is_keyword("in"):
            self.advance()
            self.expect_symbol("(")
            values = [self.literal_value()]
            while self.accept_symbol(","):
                values.append(self.literal_value())
            self.expect_symbol(")")
            return InList(left, tuple(values))
        if token.is_keyword("like"):
            self.advance()
            pattern = self.advance()
            if pattern.kind is not TokenType.STRING:
                raise SqlSyntaxError("LIKE expects a string pattern", pattern.position)
            return Like(left, pattern.value)
        if token.is_keyword("between"):
            self.advance()
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return And(Comparison(">=", left, low), Comparison("<=", left, high))
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token.kind is TokenType.SYMBOL and token.value in ("+", "-"):
                self.advance()
                left = Arithmetic(token.value, left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            token = self.peek()
            if token.kind is TokenType.SYMBOL and token.value in ("*", "/"):
                self.advance()
                left = Arithmetic(token.value, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.peek().is_symbol("-"):
            self.advance()
            return Arithmetic("-", Literal(0), self.unary())
        return self.primary()

    def primary(self) -> Expr:
        token = self.peek()
        if token.kind is TokenType.NUMBER or token.kind is TokenType.STRING:
            literal = Literal(token.value)
            self.literals.append((self._pos, literal))
            self.advance()
            return literal
        if token.kind is TokenType.KEYWORD and token.value in _AGG_KEYWORDS:
            return self.aggregate_call()
        if token.kind is TokenType.IDENT:
            return self.column_ref()
        if token.is_symbol("("):
            self.advance()
            if self.peek().is_keyword("select"):
                inner = self.select_stmt()
                self.expect_symbol(")")
                return ScalarSubquery(inner)
            inner_expr = self.expr()
            self.expect_symbol(")")
            return inner_expr
        raise SqlSyntaxError(f"unexpected token {token.value!r}", token.position)

    def aggregate_call(self) -> Expr:
        func = self.advance().value
        self.expect_symbol("(")
        if self.peek().is_symbol("*"):
            self.advance()
            if func != "count":
                raise SqlSyntaxError(f"{func.upper()}(*) is not valid", self.peek().position)
            arg = None
        else:
            arg = self.expr()
        self.expect_symbol(")")
        return AggCall(func, arg)

    def column_ref(self) -> Expr:
        first = self.expect_ident()
        if self.accept_symbol("."):
            return ColumnRef(self.expect_ident(), qualifier=first)
        return ColumnRef(first)

    def literal_value(self):
        token = self.advance()
        if token.kind in (TokenType.NUMBER, TokenType.STRING):
            return token.value
        raise SqlSyntaxError(
            f"expected literal, found {token.value!r}", token.position
        )
