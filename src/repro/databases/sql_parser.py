"""Tokenizer + recursive-descent parser for the SQL subset in the paper.

The evaluation drives the relational engines with statements like::

    SELECT * FROM docs WHERE id = 17;
    UPDATE docs SET body = '...' WHERE id = 17;
    SELECT id, sum(cnt)/count(dt) avg_cnt FROM tbl
        WHERE idx >= 0 AND idx <= 8
        GROUP BY id ORDER BY avg_cnt DESC;   -- the Section 6.2 range scan

The grammar covers CREATE TABLE / CREATE INDEX / DROP INDEX / INSERT /
SELECT (projection with aliases, aggregate expressions, inner
equi-JOIN, WHERE, GROUP BY, ORDER BY, LIMIT) / UPDATE / DELETE /
BEGIN / COMMIT / ROLLBACK — the experiments' statements plus the
features that make the SQLite stand-in credible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.databases.common import DatabaseError


class SQLSyntaxError(DatabaseError):
    """Raised on tokenizer or parser failures, with position context."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: Union[int, float, str, None]


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class Star:
    """``*`` in a projection or in ``count(*)``."""


@dataclass(frozen=True)
class BinaryOp:
    op: str  # + - * / = != < <= > >= AND OR
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # NOT, -
    operand: "Expr"


@dataclass(frozen=True)
class FuncCall:
    name: str  # sum, count, avg, min, max
    argument: "Expr"


Expr = Union[Literal, Column, Star, BinaryOp, UnaryOp, FuncCall]

AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "avg", "min", "max"})


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class JoinClause:
    """An inner equi-join: ``JOIN right ON left_col = right_col``.

    The columns are qualified names (``table.column``)."""

    right_table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    table: str
    where: Optional[Expr] = None
    group_by: tuple[Column, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    join: Optional[JoinClause] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # INT, REAL, TEXT
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    column: str


@dataclass(frozen=True)
class DropIndex:
    name: str


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty = positional
    rows: tuple[tuple[Literal, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Begin:
    """BEGIN [TRANSACTION]."""


@dataclass(frozen=True)
class Commit:
    """COMMIT."""


@dataclass(frozen=True)
class Rollback:
    """ROLLBACK."""


Statement = Union[
    Select,
    CreateTable,
    CreateIndex,
    DropIndex,
    Insert,
    Update,
    Delete,
    Begin,
    Commit,
    Rollback,
]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|[-+*/=<>(),;.])
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset(
    """select from where group by order asc desc limit insert into values
    update set delete create drop table index on join primary key and or not
    null int integer real float text varchar begin commit rollback
    transaction""".split()
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number, string, name, keyword, op, eof
    text: str
    position: int


def tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SQLSyntaxError(f"bad character {sql[position]!r} at {position}")
        position = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        text = match.group()
        if kind == "name" and text.lower() in _KEYWORDS:
            kind = "keyword"
            text = text.lower()
        assert kind is not None
        tokens.append(_Token(kind=kind, text=text, position=match.start()))
    tokens.append(_Token(kind="eof", text="", position=len(sql)))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._index = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._peek()
        return SQLSyntaxError(f"{message} (near {token.text!r} at {token.position})")

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind != kind:
            return None
        if text is not None and token.text != text:
            return None
        return self._advance()

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._accept(kind, text)
        if token is None:
            raise self._error(f"expected {text or kind}")
        return token

    def _accept_keyword(self, *words: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.text == words[0]:
            # multi-word keyword sequences (GROUP BY, PRIMARY KEY...)
            save = self._index
            self._advance()
            for word in words[1:]:
                if not self._accept("keyword", word):
                    self._index = save
                    return False
            return True
        return False

    # -- statements ----------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.kind != "keyword":
            raise self._error("expected a statement keyword")
        if token.text == "select":
            statement: Statement = self._parse_select()
        elif token.text == "create":
            statement = self._parse_create()
        elif token.text == "drop":
            statement = self._parse_drop()
        elif token.text == "insert":
            statement = self._parse_insert()
        elif token.text == "update":
            statement = self._parse_update()
        elif token.text == "delete":
            statement = self._parse_delete()
        elif token.text == "begin":
            self._advance()
            self._accept_keyword("transaction")
            statement = Begin()
        elif token.text == "commit":
            self._advance()
            statement = Commit()
        elif token.text == "rollback":
            self._advance()
            statement = Rollback()
        else:
            raise self._error(f"unsupported statement {token.text!r}")
        self._accept("op", ";")
        self._expect("eof")
        return statement

    def _parse_select(self) -> Select:
        self._expect("keyword", "select")
        items = [self._parse_select_item()]
        while self._accept("op", ","):
            items.append(self._parse_select_item())
        self._expect("keyword", "from")
        table = self._expect("name").text
        join = None
        if self._accept_keyword("join"):
            right_table = self._expect("name").text
            self._expect("keyword", "on")
            left_column = self._parse_qualified_name()
            self._expect("op", "=")
            right_column = self._parse_qualified_name()
            join = JoinClause(
                right_table=right_table,
                left_column=left_column,
                right_column=right_column,
            )
        where = None
        if self._accept_keyword("where"):
            where = self._parse_expr()
        group_by: list[Column] = []
        if self._accept_keyword("group", "by"):
            group_by.append(Column(self._expect("name").text))
            while self._accept("op", ","):
                group_by.append(Column(self._expect("name").text))
        order_by: list[OrderItem] = []
        if self._accept_keyword("order", "by"):
            order_by.append(self._parse_order_item())
            while self._accept("op", ","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("limit"):
            limit_token = self._expect("number")
            limit = int(limit_token.text)
        return Select(
            items=tuple(items),
            table=table,
            where=where,
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
            join=join,
        )

    def _parse_qualified_name(self) -> str:
        name = self._expect("name").text
        if self._accept("op", "."):
            name = f"{name}.{self._expect('name').text}"
        return name

    def _parse_select_item(self) -> SelectItem:
        if self._accept("op", "*"):
            return SelectItem(expr=Star())
        expr = self._parse_expr()
        alias = None
        token = self._peek()
        if token.kind == "name":
            alias = self._advance().text
        return SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expr=expr, descending=descending)

    def _parse_create(self) -> Union[CreateTable, CreateIndex]:
        self._expect("keyword", "create")
        if self._accept_keyword("index"):
            name = self._expect("name").text
            self._expect("keyword", "on")
            table = self._expect("name").text
            self._expect("op", "(")
            column = self._expect("name").text
            self._expect("op", ")")
            return CreateIndex(name=name, table=table, column=column)
        self._expect("keyword", "table")
        table = self._expect("name").text
        self._expect("op", "(")
        columns = [self._parse_column_def()]
        while self._accept("op", ","):
            columns.append(self._parse_column_def())
        self._expect("op", ")")
        return CreateTable(table=table, columns=tuple(columns))

    def _parse_drop(self) -> DropIndex:
        self._expect("keyword", "drop")
        self._expect("keyword", "index")
        return DropIndex(name=self._expect("name").text)

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect("name").text
        type_token = self._peek()
        if type_token.kind not in ("keyword", "name"):
            raise self._error("expected a column type")
        self._advance()
        canonical = {
            "int": "INT",
            "integer": "INT",
            "real": "REAL",
            "float": "REAL",
            "text": "TEXT",
            "varchar": "TEXT",
        }.get(type_token.text.lower())
        if canonical is None:
            raise self._error(f"unknown column type {type_token.text!r}")
        primary = self._accept_keyword("primary", "key")
        return ColumnDef(name=name, type_name=canonical, primary_key=primary)

    def _parse_insert(self) -> Insert:
        self._expect("keyword", "insert")
        self._expect("keyword", "into")
        table = self._expect("name").text
        columns: list[str] = []
        if self._accept("op", "("):
            columns.append(self._expect("name").text)
            while self._accept("op", ","):
                columns.append(self._expect("name").text)
            self._expect("op", ")")
        self._expect("keyword", "values")
        rows = [self._parse_value_row()]
        while self._accept("op", ","):
            rows.append(self._parse_value_row())
        return Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _parse_value_row(self) -> tuple[Literal, ...]:
        self._expect("op", "(")
        values = [self._parse_literal()]
        while self._accept("op", ","):
            values.append(self._parse_literal())
        self._expect("op", ")")
        return tuple(values)

    def _parse_literal(self) -> Literal:
        negative = bool(self._accept("op", "-"))
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value: Union[int, float] = (
                float(token.text) if "." in token.text else int(token.text)
            )
            return Literal(-value if negative else value)
        if negative:
            raise self._error("expected a number after '-'")
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "keyword" and token.text == "null":
            self._advance()
            return Literal(None)
        raise self._error("expected a literal")

    def _parse_update(self) -> Update:
        self._expect("keyword", "update")
        table = self._expect("name").text
        self._expect("keyword", "set")
        assignments = [self._parse_assignment()]
        while self._accept("op", ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("where"):
            where = self._parse_expr()
        return Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> tuple[str, Expr]:
        name = self._expect("name").text
        self._expect("op", "=")
        return name, self._parse_expr()

    def _parse_delete(self) -> Delete:
        self._expect("keyword", "delete")
        self._expect("keyword", "from")
        table = self._expect("name").text
        where = None
        if self._accept_keyword("where"):
            where = self._parse_expr()
        return Delete(table=table, where=where)

    # -- expressions (precedence climbing) --------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            op = "!=" if token.text == "<>" else token.text
            return BinaryOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._advance()
                left = BinaryOp(token.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/"):
                self._advance()
                left = BinaryOp(token.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("op", "-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return Literal(float(token.text) if "." in token.text else int(token.text))
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "keyword" and token.text == "null":
            self._advance()
            return Literal(None)
        if token.kind == "op" and token.text == "(":
            self._advance()
            expr = self._parse_expr()
            self._expect("op", ")")
            return expr
        if token.kind == "name":
            name = self._advance().text
            if self._accept("op", "."):
                # Qualified column reference: table.column.
                return Column(f"{name}.{self._expect('name').text}")
            if self._accept("op", "("):
                if name.lower() not in AGGREGATE_FUNCTIONS:
                    raise self._error(f"unknown function {name!r}")
                if self._accept("op", "*"):
                    argument: Expr = Star()
                else:
                    argument = self._parse_expr()
                self._expect("op", ")")
                return FuncCall(name=name.lower(), argument=argument)
            return Column(name)
        raise self._error("expected an expression")


def parse(sql: str) -> Statement:
    """Parse one SQL statement into its AST."""
    return _Parser(sql).parse_statement()
