"""Recursive-descent SQL parser.

Covers the subset needed by the paper's examples and the targeted TPC-H
queries: SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, explicit joins
(INNER / LEFT [OUTER] / CROSS), derived tables, UNION ALL, and subqueries in
every scalar position (scalar, EXISTS, IN, quantified comparisons), plus
CASE, BETWEEN, LIKE, IS NULL, date/interval literals and arithmetic.

Operator precedence (low to high):
``OR`` < ``AND`` < ``NOT`` < comparison/IN/BETWEEN/LIKE/IS < ``+ -`` <
``* /`` < unary minus < primary.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from typing import Hashable, Optional, Sequence

from ..errors import SqlSyntaxError
from .ast import (BetweenExpr, BinaryOp, BooleanLiteral, CaseExpr,
                  DateLiteral, DerivedTable, ExistsExpr, Expr, ExtractExpr,
                  FunctionCall, Identifier, InExpr, IntervalLiteral,
                  IsNullExpr, JoinExpr, LikeExpr, NullLiteral,
                  NumberLiteral, OrderItem, Parameter, Query, QuantifiedExpr,
                  SelectItem, SelectStatement, Star, StringLiteral,
                  SubqueryExpr, TableExpr, TableRef, UnaryOp,
                  UnionStatement)
from .ast import ExceptStatement
from .lexer import Token, TokenType, tokenize

_AGGREGATE_NAMES = ("count", "sum", "avg", "min", "max")
_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Maximum combined nesting depth of subqueries and parenthesized
#: expressions.  The recursive-descent parser burns ~9 Python frames per
#: level, so an explicit cap well below the interpreter's recursion limit
#: turns a pathological 1000-level input into a clear ``SqlSyntaxError``
#: instead of a raw ``RecursionError`` somewhere mid-pipeline.
MAX_NESTING_DEPTH = 64


def parse(sql: str, *, tokens: Optional[list[Token]] = None) -> Query:
    """Parse one SQL query (SELECT or UNION ALL chain).

    ``tokens`` is ``sql``'s token stream when the caller already holds it
    (:class:`Statement`), so the text is not lexed a second time.
    """
    parser = _Parser(tokens if tokens is not None else tokenize(sql))
    query = parser.parse_query()
    parser.expect_eof()
    return query


@dataclass(frozen=True)
class MatViewStatement:
    """One materialized-view DDL statement.

    ``kind`` is ``"create"`` (``CREATE MATERIALIZED VIEW name AS
    <query>``), ``"drop"`` or ``"refresh"``; ``sql`` carries the
    defining query's original text for ``create`` (layout preserved,
    like an ``EXPLAIN`` prefix slice) and is empty otherwise.
    """

    kind: str
    name: str
    sql: str = ""


@dataclass(frozen=True)
class Statement:
    """One statement's text, lexed once.

    ``sql`` is the query text; ``key`` its plan-cache key, insensitive to
    whitespace, comments and keyword case (``SELECT  1`` and ``select 1``
    share an entry, ``select 1`` and ``select 2`` do not); ``tokens`` the
    stream :func:`parse` may reuse.  Unlexable text keeps the raw string
    as its key and no tokens: the subsequent parse raises the real syntax
    error, and caching never masks it.

    For ``EXPLAIN [ANALYZE] <query>`` (``explain`` set), ``sql`` is the
    original text with the prefix sliced off — comments and layout
    preserved — and ``key`` is the inner query's, so explaining a query
    and executing it directly share one cache entry.  Its ``tokens`` are
    ``None``: the stream's positions count from the start of the prefix,
    and syntax errors are reported relative to the sliced text.
    ``analyze`` without ``explain`` is the explain path handing the inner
    query back to ``execute``: run it once, profiled.
    """

    sql: str
    key: Hashable
    tokens: Optional[list[Token]] = None
    explain: bool = False
    analyze: bool = False
    matview: Optional[MatViewStatement] = None


def _token_key(tokens: Sequence[Token]) -> Hashable:
    return tuple((t.type.value, t.value) for t in tokens
                 if t.type is not TokenType.EOF)


def lex_query(sql: str) -> Statement:
    """``sql`` as a plain query, lexed but not classified — for the entry
    points that accept queries only (``prepare``, ``explain``), where an
    ``EXPLAIN`` or DDL prefix is the parser's syntax error to report.

    Only genuine syntax errors make text unlexable — a lexer *bug* (any
    non-:class:`SqlSyntaxError`) propagates instead of being silently
    cached under the raw string.
    """
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:
        return Statement(sql, sql)
    return Statement(sql, _token_key(tokens), tokens)


def classify_statement(sql: str) -> Statement:
    """Lex ``sql`` once and classify it by its leading tokens: a query,
    ``EXPLAIN [ANALYZE] <query>``, or materialized-view DDL."""
    statement = lex_query(sql)
    tokens = statement.tokens
    if tokens is None:
        return statement
    matview = _matview_ddl(sql, tokens)
    if matview is not None:
        return replace(statement, matview=matview)
    if not tokens[0].matches_keyword("explain"):
        return statement
    analyze = tokens[1].matches_keyword("analyze")
    start = 2 if analyze else 1
    rest = tokens[start]
    if rest.type is TokenType.EOF:
        raise SqlSyntaxError("expected a query after EXPLAIN",
                             rest.line, rest.column)
    return Statement(sql[_token_offset(sql, rest):],
                     _token_key(tokens[start:]), explain=True,
                     analyze=analyze)


def _matview_ddl(sql: str,
                 tokens: list[Token]) -> Optional[MatViewStatement]:
    """Recognize ``CREATE | DROP | REFRESH MATERIALIZED VIEW`` statements.

    Returns ``None`` for anything else — including statements starting
    with a line comment, which always take the normal parse path.
    ``CREATE``/``MATERIALIZED``/``VIEW`` are not reserved words (they lex
    as identifiers), which keeps them usable as column names everywhere
    else.
    """
    first = tokens[0]
    if (first.type is not TokenType.IDENT
            or first.value not in ("create", "drop", "refresh")
            # the word must open the text itself: not behind a comment,
            # not a quoted identifier
            or sql.lstrip()[:len(first.value)].lower() != first.value):
        return None
    kind = first.value

    def word(index: int, text: str) -> bool:
        token = tokens[min(index, len(tokens) - 1)]
        return token.type is TokenType.IDENT and token.value == text

    if not (word(1, "materialized") and word(2, "view")):
        return None
    name_token = tokens[min(3, len(tokens) - 1)]
    if name_token.type is not TokenType.IDENT:
        raise SqlSyntaxError("expected a view name after MATERIALIZED "
                             "VIEW", name_token.line, name_token.column)
    name = name_token.value
    if kind in ("drop", "refresh"):
        trailing = tokens[4]
        if trailing.type is not TokenType.EOF:
            raise SqlSyntaxError(
                f"unexpected input after the view name: "
                f"{trailing.value!r}", trailing.line, trailing.column)
        return MatViewStatement(kind, name)
    as_token = tokens[4]
    if not as_token.matches_keyword("as"):
        raise SqlSyntaxError("expected AS after the view name",
                             as_token.line, as_token.column)
    rest = tokens[5]
    if rest.type is TokenType.EOF:
        raise SqlSyntaxError("expected a query after AS",
                             rest.line, rest.column)
    return MatViewStatement("create", name,
                            sql[_token_offset(sql, rest):])


def _token_offset(sql: str, token: Token) -> int:
    """Absolute character offset of ``token`` in ``sql`` (tokens carry
    1-based line/column positions)."""
    offset = 0
    for _ in range(token.line - 1):
        offset = sql.index("\n", offset) + 1
    return offset + token.column - 1


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        # Combined subquery/expression nesting depth (see MAX_NESTING_DEPTH).
        self._depth = 0
        # Parameter slot assignment is statement-wide (subqueries included).
        self._positional_params = 0
        self._named_params: dict[str, int] = {}

    def _enter_nesting(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            token = self.current
            raise SqlSyntaxError(
                f"query nesting exceeds the maximum depth of "
                f"{MAX_NESTING_DEPTH} (subqueries and parenthesized "
                f"expressions combined)", token.line, token.column)

    # -- token plumbing ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.current
        return SqlSyntaxError(f"{message} (found {token.value!r})",
                              token.line, token.column)

    def accept_keyword(self, *words: str) -> bool:
        if self.current.matches_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def accept_punct(self, char: str) -> bool:
        if self.current.type is TokenType.PUNCT and self.current.value == char:
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise self.error(f"expected {char!r}")

    def accept_operator(self, *ops: str) -> Optional[str]:
        if (self.current.type is TokenType.OPERATOR
                and self.current.value in ops):
            return self.advance().value
        return None

    def expect_eof(self) -> None:
        if self.current.type is not TokenType.EOF:
            raise self.error("unexpected trailing input")

    # -- queries ------------------------------------------------------------------

    def parse_query(self) -> Query:
        left = self._parse_query_term()
        while self.current.matches_keyword("union", "except"):
            keyword = self.advance().value
            if not self.accept_keyword("all"):
                raise self.error(
                    f"plain {keyword.upper()} is unsupported; use "
                    f"{keyword.upper()} ALL (optionally with SELECT "
                    f"DISTINCT) — the algebra is bag-oriented")
            right = self._parse_query_term()
            if keyword == "union":
                left = UnionStatement(left, right)
            else:
                left = ExceptStatement(left, right)
        return left

    def _parse_query_term(self) -> Query:
        if self.accept_punct("("):
            query = self.parse_query()
            self.expect_punct(")")
            return query
        return self.parse_select()

    def parse_select(self) -> SelectStatement:
        self._enter_nesting()
        try:
            return self._parse_select_body()
        finally:
            self._depth -= 1

    def _parse_select_body(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        self.accept_keyword("all")

        select_items = [self._parse_select_item()]
        while self.accept_punct(","):
            select_items.append(self._parse_select_item())

        from_items: list[TableExpr] = []
        if self.accept_keyword("from"):
            from_items.append(self._parse_table_expr())
            while self.accept_punct(","):
                from_items.append(self._parse_table_expr())

        where = self.parse_expr() if self.accept_keyword("where") else None

        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("having") else None

        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = None
        offset = 0
        if self.accept_keyword("limit"):
            limit = self._expect_integer("LIMIT")
            if self.current.type is TokenType.IDENT \
                    and self.current.value == "offset":
                self.advance()
                offset = self._expect_integer("OFFSET")

        return SelectStatement(
            select_items=tuple(select_items),
            distinct=distinct,
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset)

    def _expect_integer(self, context: str) -> int:
        token = self.current
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise self.error(f"{context} expects an integer")
        return int(self.advance().value)

    def _parse_select_item(self) -> SelectItem:
        if self.current.type is TokenType.OPERATOR and self.current.value == "*":
            self.advance()
            return SelectItem(Star())
        # alias.*
        if (self.current.type is TokenType.IDENT
                and self.peek().type is TokenType.PUNCT
                and self.peek().value == "."
                and self.peek(2).type is TokenType.OPERATOR
                and self.peek(2).value == "*"):
            qualifier = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return SelectItem(Star(qualifier))
        expr = self.parse_expr()
        alias = self._parse_optional_alias()
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return OrderItem(expr, ascending)

    def _parse_optional_alias(self) -> Optional[str]:
        if self.accept_keyword("as"):
            token = self.current
            if token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise self.error("expected alias after AS")
            return self.advance().value
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        return None

    # -- FROM clause ------------------------------------------------------------

    def _parse_table_expr(self) -> TableExpr:
        left = self._parse_table_primary()
        while True:
            if self.accept_keyword("cross"):
                self.expect_keyword("join")
                right = self._parse_table_primary()
                left = JoinExpr("cross", left, right, None)
                continue
            explicit_kind = None
            if self.current.matches_keyword("inner"):
                explicit_kind = "inner"
                self.advance()
            elif self.current.matches_keyword("left"):
                explicit_kind = "left"
                self.advance()
                self.accept_keyword("outer")
            elif self.current.matches_keyword("right", "full"):
                raise self.error("RIGHT/FULL OUTER JOIN is not supported; "
                                 "rewrite as LEFT OUTER JOIN")
            if explicit_kind is None and not self.current.matches_keyword("join"):
                return left
            self.expect_keyword("join")
            right = self._parse_table_primary()
            self.expect_keyword("on")
            condition = self.parse_expr()
            left = JoinExpr(explicit_kind or "inner", left, right, condition)

    def _parse_table_primary(self) -> TableExpr:
        if self.accept_punct("("):
            if self.current.matches_keyword("select") or self._starts_nested_query():
                subquery = self.parse_query()
                self.expect_punct(")")
                alias = self._parse_optional_alias()
                if alias is None:
                    raise self.error("derived table requires an alias")
                column_aliases = self._parse_optional_column_aliases()
                return DerivedTable(subquery, alias, column_aliases)
            # parenthesized join tree
            inner = self._parse_table_expr()
            self.expect_punct(")")
            return inner
        token = self.current
        if token.type is not TokenType.IDENT:
            raise self.error("expected table name")
        name = self.advance().value
        alias = self._parse_optional_alias()
        return TableRef(name, alias)

    def _starts_nested_query(self) -> bool:
        """After '(', does another '(' chain lead to SELECT?"""
        offset = 0
        while self.peek(offset).type is TokenType.PUNCT and \
                self.peek(offset).value == "(":
            offset += 1
        return self.peek(offset).matches_keyword("select")

    def _parse_optional_column_aliases(self) -> Optional[tuple[str, ...]]:
        if not self.accept_punct("("):
            return None
        names = []
        while True:
            token = self.current
            if token.type is not TokenType.IDENT:
                raise self.error("expected column alias")
            names.append(self.advance().value)
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return tuple(names)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        self._enter_nesting()
        try:
            return self._parse_or()
        finally:
            self._depth -= 1

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            right = self._parse_and()
            left = BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            right = self._parse_not()
            left = BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            self._enter_nesting()  # NOT chains recurse too
            try:
                return UnaryOp("not", self._parse_not())
            finally:
                self._depth -= 1
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        while True:
            negated = False
            if self.current.matches_keyword("not"):
                nxt = self.peek()
                if nxt.matches_keyword("in", "between", "like"):
                    self.advance()
                    negated = True
                else:
                    return left

            op = self.accept_operator(*_COMPARISON_OPS)
            if op is not None:
                if self.current.matches_keyword("any", "all", "some"):
                    quantifier = self.advance().value
                    quantifier = "ANY" if quantifier in ("any", "some") else "ALL"
                    self.expect_punct("(")
                    subquery = self.parse_query()
                    self.expect_punct(")")
                    left = QuantifiedExpr(op, quantifier, left, subquery)
                else:
                    right = self._parse_additive()
                    left = BinaryOp(op, left, right)
                continue

            if self.accept_keyword("in"):
                self.expect_punct("(")
                if self.current.matches_keyword("select") or self._starts_nested_query():
                    subquery = self.parse_query()
                    self.expect_punct(")")
                    left = InExpr(left, subquery=subquery, negated=negated)
                else:
                    values = [self.parse_expr()]
                    while self.accept_punct(","):
                        values.append(self.parse_expr())
                    self.expect_punct(")")
                    left = InExpr(left, values=tuple(values), negated=negated)
                continue

            if self.accept_keyword("between"):
                low = self._parse_additive()
                self.expect_keyword("and")
                high = self._parse_additive()
                left = BetweenExpr(left, low, high, negated)
                continue

            if self.accept_keyword("like"):
                pattern = self._parse_additive()
                left = LikeExpr(left, pattern, negated)
                continue

            if self.accept_keyword("is"):
                is_negated = self.accept_keyword("not")
                self.expect_keyword("null")
                left = IsNullExpr(left, is_negated)
                continue

            if negated:
                raise self.error("expected IN, BETWEEN or LIKE after NOT")
            return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            op = self.accept_operator("*", "/")
            if op is None:
                return left
            right = self._parse_unary()
            left = BinaryOp(op, left, right)

    def _parse_unary(self) -> Expr:
        if self.accept_operator("-"):
            self._enter_nesting()  # sign chains recurse too
            try:
                return UnaryOp("-", self._parse_unary())
            finally:
                self._depth -= 1
        if self.accept_operator("+"):
            while self.accept_operator("+"):  # unary plus is a no-op
                pass
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current

        if token.type is TokenType.NUMBER:
            self.advance()
            return NumberLiteral(token.value)

        if token.type is TokenType.STRING:
            self.advance()
            return StringLiteral(token.value)

        if token.type is TokenType.PARAM:
            self.advance()
            return self._make_parameter(token)

        if token.matches_keyword("null"):
            self.advance()
            return NullLiteral()

        if token.matches_keyword("true", "false"):
            self.advance()
            return BooleanLiteral(token.value == "true")

        if token.matches_keyword("date"):
            self.advance()
            text_token = self.current
            if text_token.type is not TokenType.STRING:
                raise self.error("DATE expects a string literal")
            self.advance()
            try:
                datetime.date.fromisoformat(text_token.value)
            except ValueError:
                raise SqlSyntaxError(
                    f"invalid date literal {text_token.value!r}",
                    text_token.line, text_token.column) from None
            return DateLiteral(text_token.value)

        if token.matches_keyword("interval"):
            self.advance()
            quantity_token = self.current
            if quantity_token.type is not TokenType.STRING:
                raise self.error("INTERVAL expects a quoted quantity")
            self.advance()
            try:
                quantity = int(quantity_token.value)
            except ValueError:
                raise SqlSyntaxError(
                    f"invalid interval quantity {quantity_token.value!r}",
                    quantity_token.line, quantity_token.column) from None
            if not self.current.matches_keyword("day", "month", "year"):
                raise self.error("expected DAY, MONTH or YEAR")
            unit = self.advance().value
            return IntervalLiteral(quantity, unit)

        if token.matches_keyword("extract"):
            self.advance()
            self.expect_punct("(")
            if not self.current.matches_keyword("year", "month", "day"):
                raise self.error("EXTRACT supports YEAR, MONTH and DAY")
            part = self.advance().value
            self.expect_keyword("from")
            operand = self.parse_expr()
            self.expect_punct(")")
            return ExtractExpr(part, operand)

        if token.matches_keyword("case"):
            return self._parse_case()

        if token.matches_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            subquery = self.parse_query()
            self.expect_punct(")")
            return ExistsExpr(subquery)

        if token.matches_keyword(*_AGGREGATE_NAMES):
            name = self.advance().value
            self.expect_punct("(")
            distinct = self.accept_keyword("distinct")
            if (name == "count" and self.current.type is TokenType.OPERATOR
                    and self.current.value == "*"):
                self.advance()
                self.expect_punct(")")
                return FunctionCall("count", (Star(),), distinct)
            args = [self.parse_expr()]
            while self.accept_punct(","):
                args.append(self.parse_expr())
            self.expect_punct(")")
            return FunctionCall(name, tuple(args), distinct)

        if token.type is TokenType.PUNCT and token.value == "(":
            self.advance()
            if self.current.matches_keyword("select") or self._starts_nested_query():
                subquery = self.parse_query()
                self.expect_punct(")")
                return SubqueryExpr(subquery)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr

        if token.type is TokenType.IDENT:
            parts = [self.advance().value]
            while (self.current.type is TokenType.PUNCT
                   and self.current.value == "."
                   and self.peek().type is TokenType.IDENT):
                self.advance()
                parts.append(self.advance().value)
            if len(parts) > 2:
                raise self.error("at most alias.column qualification supported")
            return Identifier(tuple(parts))

        raise self.error("expected expression")

    def _make_parameter(self, token: Token) -> Parameter:
        if token.value == "":  # positional `?`
            if self._named_params:
                raise SqlSyntaxError(
                    "cannot mix positional (?) and named (:name) parameters",
                    token.line, token.column)
            index = self._positional_params
            self._positional_params += 1
            return Parameter(index)
        if self._positional_params:
            raise SqlSyntaxError(
                "cannot mix positional (?) and named (:name) parameters",
                token.line, token.column)
        index = self._named_params.setdefault(token.value,
                                              len(self._named_params))
        return Parameter(index, token.value)

    def _parse_case(self) -> Expr:
        self.expect_keyword("case")
        if not self.current.matches_keyword("when"):
            raise self.error("only searched CASE (CASE WHEN ...) is supported")
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("when"):
            condition = self.parse_expr()
            self.expect_keyword("then")
            value = self.parse_expr()
            whens.append((condition, value))
        otherwise = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return CaseExpr(tuple(whens), otherwise)
