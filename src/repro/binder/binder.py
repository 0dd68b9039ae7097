"""The binder (algebrizer): SQL AST → operator tree.

This implements paper Section 2.1 — "the parser/algebrizer takes the SQL
formulation and generates an operator tree, which contains both relational
and scalar operators".  Subqueries become *relational-valued scalar nodes*
(``ScalarSubquery`` / ``ExistsSubquery`` / ``InSubquery`` /
``QuantifiedComparison``) embedded in predicates and projections: the
mutually recursive Figure 3 form.  No decorrelation happens here; that is
normalization's job (:mod:`repro.core.normalize`).

Responsibilities: name resolution (including correlation through scope
chains), star expansion, GROUP BY/HAVING semantics (non-aggregated output
columns must be grouping columns), DISTINCT as GroupBy (paper footnote 1),
scalar-subquery cardinality checks with Max1row insertion and key-based
elision (Section 2.4), and light type checking.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Optional

from ..algebra import (AggregateCall, AggregateFunction, And, Arithmetic, Case,
                       Column, ColumnRef, Comparison, ConstantScan, DataType,
                       ExistsSubquery, Get, GroupBy, InList, InSubquery,
                       Interval, IsNull, Join, JoinKind, Like, Literal,
                       Max1row, Negate, Not, Or, Parameter, Project,
                       QuantifiedComparison, RelationalOp, ScalarExpr,
                       ScalarGroupBy, ScalarSubquery, Select, Sort, Top,
                       UnionAll, max_one_row)
from ..catalog import Catalog, TableDef
from ..errors import BindError
from ..sql import ast
from .scope import Scope

_AGGREGATE_FUNCS = {
    "count": AggregateFunction.COUNT,
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
}


@dataclass
class BoundQuery:
    """A bound query: operator tree plus output column names.

    ``parameters`` lists the query's parameter markers in slot order
    (empty for non-parameterized queries); it is filled in by
    :meth:`Binder.bind` on the top-level result only.
    """

    rel: RelationalOp
    names: list[str]
    parameters: tuple[Parameter, ...] = ()

    @property
    def columns(self) -> list[Column]:
        return self.rel.output_columns()

    @property
    def column_types(self) -> list[DataType]:
        return [c.dtype for c in self.columns]


class Binder:
    """Binds SQL ASTs against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._view_stack: list[str] = []
        self._parameters: dict[int, Parameter] = {}

    def bind(self, query: ast.Query) -> BoundQuery:
        self._parameters = {}
        bound = self._bind_query(query, parent_scope=None)
        bound.parameters = tuple(self._parameters[i]
                                 for i in sorted(self._parameters))
        return bound

    # -- queries ------------------------------------------------------------------

    def _bind_query(self, query: ast.Query,
                    parent_scope: Optional[Scope]) -> BoundQuery:
        if isinstance(query, ast.UnionStatement):
            return self._bind_union(query, parent_scope)
        if isinstance(query, ast.ExceptStatement):
            return self._bind_except(query, parent_scope)
        return self._bind_select(query, parent_scope)

    def _bind_except(self, query: ast.ExceptStatement,
                     parent_scope: Optional[Scope]) -> BoundQuery:
        from ..algebra import Difference

        left = self._bind_query(query.left, parent_scope)
        right = self._bind_query(query.right, parent_scope)
        if len(left.columns) != len(right.columns):
            raise BindError(
                f"EXCEPT ALL inputs have different widths "
                f"({len(left.columns)} vs {len(right.columns)})")
        difference = Difference.from_inputs(left.rel, right.rel)
        return BoundQuery(difference, list(left.names))

    def _bind_union(self, query: ast.UnionStatement,
                    parent_scope: Optional[Scope]) -> BoundQuery:
        left = self._bind_query(query.left, parent_scope)
        right = self._bind_query(query.right, parent_scope)
        if len(left.columns) != len(right.columns):
            raise BindError(
                f"UNION ALL inputs have different widths "
                f"({len(left.columns)} vs {len(right.columns)})")
        union = UnionAll.from_inputs([left.rel, right.rel])
        return BoundQuery(union, list(left.names))

    def _bind_select(self, stmt: ast.SelectStatement,
                     parent_scope: Optional[Scope]) -> BoundQuery:
        scope = Scope(parent_scope)

        # FROM --------------------------------------------------------------
        rel = self._bind_from(stmt.from_items, scope)

        # WHERE --------------------------------------------------------------
        if stmt.where is not None:
            if _contains_aggregate_call(stmt.where):
                raise BindError("aggregates are not allowed in WHERE")
            predicate = self._bind_expr(stmt.where, scope)
            self._require_boolean(predicate, "WHERE")
            rel = Select(rel, predicate)

        # Aggregation ----------------------------------------------------------
        has_aggregates = (
            any(_contains_aggregate_call(item.expr)
                for item in stmt.select_items)
            or (stmt.having is not None
                and _contains_aggregate_call(stmt.having))
            or any(_contains_aggregate_call(o.expr) for o in stmt.order_by))
        grouped = bool(stmt.group_by) or has_aggregates

        if grouped:
            rel, group_map, agg_map = self._bind_groupby(stmt, rel, scope)
            bind_output = lambda e: self._bind_grouped_expr(  # noqa: E731
                e, scope, group_map, agg_map)
        else:
            group_map, agg_map = {}, {}
            bind_output = lambda e: self._bind_expr(e, scope)  # noqa: E731

        # HAVING --------------------------------------------------------------
        if stmt.having is not None:
            if not grouped:
                raise BindError("HAVING requires GROUP BY or aggregates")
            having = bind_output(stmt.having)
            self._require_boolean(having, "HAVING")
            rel = Select(rel, having)

        # SELECT list -----------------------------------------------------------
        items: list[tuple[Column, ScalarExpr]] = []
        names: list[str] = []
        for item in stmt.select_items:
            if isinstance(item.expr, ast.Star):
                if grouped:
                    raise BindError("SELECT * cannot be combined with "
                                    "GROUP BY or aggregates")
                for alias, name, column in self._star_columns(
                        item.expr, scope):
                    items.append((column, ColumnRef(column)))
                    names.append(name)
                continue
            expr = bind_output(item.expr)
            name = item.alias or _derive_name(item.expr, len(names))
            if isinstance(expr, ColumnRef):
                items.append((expr.column, expr))
            else:
                out = Column(name, expr.dtype, expr.nullable)
                items.append((out, expr))
            names.append(name)

        # ORDER BY binds against select aliases first, then the input.
        sort_keys: list[tuple[ScalarExpr, bool]] = []
        for order in stmt.order_by:
            expr = self._bind_order_expr(order.expr, stmt, items, names,
                                         bind_output)
            sort_keys.append((expr, order.ascending))

        # Sort keys may reference input columns that are not projected
        # (SQL allows ordering by unselected columns); carry them through
        # as hidden columns and trim after the Sort.
        visible_ids = {c.cid for c, _ in items}
        input_ids = {c.cid for c in rel.output_columns()}
        hidden: list[Column] = []
        for expr, _ in sort_keys:
            for column in expr.free_columns():
                if column.cid not in visible_ids \
                        and column.cid in input_ids:
                    hidden.append(column)
                    visible_ids.add(column.cid)
        if hidden and stmt.distinct:
            raise BindError("ORDER BY on a DISTINCT query may only use "
                            "selected columns")

        project_items = items + [(c, ColumnRef(c)) for c in hidden]
        rel = Project(rel, project_items)
        names_out = list(names)

        if stmt.distinct:
            # DISTINCT is a vector aggregate with no aggregate functions
            # (paper footnote 1).
            rel = GroupBy(rel, rel.output_columns(), [])

        if sort_keys:
            rel = Sort(rel, sort_keys)
        if stmt.limit is not None:
            rel = Top(rel, stmt.limit, stmt.offset)
        if hidden:
            rel = Project.passthrough(rel, [c for c, _ in items])
        return BoundQuery(rel, names_out)

    def _bind_order_expr(self, expr: ast.Expr, stmt: ast.SelectStatement,
                         items: list[tuple[Column, ScalarExpr]],
                         names: list[str], bind_output) -> ScalarExpr:
        # ORDER BY <ordinal> refers to the select-list position (SQL-92).
        if isinstance(expr, ast.NumberLiteral) and "." not in expr.text:
            position = int(expr.text)
            if not 1 <= position <= len(items):
                raise BindError(
                    f"ORDER BY position {position} is out of range "
                    f"(1..{len(items)})")
            return ColumnRef(items[position - 1][0])
        # A bare identifier that matches a select alias refers to that item.
        if isinstance(expr, ast.Identifier) and len(expr.parts) == 1:
            name = expr.parts[0].lower()
            matches = [i for i, n in enumerate(names) if n == name]
            if len(matches) == 1:
                return ColumnRef(items[matches[0]][0])
            if len(matches) > 1:
                raise BindError(f"ambiguous ORDER BY name {name!r}")
        # Structural match against a select item's AST.
        for item, (column, _) in zip(stmt.select_items, items):
            if item.expr == expr:
                return ColumnRef(column)
        return bind_output(expr)

    # -- FROM --------------------------------------------------------------------

    def _bind_from(self, from_items: tuple[ast.TableExpr, ...],
                   scope: Scope) -> RelationalOp:
        if not from_items:
            return ConstantScan([], [()])
        rel = self._bind_table_expr(from_items[0], scope)
        for item in from_items[1:]:
            right = self._bind_table_expr(item, scope)
            rel = Join.cross(rel, right)
        return rel

    def _bind_table_expr(self, item: ast.TableExpr,
                         scope: Scope) -> RelationalOp:
        if isinstance(item, ast.TableRef):
            if self.catalog.has_view(item.name):
                return self._bind_view(item, scope)
            table = self.catalog.get_table(item.name)
            get = make_get(table)
            columns = {c.name: col
                       for c, col in zip(table.columns, get.columns)}
            scope.add_relation(item.binding_name, columns)
            return get

        if isinstance(item, ast.DerivedTable):
            bound = self._bind_query(item.subquery, scope.parent)
            names = list(bound.names)
            if item.column_aliases is not None:
                if len(item.column_aliases) != len(names):
                    raise BindError(
                        f"derived table {item.alias!r} has "
                        f"{len(names)} columns but "
                        f"{len(item.column_aliases)} aliases")
                names = list(item.column_aliases)
            lowered = [n.lower() for n in names]
            if len(set(lowered)) != len(lowered):
                raise BindError(
                    f"duplicate column names in derived table {item.alias!r};"
                    " add column aliases")
            columns = dict(zip(lowered, bound.columns))
            scope.add_relation(item.alias, columns)
            return bound.rel

        if isinstance(item, ast.JoinExpr):
            left = self._bind_table_expr(item.left, scope)
            right = self._bind_table_expr(item.right, scope)
            if item.kind == "cross":
                return Join.cross(left, right)
            condition = self._bind_expr(item.condition, scope)
            self._require_boolean(condition, "JOIN ON")
            kind = JoinKind.INNER if item.kind == "inner" else JoinKind.LEFT_OUTER
            return Join(kind, left, right, condition)

        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _bind_view(self, item: ast.TableRef, scope: Scope) -> RelationalOp:
        """Expand a view reference: bind its defining query in a fresh
        scope (views cannot be correlated) under the reference's alias."""
        from ..sql import parse

        key = item.name.lower()
        if key in self._view_stack:
            chain = " -> ".join(self._view_stack + [key])
            raise BindError(f"recursive view definition: {chain}")
        self._view_stack.append(key)
        try:
            definition = parse(self.catalog.view_definition(item.name))
            bound = self._bind_query(definition, parent_scope=None)
        finally:
            self._view_stack.pop()
        lowered = [n.lower() for n in bound.names]
        if len(set(lowered)) != len(lowered):
            raise BindError(
                f"view {item.name!r} has duplicate output names; "
                "alias its columns")
        scope.add_relation(item.binding_name,
                           dict(zip(lowered, bound.columns)))
        return bound.rel

    def _star_columns(self, star: ast.Star, scope: Scope):
        if star.qualifier is not None:
            columns = scope.relation_columns(star.qualifier)
            return [(star.qualifier, name, col)
                    for name, col in columns.items()]
        return scope.all_columns()

    # -- GROUP BY ------------------------------------------------------------------

    def _bind_groupby(self, stmt: ast.SelectStatement, rel: RelationalOp,
                      scope: Scope):
        """Build the GroupBy operator; returns (rel, group_map, agg_map).

        ``group_map`` maps group-by ASTs to their grouping columns;
        ``agg_map`` maps aggregate-call ASTs to their output columns.
        """
        group_map: dict[ast.Expr, Column] = {}
        group_columns: list[Column] = []
        computed: list[tuple[Column, ScalarExpr]] = []
        for g_ast in stmt.group_by:
            expr = self._bind_expr(g_ast, scope)
            if _contains_aggregate_call(g_ast):
                raise BindError("aggregates are not allowed in GROUP BY")
            if isinstance(expr, ColumnRef):
                column = expr.column
            else:
                column = Column(_derive_name(g_ast, len(computed)),
                                expr.dtype, expr.nullable)
                computed.append((column, expr))
            group_map[g_ast] = column
            group_columns.append(column)
        if computed:
            rel = Project.extend(rel, computed)

        agg_asts: list[ast.FunctionCall] = []
        for item in stmt.select_items:
            _collect_aggregate_calls(item.expr, agg_asts)
        if stmt.having is not None:
            _collect_aggregate_calls(stmt.having, agg_asts)
        for order in stmt.order_by:
            _collect_aggregate_calls(order.expr, agg_asts)

        agg_map: dict[ast.FunctionCall, Column] = {}
        aggregates: list[tuple[Column, AggregateCall]] = []
        for call_ast in agg_asts:
            if call_ast in agg_map:
                continue
            call = self._bind_aggregate(call_ast, scope)
            out = Column(call_ast.name, call.dtype, call.nullable)
            agg_map[call_ast] = out
            aggregates.append((out, call))

        if group_columns:
            rel = GroupBy(rel, group_columns, aggregates)
        else:
            rel = ScalarGroupBy(rel, aggregates)
        return rel, group_map, agg_map

    def _bind_aggregate(self, call: ast.FunctionCall,
                        scope: Scope) -> AggregateCall:
        func = _AGGREGATE_FUNCS[call.name]
        if len(call.args) != 1:
            raise BindError(f"{call.name} takes exactly one argument")
        (arg_ast,) = call.args
        if isinstance(arg_ast, ast.Star):
            if func is not AggregateFunction.COUNT:
                raise BindError(f"{call.name}(*) is not valid")
            if call.distinct:
                raise BindError("count(distinct *) is not valid")
            return AggregateCall(AggregateFunction.COUNT_STAR)
        if _contains_aggregate_call(arg_ast):
            raise BindError("aggregates cannot be nested")
        argument = self._bind_expr(arg_ast, scope)
        if func in (AggregateFunction.SUM, AggregateFunction.AVG) \
                and not argument.dtype.is_numeric \
                and argument.dtype is not DataType.UNKNOWN:
            raise BindError(f"{call.name} requires a numeric argument")
        return AggregateCall(func, argument, call.distinct)

    def _bind_grouped_expr(self, expr: ast.Expr, scope: Scope,
                           group_map: dict[ast.Expr, Column],
                           agg_map: dict[ast.FunctionCall, Column]
                           ) -> ScalarExpr:
        """Bind an expression evaluated *above* the GroupBy."""
        if expr in group_map:
            return ColumnRef(group_map[expr])
        if isinstance(expr, ast.FunctionCall) and expr.name in _AGGREGATE_FUNCS:
            return ColumnRef(agg_map[expr])
        if isinstance(expr, ast.Identifier):
            resolution = scope.resolve(expr.parts)
            if resolution.depth > 0:
                return ColumnRef(resolution.column)
            grouped_ids = {c.cid for c in group_map.values()}
            if resolution.column.cid in grouped_ids:
                return ColumnRef(resolution.column)
            raise BindError(
                f"column {expr} must appear in GROUP BY or inside an "
                f"aggregate function")
        if isinstance(expr, (ast.SubqueryExpr, ast.ExistsExpr, ast.InExpr,
                             ast.QuantifiedExpr)):
            # Subqueries above a GroupBy may only correlate on grouped
            # columns; binding through `scope` and validating afterwards
            # keeps this simple.
            bound = self._bind_expr(expr, scope)
            self._check_subquery_correlation(bound, scope, group_map)
            return bound
        bound_children = {}
        return self._rebuild_grouped(expr, scope, group_map, agg_map)

    def _rebuild_grouped(self, expr: ast.Expr, scope: Scope, group_map,
                         agg_map) -> ScalarExpr:
        """Recursive structural rebuild for composite grouped expressions."""
        bind = lambda e: self._bind_grouped_expr(  # noqa: E731
            e, scope, group_map, agg_map)
        if isinstance(expr, ast.BinaryOp):
            return self._combine_binary(expr.op, bind(expr.left),
                                        bind(expr.right))
        if isinstance(expr, ast.UnaryOp):
            operand = bind(expr.operand)
            if expr.op == "not":
                return Not(operand)
            return Negate(operand)
        if isinstance(expr, ast.CaseExpr):
            whens = [(bind(c), bind(v)) for c, v in expr.whens]
            otherwise = bind(expr.otherwise) if expr.otherwise else None
            return Case(whens, otherwise)
        if isinstance(expr, ast.BetweenExpr):
            return self._bind_between(expr, bind)
        if isinstance(expr, ast.LikeExpr):
            return self._bind_like(expr, bind)
        if isinstance(expr, ast.IsNullExpr):
            return IsNull(bind(expr.operand), expr.negated)
        if isinstance(expr, ast.ExtractExpr):
            from ..algebra import Extract
            return Extract(expr.part, bind(expr.operand))
        if isinstance(expr, ast.InExpr) and expr.values is not None:
            return self._bind_in_list(expr, bind)
        if isinstance(expr, (ast.NumberLiteral, ast.StringLiteral,
                             ast.BooleanLiteral, ast.NullLiteral,
                             ast.DateLiteral, ast.IntervalLiteral)):
            return self._bind_literal(expr)
        if isinstance(expr, ast.Parameter):
            return self._bind_parameter(expr)
        raise BindError(
            f"unsupported expression in grouped context: {type(expr).__name__}")

    def _check_subquery_correlation(self, bound: ScalarExpr, scope: Scope,
                                    group_map: dict) -> None:
        local_ids = {c.cid for _, _, c in scope.all_columns()}
        grouped_ids = {c.cid for c in group_map.values()}
        for rel in bound.relational_children:
            for col in rel.outer_references():
                if col.cid in local_ids and col.cid not in grouped_ids:
                    raise BindError(
                        f"subquery references column {col.name!r} which is "
                        f"neither grouped nor from an outer query")

    # -- expressions -----------------------------------------------------------

    def _bind_expr(self, expr: ast.Expr, scope: Scope) -> ScalarExpr:
        bind = lambda e: self._bind_expr(e, scope)  # noqa: E731

        if isinstance(expr, ast.Identifier):
            return ColumnRef(scope.resolve(expr.parts).column)
        if isinstance(expr, (ast.NumberLiteral, ast.StringLiteral,
                             ast.BooleanLiteral, ast.NullLiteral,
                             ast.DateLiteral, ast.IntervalLiteral)):
            return self._bind_literal(expr)
        if isinstance(expr, ast.Parameter):
            return self._bind_parameter(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._combine_binary(expr.op, bind(expr.left),
                                        bind(expr.right))
        if isinstance(expr, ast.UnaryOp):
            operand = bind(expr.operand)
            if expr.op == "not":
                self._require_boolean(operand, "NOT")
                return Not(operand)
            if not operand.dtype.is_numeric \
                    and operand.dtype is not DataType.UNKNOWN:
                raise BindError("unary minus requires a numeric operand")
            return Negate(operand)
        if isinstance(expr, ast.CaseExpr):
            whens = []
            for cond_ast, value_ast in expr.whens:
                cond = bind(cond_ast)
                self._require_boolean(cond, "CASE WHEN")
                whens.append((cond, bind(value_ast)))
            otherwise = bind(expr.otherwise) if expr.otherwise else None
            return Case(whens, otherwise)
        if isinstance(expr, ast.BetweenExpr):
            return self._bind_between(expr, bind)
        if isinstance(expr, ast.LikeExpr):
            return self._bind_like(expr, bind)
        if isinstance(expr, ast.IsNullExpr):
            return IsNull(bind(expr.operand), expr.negated)
        if isinstance(expr, ast.ExtractExpr):
            operand = bind(expr.operand)
            if operand.dtype not in (DataType.DATE, DataType.UNKNOWN):
                raise BindError("EXTRACT requires a date operand")
            from ..algebra import Extract
            return Extract(expr.part, operand)
        if isinstance(expr, ast.InExpr):
            if expr.values is not None:
                return self._bind_in_list(expr, bind)
            bound = self._bind_query(expr.subquery, scope)
            if len(bound.columns) != 1:
                raise BindError("IN subquery must produce exactly one column")
            return InSubquery(bind(expr.operand), bound.rel, expr.negated)
        if isinstance(expr, ast.ExistsExpr):
            bound = self._bind_query(expr.subquery, scope)
            return ExistsSubquery(bound.rel, expr.negated)
        if isinstance(expr, ast.SubqueryExpr):
            return self._bind_scalar_subquery(expr.subquery, scope)
        if isinstance(expr, ast.QuantifiedExpr):
            bound = self._bind_query(expr.subquery, scope)
            if len(bound.columns) != 1:
                raise BindError(
                    "quantified subquery must produce exactly one column")
            return QuantifiedComparison(expr.op, expr.quantifier,
                                        bind(expr.operand), bound.rel)
        if isinstance(expr, ast.FunctionCall):
            if expr.name in _AGGREGATE_FUNCS:
                raise BindError(
                    f"aggregate {expr.name!r} is not allowed here")
            raise BindError(f"unknown function {expr.name!r}")
        if isinstance(expr, ast.Star):
            raise BindError("* is only valid in the select list or count(*)")
        raise BindError(f"unsupported expression {type(expr).__name__}")

    def _bind_scalar_subquery(self, subquery: ast.Query,
                              scope: Scope) -> ScalarSubquery:
        bound = self._bind_query(subquery, scope)
        if len(bound.columns) != 1:
            raise BindError(
                "scalar subquery must produce exactly one column, "
                f"got {len(bound.columns)}")
        rel = bound.rel
        if not max_one_row(rel):
            # Class 3 (exception) subquery: needs the run-time cardinality
            # check.  Provably-single-row subqueries skip it (Section 2.4).
            rel = Max1row(rel)
        return ScalarSubquery(rel)

    def _bind_between(self, expr: ast.BetweenExpr, bind) -> ScalarExpr:
        operand = bind(expr.operand)
        low = bind(expr.low)
        high = bind(expr.high)
        between = And([Comparison("<=", low, operand),
                       Comparison("<=", operand, high)])
        return Not(between) if expr.negated else between

    def _bind_like(self, expr: ast.LikeExpr, bind) -> ScalarExpr:
        operand = bind(expr.operand)
        if not isinstance(expr.pattern, ast.StringLiteral):
            raise BindError("LIKE requires a string-literal pattern")
        if operand.dtype not in (DataType.VARCHAR, DataType.UNKNOWN):
            raise BindError("LIKE requires a string operand")
        return Like(operand, expr.pattern.value, expr.negated)

    def _bind_in_list(self, expr: ast.InExpr, bind) -> ScalarExpr:
        operand = bind(expr.operand)
        bound_values = [bind(v) for v in expr.values]
        if all(isinstance(v, Literal) for v in bound_values):
            return InList(operand, [v.value for v in bound_values],
                          expr.negated)
        comparisons = [Comparison("=", operand, v) for v in bound_values]
        membership = Or(comparisons)
        return Not(membership) if expr.negated else membership

    def _bind_parameter(self, expr: ast.Parameter) -> Parameter:
        if self._view_stack:
            raise BindError(
                "parameters are not allowed in view definitions "
                f"(view {self._view_stack[-1]!r})")
        param = self._parameters.get(expr.index)
        if param is None:
            param = Parameter(expr.index, expr.name)
            self._parameters[expr.index] = param
        return param

    def _bind_literal(self, expr: ast.Expr) -> Literal:
        if isinstance(expr, ast.NumberLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.BooleanLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.NullLiteral):
            return Literal(None)
        if isinstance(expr, ast.DateLiteral):
            return Literal(datetime.date.fromisoformat(expr.text))
        if isinstance(expr, ast.IntervalLiteral):
            if expr.unit == "day":
                return Literal(Interval(days=expr.quantity))
            if expr.unit == "month":
                return Literal(Interval(months=expr.quantity))
            return Literal(Interval(months=12 * expr.quantity))
        raise BindError(f"not a literal: {type(expr).__name__}")

    def _combine_binary(self, op: str, left: ScalarExpr,
                        right: ScalarExpr) -> ScalarExpr:
        if op == "and":
            self._require_boolean(left, "AND")
            self._require_boolean(right, "AND")
            return And([left, right])
        if op == "or":
            self._require_boolean(left, "OR")
            self._require_boolean(right, "OR")
            return Or([left, right])
        if op in Comparison.VALID_OPS:
            self._check_comparable(left, right, op)
            return Comparison(op, left, right)
        if op in Arithmetic.VALID_OPS:
            self._check_arithmetic(left, right, op)
            return Arithmetic(op, left, right)
        raise BindError(f"unsupported operator {op!r}")

    # -- type checks -----------------------------------------------------------

    def _require_boolean(self, expr: ScalarExpr, context: str) -> None:
        # UNKNOWN (an untyped parameter) is accepted anywhere; its value is
        # type-checked when bound at execution time.
        if expr.dtype not in (DataType.BOOLEAN, DataType.UNKNOWN):
            raise BindError(f"{context} requires a boolean, got {expr.dtype}")

    def _check_comparable(self, left: ScalarExpr, right: ScalarExpr,
                          op: str) -> None:
        lt, rt = left.dtype, right.dtype
        if DataType.UNKNOWN in (lt, rt):
            return
        if lt.is_numeric and rt.is_numeric:
            return
        if lt == rt:
            return
        raise BindError(f"cannot compare {lt} {op} {rt}")

    def _check_arithmetic(self, left: ScalarExpr, right: ScalarExpr,
                          op: str) -> None:
        lt, rt = left.dtype, right.dtype
        if DataType.UNKNOWN in (lt, rt):
            return
        if lt.is_numeric and rt.is_numeric:
            return
        if lt is DataType.DATE and rt is DataType.INTERVAL and op in "+-":
            return
        if lt is DataType.INTERVAL and rt is DataType.DATE and op == "+":
            return
        if lt is DataType.DATE and rt is DataType.DATE and op == "-":
            return
        raise BindError(f"invalid arithmetic {lt} {op} {rt}")


def make_get(table: TableDef) -> Get:
    """A fresh Get over a catalog table (new column identities)."""
    columns = [Column(c.name, c.dtype, c.nullable) for c in table.columns]
    by_name = {c.name: col for c, col in zip(table.columns, columns)}
    keys = [tuple(by_name[name] for name in key) for key in table.all_keys()]
    return Get(table.name, columns, keys, table)


def _contains_aggregate_call(expr: ast.Expr) -> bool:
    calls: list[ast.FunctionCall] = []
    _collect_aggregate_calls(expr, calls)
    return bool(calls)


def _collect_aggregate_calls(expr: ast.Expr,
                             into: list[ast.FunctionCall]) -> None:
    """Aggregate calls at this query level (not inside subqueries)."""
    if isinstance(expr, ast.FunctionCall):
        if expr.name in _AGGREGATE_FUNCS:
            into.append(expr)
            return
        for arg in expr.args:
            _collect_aggregate_calls(arg, into)
        return
    if isinstance(expr, ast.BinaryOp):
        _collect_aggregate_calls(expr.left, into)
        _collect_aggregate_calls(expr.right, into)
    elif isinstance(expr, ast.UnaryOp):
        _collect_aggregate_calls(expr.operand, into)
    elif isinstance(expr, ast.CaseExpr):
        for cond, value in expr.whens:
            _collect_aggregate_calls(cond, into)
            _collect_aggregate_calls(value, into)
        if expr.otherwise is not None:
            _collect_aggregate_calls(expr.otherwise, into)
    elif isinstance(expr, ast.BetweenExpr):
        _collect_aggregate_calls(expr.operand, into)
        _collect_aggregate_calls(expr.low, into)
        _collect_aggregate_calls(expr.high, into)
    elif isinstance(expr, ast.LikeExpr):
        _collect_aggregate_calls(expr.operand, into)
    elif isinstance(expr, ast.IsNullExpr):
        _collect_aggregate_calls(expr.operand, into)
    elif isinstance(expr, ast.InExpr):
        _collect_aggregate_calls(expr.operand, into)
        if expr.values is not None:
            for value in expr.values:
                _collect_aggregate_calls(value, into)
        # subquery: separate level — do not descend
    elif isinstance(expr, ast.QuantifiedExpr):
        _collect_aggregate_calls(expr.operand, into)
    # ExistsExpr / SubqueryExpr: separate level — do not descend


def _derive_name(expr: ast.Expr, position: int) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.parts[-1].lower()
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    return f"col{position + 1}"
