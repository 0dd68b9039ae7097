"""SQL front end: lexer, AST and recursive-descent parser.

Dialect (the subset the paper's examples and the TPC-H suite require):

* ``SELECT [DISTINCT] items`` — expressions, aliases, ``*`` / ``alias.*``;
* ``FROM`` — tables, views, aliases, derived tables with column aliases,
  ``JOIN``/``INNER JOIN``/``LEFT [OUTER] JOIN ... ON``/``CROSS JOIN``,
  comma cross products (``RIGHT``/``FULL`` rejected with a rewrite hint);
* ``WHERE``/``HAVING`` — 3VL boolean expressions; comparisons, ``AND``/
  ``OR``/``NOT``, ``[NOT] IN`` (value lists and subqueries),
  ``[NOT] EXISTS``, quantified comparisons ``op ANY|SOME|ALL (subquery)``,
  ``[NOT] BETWEEN``, ``[NOT] LIKE`` (constant patterns, ``%``/``_``),
  ``IS [NOT] NULL``; scalar subqueries anywhere an expression is allowed
  (including CASE branches, with the Section 2.4 conditional-execution
  semantics);
* ``GROUP BY`` expressions with ``count(*)``, ``count``, ``sum``, ``avg``,
  ``min``, ``max`` (each optionally ``DISTINCT``);
* ``ORDER BY [ASC|DESC]`` (select aliases or input columns), ``LIMIT n``;
* ``UNION ALL`` and ``EXCEPT ALL`` (plain UNION/EXCEPT rejected: the
  algebra is bag-oriented — use DISTINCT explicitly);
* literals: integers, decimals, strings (``''`` escaping), ``TRUE``/
  ``FALSE``/``NULL``, ``DATE 'YYYY-MM-DD'``,
  ``INTERVAL 'n' DAY|MONTH|YEAR``; ``EXTRACT(YEAR|MONTH|DAY FROM d)``;
  arithmetic ``+ - * /`` with date±interval support;
* ``--`` line comments; case-insensitive keywords and identifiers;
  ``"quoted"`` identifiers;
* ``EXPLAIN [ANALYZE] <query>`` — statement-level prefix
  (:func:`classify_statement`); ``ANALYZE`` executes once with
  per-operator row counting.

Unsupported (documented): window functions, ``WITH``/CTEs (use views),
``RIGHT``/``FULL OUTER JOIN``, string functions (``substring`` — the Q22
variant substitutes ``c_nationkey``), correlated/lateral derived tables.
"""

from . import ast
from .lexer import Token, TokenType, tokenize
from .parser import (MatViewStatement, Statement, classify_statement,
                     lex_query, parse)

__all__ = ["MatViewStatement", "Statement", "Token", "TokenType", "ast",
           "classify_statement", "lex_query", "parse", "tokenize"]
