"""A small SQL front-end.

DBS3 compiles ESQL; this reproduction accepts the subset needed for
the paper's workloads:

.. code-block:: sql

    SELECT [cols | *] FROM A
    SELECT * FROM A WHERE a1 < 100 AND a2 = 3
    SELECT * FROM A JOIN B ON A.k = B.j [WHERE A.x < 5 [AND ...]]
    SELECT g, COUNT(*), SUM(x) FROM A [WHERE ...] GROUP BY g
    SELECT AVG(x) FROM A

Identifiers may be qualified (``A.k``) or bare when unambiguous; the
parser produces a logical tree, leaving name resolution against the
catalog to the parallelizer.
"""

from __future__ import annotations

import re

from repro.compiler.logical import (
    Comparison,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from repro.errors import CompilationError
from repro.lera.aggregates import AGGREGATE_FUNCTIONS, AggregateExpr

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>-?\d+(?:\.\d+)?)
      | (?P<string>'(?:[^'\\]|\\.)*')
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),.*])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "join", "on", "where", "and", "group", "by"}

#: Literal token kind -> the Python value of its source text.
_LITERALS = {
    "number": lambda text: float(text) if "." in text else int(text),
    "string": lambda text: text[1:-1].replace("\\'", "'"),
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise CompilationError(f"cannot tokenize near {remainder[:20]!r}")
        position = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(("keyword", value.lower()))
        else:
            tokens.append((kind, value))
    return tokens


def lift(sql: str) -> tuple["_Tokens", tuple, list]:
    """Tokenise *sql* into a cursor that :func:`parse_tokens` makes the
    statement's template of (n in place of the n-th literal), its
    *template key* (tokens, each literal replaced by its type: shared by
    statements differing only in constants) and its literals in order."""
    tokens = _tokenize(sql)
    key, literals = [], []
    for kind, text in tokens:
        if kind in _LITERALS:
            literals.append(_LITERALS[kind](text))
            text = type(literals[-1])
        key.append((kind, text))
    return _Tokens(tokens, lifted=True), tuple(key), literals


class _Tokens:
    """Cursor over the token stream."""

    def __init__(self, tokens: list[tuple[str, str]], lifted=False) -> None:
        self._tokens = tokens
        self._index = 0
        #: Template mode: the n-th constant parses to its number, n.
        self._parameters = 0 if lifted else None

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)

    def peek(self) -> tuple[str, str] | None:
        if self.exhausted:
            return None
        return self._tokens[self._index]

    def next(self) -> tuple[str, str]:
        if self.exhausted:
            raise CompilationError("unexpected end of query")
        token = self._tokens[self._index]
        self._index += 1
        return token

    def expect_keyword(self, word: str) -> None:
        kind, value = self.next()
        if kind != "keyword" or value != word:
            raise CompilationError(f"expected {word.upper()}, got {value!r}")

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token == ("keyword", word):
            self._index += 1
            return True
        return False

    def accept_punct(self, symbol: str) -> bool:
        token = self.peek()
        if token == ("punct", symbol):
            self._index += 1
            return True
        return False


def _identifier(tokens: _Tokens) -> str:
    """A possibly qualified identifier, returned in ``rel.attr`` form."""
    kind, value = tokens.next()
    if kind != "word":
        raise CompilationError(f"expected identifier, got {value!r}")
    if tokens.accept_punct("."):
        kind2, attr = tokens.next()
        if kind2 != "word":
            raise CompilationError(f"expected attribute after '.', got {attr!r}")
        return f"{value}.{attr}"
    return value


def _constant(tokens: _Tokens) -> object:
    kind, value = tokens.next()
    if kind not in _LITERALS:
        raise CompilationError(f"expected constant, got {value!r}")
    if tokens._parameters is None:
        return _LITERALS[kind](value)
    tokens._parameters += 1
    return tokens._parameters - 1


def _comparisons(tokens: _Tokens) -> tuple[Comparison, ...]:
    comparisons = []
    while True:
        attribute = _identifier(tokens)
        kind, op = tokens.next()
        if kind != "op":
            raise CompilationError(f"expected comparison operator, got {op!r}")
        value = _constant(tokens)
        comparisons.append(Comparison(attribute, op, value))
        if not tokens.accept_keyword("and"):
            break
    return tuple(comparisons)


def _select_item(tokens: _Tokens):
    """One SELECT-list entry: an identifier or an aggregate call."""
    token = tokens.peek()
    if token is not None and token[0] == "word" \
            and token[1].lower() in AGGREGATE_FUNCTIONS:
        saved = tokens._index
        function = tokens.next()[1].lower()
        if tokens.accept_punct("("):
            if tokens.accept_punct("*"):
                if function != "count":
                    raise CompilationError(
                        f"{function.upper()}(*) is not valid; only COUNT(*)")
                attribute = None
            else:
                attribute = _identifier(tokens)
            if not tokens.accept_punct(")"):
                raise CompilationError(
                    f"missing ')' after {function.upper()}(...)")
            return AggregateExpr(function, attribute)
        tokens._index = saved  # a column merely named like a function
    return _identifier(tokens)


def parse(sql: str) -> LogicalNode:
    """Parse one query into a logical tree.

    Raises :class:`CompilationError` on any syntax problem.
    """
    return parse_tokens(_Tokens(_tokenize(sql)))


def parse_tokens(tokens: _Tokens) -> LogicalNode:
    """:func:`parse` from a token cursor (see :func:`lift`)."""
    tokens.expect_keyword("select")

    items: list = []
    if tokens.accept_punct("*"):
        pass
    else:
        while True:
            items.append(_select_item(tokens))
            if not tokens.accept_punct(","):
                break
    columns = [item for item in items if isinstance(item, str)]
    has_aggregates = any(isinstance(item, AggregateExpr) for item in items)
    if len(columns) != len(items) and not has_aggregates:
        raise CompilationError("malformed SELECT list")

    tokens.expect_keyword("from")
    left_name = _identifier(tokens)
    node: LogicalNode = LogicalScan(left_name)

    while tokens.accept_keyword("join"):
        right_name = _identifier(tokens)
        tokens.expect_keyword("on")
        left_key = _identifier(tokens)
        kind, op = tokens.next()
        if (kind, op) != ("op", "="):
            raise CompilationError(f"JOIN ... ON requires '=', got {op!r}")
        right_key = _identifier(tokens)
        node = LogicalJoin(node, LogicalScan(right_name), left_key, right_key)

    if tokens.accept_keyword("where"):
        node = LogicalFilter(node, _comparisons(tokens))

    group_by = None
    if tokens.accept_keyword("group"):
        tokens.expect_keyword("by")
        group_by = _identifier(tokens)

    if not tokens.exhausted:
        kind, value = tokens.next()
        raise CompilationError(f"unexpected trailing token {value!r}")

    if has_aggregates or group_by is not None:
        if not has_aggregates:
            raise CompilationError(
                "GROUP BY without aggregates is not supported")
        for column in columns:
            bare = column.split(".")[-1]
            if group_by is None or bare != group_by.split(".")[-1]:
                raise CompilationError(
                    f"non-aggregated column {column!r} must be the "
                    f"GROUP BY attribute")
        return LogicalAggregate(node, group_by, tuple(items))

    return LogicalProject(node, tuple(columns))
