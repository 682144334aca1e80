"""SELECT/WHERE/FILTER queries over a knowledge base.

Grammar::

    Query      := SELECT Var+ WHERE { (Pattern .?)+ [FILTER ( FilterExpr )] }
    Pattern    := Term Term Term
    Term       := ?name | prefixed-name | a          (`a` = the type predicate)
    FilterExpr := Cmp ((&& | ||) Cmp)*               (&& binds tighter than ||)
    Cmp        := Var = prefixed-name
                | Var IN ( prefixed-name, ... )

Prefixed names are kept raw in the AST and resolved against the target kb's
prefix table at evaluation time, so one parsed query can run against any kb
whose prefixes cover it.  Evaluation is set-semantics over asserted plus
materialized triples of the kb it is given; result rows are deduplicated and
sorted lexicographically by their bound terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, UnboundFilterVarError, UnboundProjectionError
from .kb import (
    Iri,
    KnowledgeBase,
    Pattern,
    TYPE_PRED,
    Var,
    _Cursor,
    _Token,
    parse_name,
    term_sort_key,
)


@dataclass(frozen=True)
class QueryName:
    """An unresolved constant; ``raw`` is ``local`` or ``prefix:local``."""

    raw: str

    def __str__(self) -> str:
        return self.raw


@dataclass(frozen=True)
class TypePredicate:
    """The ``a`` keyword in predicate position."""

    def __str__(self) -> str:
        return "a"


A = TypePredicate()

QueryTerm = Union[Var, QueryName, TypePredicate]


@dataclass(frozen=True)
class QueryPattern:
    subject: QueryTerm
    predicate: QueryTerm
    object: QueryTerm

    def variables(self) -> list[str]:
        return [t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Var)]


@dataclass(frozen=True)
class Eq:
    var: str
    value: QueryName


@dataclass(frozen=True)
class InSet:
    var: str
    values: tuple


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


FilterExpr = Union[Eq, InSet, And, Or]


@dataclass(frozen=True)
class QueryAst:
    projected: tuple
    patterns: tuple
    filter: Optional[FilterExpr] = None


@dataclass(frozen=True)
class ResultTable:
    """Projected columns and deduplicated, deterministically ordered rows."""

    columns: tuple
    rows: tuple

    def to_tsv(self) -> str:
        lines = ["\t".join(f"?{c}" for c in self.columns)]
        for row in self.rows:
            lines.append("\t".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Parsing

_QUERY_TOKEN = re.compile(r"\?\w[\w-]*|&&|\|\||[{}(),.=]|[^\s{}(),.=|&]+")


def _tokenize_query(text: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        for m in _QUERY_TOKEN.finditer(raw):
            tokens.append(_Token(m.group(0), lineno, m.start() + 1))
    return tokens


_NAME_OK = re.compile(r"^[A-Za-z_][\w.-]*(:[A-Za-z_][\w.-]*)?$")


def _parse_query_term(tok: _Token) -> QueryTerm:
    if tok.text.startswith("?"):
        return Var(tok.text[1:])
    if tok.text == "a":
        return A
    if not _NAME_OK.match(tok.text):
        raise ParseError(tok.line, tok.column, "a variable or prefixed name")
    return QueryName(tok.text)


def _parse_constant(cursor: _Cursor) -> QueryName:
    tok = cursor.next("a prefixed name")
    if tok.text.startswith("?") or not _NAME_OK.match(tok.text):
        raise ParseError(tok.line, tok.column, "a prefixed name")
    return QueryName(tok.text)


def _parse_cmp(cursor: _Cursor) -> FilterExpr:
    var_tok = cursor.next("a variable")
    if not var_tok.text.startswith("?"):
        raise ParseError(var_tok.line, var_tok.column, "a variable")
    var = var_tok.text[1:]
    op = cursor.next("= or IN")
    if op.text == "=":
        return Eq(var, _parse_constant(cursor))
    if op.text == "IN":
        cursor.expect("(")
        values = [_parse_constant(cursor)]
        while True:
            tok = cursor.next(", or )")
            if tok.text == ")":
                break
            if tok.text != ",":
                raise ParseError(tok.line, tok.column, ", or )")
            values.append(_parse_constant(cursor))
        return InSet(var, tuple(values))
    raise ParseError(op.line, op.column, "= or IN")


def _parse_filter_expr(cursor: _Cursor) -> FilterExpr:
    groups = [[_parse_cmp(cursor)]]
    while True:
        tok = cursor.peek()
        if tok is None or tok.text not in ("&&", "||"):
            break
        cursor.next(tok.text)
        cmp_ = _parse_cmp(cursor)
        if tok.text == "&&":
            groups[-1].append(cmp_)
        else:
            groups.append([cmp_])
    ands = [g[0] if len(g) == 1 else And(tuple(g)) for g in groups]
    if len(ands) == 1:
        return ands[0]
    return Or(tuple(ands))


def parse_query(text: str) -> QueryAst:
    cursor = _Cursor(_tokenize_query(text))
    cursor.expect("SELECT")
    projected = []
    while True:
        tok = cursor.peek()
        if tok is None or not tok.text.startswith("?"):
            break
        projected.append(cursor.next("a variable").text[1:])
    if not projected:
        tok = cursor.peek()
        line, column = (tok.line, tok.column) if tok else (1, 7)
        raise ParseError(line, column, "at least one projected variable")
    cursor.expect("WHERE")
    cursor.expect("{")
    patterns = []
    filter_expr: Optional[FilterExpr] = None
    while True:
        tok = cursor.next("a pattern, FILTER or }")
        if tok.text == "}":
            break
        if tok.text == "FILTER":
            cursor.expect("(")
            filter_expr = _parse_filter_expr(cursor)
            cursor.expect(")")
            cursor.expect("}")
            break
        subject = _parse_query_term(tok)
        predicate = _parse_query_term(cursor.next("a pattern term"))
        obj = _parse_query_term(cursor.next("a pattern term"))
        patterns.append(QueryPattern(subject, predicate, obj))
        nxt = cursor.peek()
        if nxt is not None and nxt.text == ".":
            cursor.next(".")
    if not patterns:
        raise ParseError(1, 1, "at least one pattern")
    cursor.done("end of query")

    bound = {v for p in patterns for v in p.variables()}
    for var in projected:
        if var not in bound:
            raise UnboundProjectionError(var)
    if filter_expr is not None:
        for var in _filter_vars(filter_expr):
            if var not in bound:
                raise UnboundFilterVarError(var)
    return QueryAst(tuple(projected), tuple(patterns), filter_expr)


def _filter_vars(expr: FilterExpr) -> set:
    if isinstance(expr, Eq):
        return {expr.var}
    if isinstance(expr, InSet):
        return {expr.var}
    out: set = set()
    for part in expr.parts:
        out |= _filter_vars(part)
    return out


# --------------------------------------------------------------------------
# Printing (canonical single-line form; parse(format_query(q)) == q)


def _format_filter(expr: FilterExpr) -> str:
    if isinstance(expr, Eq):
        return f"?{expr.var}={expr.value}"
    if isinstance(expr, InSet):
        return f"?{expr.var} IN ({', '.join(str(v) for v in expr.values)})"
    if isinstance(expr, And):
        return " && ".join(_format_filter(p) for p in expr.parts)
    return " || ".join(_format_filter(p) for p in expr.parts)


def format_query(ast: QueryAst) -> str:
    parts = ["SELECT " + " ".join(f"?{v}" for v in ast.projected), "WHERE {"]
    body = [f"{p.subject} {p.predicate} {p.object} ." for p in ast.patterns]
    if ast.filter is not None:
        body.append(f"FILTER ({_format_filter(ast.filter)})")
    return parts[0] + " " + parts[1] + " " + " ".join(body) + " }"


# --------------------------------------------------------------------------
# Evaluation


def resolve_name(name: QueryName, kb: KnowledgeBase) -> Iri:
    return parse_name(name.raw, kb.prefixes)


def _resolve_pattern(pattern: QueryPattern, kb: KnowledgeBase) -> Pattern:
    def conv(term: QueryTerm):
        if isinstance(term, Var):
            return term
        if isinstance(term, TypePredicate):
            return TYPE_PRED
        return resolve_name(term, kb)

    return Pattern(conv(pattern.subject), conv(pattern.predicate), conv(pattern.object))


def _compile_filter(expr: FilterExpr, kb: KnowledgeBase):
    """A test over one binding, with every constant resolved once."""
    if isinstance(expr, Eq):
        var, value = expr.var, resolve_name(expr.value, kb)
        return lambda binding: binding[var] == value
    if isinstance(expr, InSet):
        var, values = expr.var, {resolve_name(v, kb) for v in expr.values}
        return lambda binding: binding[var] in values
    parts = [_compile_filter(p, kb) for p in expr.parts]
    if isinstance(expr, And):
        return lambda binding: all(test(binding) for test in parts)
    return lambda binding: any(test(binding) for test in parts)


def evaluate(kb: KnowledgeBase, ast: QueryAst) -> ResultTable:
    """Run ``ast`` against ``kb`` (materialize first if inference matters).

    Each conjunct of a top-level ``&&`` FILTER (or the whole FILTER when it
    is a single comparison or an ``||``) is applied right after the pattern
    that binds the last of its variables, so it narrows the later joins.
    """
    patterns = [_resolve_pattern(p, kb) for p in ast.patterns]
    if ast.filter is None:
        conjuncts = ()
    else:
        conjuncts = ast.filter.parts if isinstance(ast.filter, And) else (ast.filter,)
    pending = [(_filter_vars(c), _compile_filter(c, kb)) for c in conjuncts]
    bound: set = set()
    bindings = [dict()]
    for pattern in patterns:
        next_bindings = []
        for binding in bindings:
            for extension in kb.match(pattern.substitute(binding)):
                merged = dict(binding)
                merged.update(extension)
                next_bindings.append(merged)
        bound.update(pattern.variables())
        ready = [test for needs, test in pending if needs <= bound]
        pending = [(needs, test) for needs, test in pending if not needs <= bound]
        bindings = [b for b in next_bindings if all(test(b) for test in ready)]
        if not bindings:
            break
    bindings = [b for b in bindings if all(test(b) for _, test in pending)]
    rows = {tuple(b[v] for v in ast.projected) for b in bindings}
    ordered = tuple(sorted(rows, key=lambda row: tuple(term_sort_key(v) for v in row)))
    return ResultTable(tuple(ast.projected), ordered)


def query_equivalent(a: QueryAst, b: QueryAst) -> bool:
    """Same projection, same pattern set, same filter up to conjunct order."""

    def norm_filter(expr):
        if expr is None or isinstance(expr, (Eq, InSet)):
            return expr
        parts = frozenset(norm_filter(p) for p in expr.parts)
        return (type(expr).__name__, parts)

    return (
        a.projected == b.projected
        and set(a.patterns) == set(b.patterns)
        and norm_filter(a.filter) == norm_filter(b.filter)
    )
