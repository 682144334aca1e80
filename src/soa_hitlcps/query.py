"""SELECT/WHERE/FILTER queries over a knowledge base.

Grammar::

    Query      := SELECT Var+ WHERE { (Pattern .?)+ [FILTER ( FilterExpr )] }
    Pattern    := Term Term Term
    Term       := ?name | prefixed-name | a          (`a` = the type predicate)
    FilterExpr := Cmp ((&& | ||) Cmp)*               (&& binds tighter than ||)
    Cmp        := Var = prefixed-name
                | Var IN ( prefixed-name, ... )

The AST holds what its names denote: a name is an ``Iri`` (a bare name has
the built-in prefix), the keyword ``a`` reads as ``TYPE_PRED``, and a pattern
is a ``kb.Pattern``.  A name's prefix is checked against the target kb's
prefix table at evaluation time, so one parsed query can run against any kb
whose prefixes cover it.  Evaluation is set-semantics over asserted plus
materialized triples of the kb it is given; result rows are deduplicated and
sorted lexicographically by their bound terms.

``evaluate`` plans the join before running it: the FILTER's top-level
equalities seed it, and the patterns run most-bound first, ties going to the
smallest index bucket (Neumann & Weikum, RDF-3X, VLDB 2008).  Since the rows
are deduplicated and sorted, no plan shows in a result.  ``join`` keeps the
order it is given, and ``invoke`` takes the least of its rows, so no
precondition order shows in what an invocation writes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, UnboundFilterVarError, UnboundProjectionError
from .kb import (
    Iri,
    KnowledgeBase,
    Pattern,
    PatternTerm,
    TYPE_PRED,
    Var,
    _Cursor,
    _NAME_RE,
    parse_name,
    term_sort_key,
)


@dataclass(frozen=True)
class Eq:
    var: str
    value: Iri


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

# A name may hold an inner "."; a "." standing alone or ending a name ends a pattern.
_QUERY_TOKEN = re.compile(r"\?\w[\w-]*|&&|\|\||[{}(),.=]|[^\s{}(),.=|&]+(?:\.[^\s{}(),.=|&]+)*")


def _query_lines(text: str):
    """Each line of a query up to its first ``#``."""
    for raw in text.splitlines():
        hash_pos = raw.find("#")
        yield raw if hash_pos < 0 else raw[:hash_pos]


def _query_positions(text: str) -> list:
    """The (line, column) of each word of a query."""
    return [(lineno, m.start() + 1) for lineno, raw in enumerate(_query_lines(text), start=1)
            for m in _QUERY_TOKEN.finditer(raw)]


def _query_name(cursor: _Cursor, expected: str) -> Iri:
    """The word last read as a name, its prefix checked at evaluation; else a ParseError expecting ``expected``."""
    try:
        return parse_name(cursor.words[cursor.pos - 1])
    except ParseError:
        raise cursor.error(expected) from None


def _parse_query_term(cursor: _Cursor) -> PatternTerm:
    word = cursor.words[cursor.pos - 1]
    if word.startswith("?"):
        return Var(word[1:])
    if word == "a":
        return TYPE_PRED
    return _query_name(cursor, "a variable or prefixed name")


def _parse_constant(cursor: _Cursor) -> Iri:
    cursor.next("a prefixed name")
    return _query_name(cursor, "a prefixed name")


def _parse_cmp(cursor: _Cursor) -> FilterExpr:
    var = cursor.next("a variable")
    if not var.startswith("?"):
        raise cursor.error("a variable")
    op = cursor.next("= or IN")
    if op == "=":
        return Eq(var[1:], _parse_constant(cursor))
    if op == "IN":
        cursor.expect("(")
        values = [_parse_constant(cursor)]
        while True:
            word = cursor.next(", or )")
            if word == ")":
                break
            if word != ",":
                raise cursor.error(", or )")
            values.append(_parse_constant(cursor))
        return InSet(var[1:], tuple(values))
    raise cursor.error("= or IN")


def _parse_filter_expr(cursor: _Cursor) -> FilterExpr:
    groups = [[_parse_cmp(cursor)]]
    while True:
        op = cursor.peek()
        if op not in ("&&", "||"):
            break
        cursor.next(op)
        cmp_ = _parse_cmp(cursor)
        if op == "&&":
            groups[-1].append(cmp_)
        else:
            groups.append([cmp_])
    ands = [g[0] if len(g) == 1 else And(tuple(g)) for g in groups]
    if len(ands) == 1:
        return ands[0]
    return Or(tuple(ands))


def parse_query(text: str) -> QueryAst:
    words = [word for raw in _query_lines(text) for word in _QUERY_TOKEN.findall(raw)]
    cursor = _Cursor(words, _query_positions, text)
    cursor.expect("SELECT")
    projected = []
    while True:
        word = cursor.peek()
        if word is None or not word.startswith("?"):
            break
        projected.append(cursor.next("a variable")[1:])
    if not projected:
        if cursor.peek() is None:
            raise ParseError(1, 7, "at least one projected variable")
        raise cursor.error("at least one projected variable", cursor.pos)
    cursor.expect("WHERE")
    cursor.expect("{")
    patterns = []
    filter_expr: Optional[FilterExpr] = None
    while True:
        word = cursor.next("a pattern, FILTER or }")
        if word == "}":
            break
        if word == "FILTER":
            cursor.expect("(")
            filter_expr = _parse_filter_expr(cursor)
            cursor.expect(")")
            cursor.expect("}")
            break
        subject = _parse_query_term(cursor)
        cursor.next("a pattern term")
        predicate = _parse_query_term(cursor)
        cursor.next("a pattern term")
        obj = _parse_query_term(cursor)
        patterns.append(Pattern(subject, predicate, obj))
        if cursor.peek() == ".":
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


def _format_name(name: Iri) -> str:
    """``prefix:local``, which reads back as ``name`` even when its local part is ``a``."""
    return f"{name.prefix}:{name.local}"


def _format_term(term: PatternTerm) -> str:
    if term == TYPE_PRED:
        return "a"
    return _format_name(term) if isinstance(term, Iri) else str(term)


def _format_filter(expr: FilterExpr) -> str:
    if isinstance(expr, Eq):
        return f"?{expr.var}={_format_name(expr.value)}"
    if isinstance(expr, InSet):
        return f"?{expr.var} IN ({', '.join(map(_format_name, expr.values))})"
    if isinstance(expr, And):
        return " && ".join(_format_filter(p) for p in expr.parts)
    return " || ".join(_format_filter(p) for p in expr.parts)


def format_query(ast: QueryAst) -> str:
    parts = ["SELECT " + " ".join(f"?{v}" for v in ast.projected), "WHERE {"]
    body = [" ".join(map(_format_term, (p.subject, p.predicate, p.object))) + " ." for p in ast.patterns]
    if ast.filter is not None:
        body.append(f"FILTER ({_format_filter(ast.filter)})")
    return parts[0] + " " + parts[1] + " " + " ".join(body) + " }"


# --------------------------------------------------------------------------
# Evaluation


def check_name(name: Iri, kb: KnowledgeBase) -> None:
    """Raise what :func:`parse_name` raises for the print of ``name`` when it does not read back in ``kb``.

    A name passes when ``kb`` declares its prefix and its local part is a
    name.  Otherwise its print ``prefix:local`` is read against ``kb``'s
    prefixes, which raises: an :class:`UnknownPrefixError` for an undeclared
    prefix (cut at its first ``:``), or else a :class:`ParseError`.
    """
    if ":" in name.prefix or name.prefix not in kb.prefixes or not _NAME_RE.fullmatch(name.local):
        parse_name(_format_name(name), kb.prefixes)


def _filter_names(expr: FilterExpr) -> tuple:
    """The names of ``expr`` in the order it is written."""
    if isinstance(expr, Eq):
        return (expr.value,)
    if isinstance(expr, InSet):
        return expr.values
    return tuple(name for part in expr.parts for name in _filter_names(part))


def _check_names(kb: KnowledgeBase, ast: QueryAst) -> None:
    """:func:`check_name` on every name of ``ast``: the patterns' first, then the FILTER's, each in order."""
    for pattern in ast.patterns:
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Iri):
                check_name(term, kb)
    if ast.filter is not None:
        for name in _filter_names(ast.filter):
            check_name(name, kb)


def _compile_filter(expr: FilterExpr):
    """A test over one binding."""
    if isinstance(expr, Eq):
        var, value = expr.var, expr.value
        return lambda binding: binding[var] == value
    if isinstance(expr, InSet):
        var, values = expr.var, set(expr.values)
        return lambda binding: binding[var] in values
    parts = [_compile_filter(p) for p in expr.parts]
    if isinstance(expr, And):
        return lambda binding: all(test(binding) for test in parts)
    return lambda binding: any(test(binding) for test in parts)


def join(kb: KnowledgeBase, patterns, binding: dict, filters=()) -> list[dict]:
    """Every extension of ``binding`` that matches all ``patterns``, in join order.

    Patterns join left to right, each extending the bindings so far in
    ``kb.match`` order, so the result order depends on the pattern order; a
    caller that needs one row whatever that order takes the least, as
    ``invoke`` does.  ``filters`` are ``(variables, test)`` pairs; each test runs
    right after the pattern that binds the last of its variables, so it
    narrows the later joins.

    Every binding so far binds the same variables, so each pattern is read
    once: which of its positions a binding fills is known before the first
    probe, and a probe's rows extend its binding in one dict build.
    """
    bound = set(binding)
    pending = list(filters)
    bindings = [dict(binding)]
    match = kb.match
    for pattern in patterns:
        terms = [pattern.subject, pattern.predicate, pattern.object]
        # the variable positions every binding so far fills
        filled = [(i, term.name) for i, term in enumerate(terms)
                  if isinstance(term, Var) and term.name in bound]
        next_bindings = []
        for partial in bindings:
            for i, name in filled:
                terms[i] = partial[name]
            for extension in match(tuple(terms)):
                next_bindings.append(partial | extension)
        bound.update(pattern.variables())
        ready = [test for needs, test in pending if needs <= bound]
        if ready:
            pending = [(needs, test) for needs, test in pending if not needs <= bound]
            next_bindings = [b for b in next_bindings if all(test(b) for test in ready)]
        bindings = next_bindings
        if not bindings:
            break
    return [b for b in bindings if all(test(b) for _, test in pending)]


def _seeds_and_filters(conjuncts) -> tuple:
    """The bindings the FILTER's top-level equalities pin, and a test for every other conjunct.

    An ``Eq`` pins its variable to one value and an ``InSet`` to each of its
    values; a variable pinned twice keeps the values both allow, so two
    different equalities leave no seed.  The seeds are every combination of
    the pinned values, in ``term_sort_key`` order.
    """
    allowed, filters = {}, []
    for conjunct in conjuncts:
        if isinstance(conjunct, Eq):
            values = {conjunct.value}
        elif isinstance(conjunct, InSet):
            values = set(conjunct.values)
        else:
            filters.append((_filter_vars(conjunct), _compile_filter(conjunct)))
            continue
        allowed[conjunct.var] = allowed.get(conjunct.var, values) & values
    names = list(allowed)
    choices = [sorted(allowed[name], key=term_sort_key) for name in names]
    return [dict(zip(names, values)) for values in itertools.product(*choices)], filters


def _plan(kb: KnowledgeBase, patterns: tuple, seeded: set) -> list:
    """``patterns`` in the order to join them once the ``seeded`` variables are bound.

    Greedy: next comes the pattern with the most bound positions (constants,
    seeded variables and variables an earlier pattern binds), then the one
    whose own constants have the smallest index bucket (see
    :meth:`KnowledgeBase.estimate`), then the first in source order.  The
    seeded values do not enter the estimate, so one plan serves every seed.
    Each pattern's terms are read once: its bound positions are counted
    up front and raised as each chosen pattern binds its variables.
    """
    names, keys = [], []
    for index, pattern in enumerate(patterns):
        terms = (pattern.subject, pattern.predicate, pattern.object)
        own = [term.name for term in terms if isinstance(term, Var)]
        names.append(own)
        # minus the bound positions, so that the least key is the most bound
        keys.append([len(own) - 3 - len([name for name in own if name in seeded]),
                     kb.estimate(terms), index])
    bound = set(seeded)
    remaining = list(range(len(patterns)))
    order = []
    while remaining:
        best = min(remaining, key=keys.__getitem__)
        remaining.remove(best)
        order.append(patterns[best])
        fresh = set(names[best]) - bound
        bound |= fresh
        for i in remaining:
            for name in names[i]:
                if name in fresh:
                    keys[i][0] -= 1
    return order


def evaluate(kb: KnowledgeBase, ast: QueryAst) -> ResultTable:
    """Run ``ast`` against ``kb`` (materialize first if inference matters).

    Every name is checked once before any join (see :func:`check_name`),
    the patterns' first and then the FILTER's, so an unknown prefix raises
    even when no row matches.  The conjuncts of a top-level ``&&`` FILTER
    (or the whole FILTER when it is one comparison) that are an ``Eq`` or an
    ``InSet`` seed the join: it runs once from each binding they pin (see
    :func:`_seeds_and_filters`), with the patterns in the order
    :func:`_plan` picks.  Every other conjunct, such as an ``||``, is
    applied right after the pattern that binds the last of its variables
    (see :func:`join`).
    """
    _check_names(kb, ast)
    if ast.filter is None:
        conjuncts = ()
    else:
        conjuncts = ast.filter.parts if isinstance(ast.filter, And) else (ast.filter,)
    seeds, filters = _seeds_and_filters(conjuncts)
    order = _plan(kb, ast.patterns, set(seeds[0])) if seeds else ()
    rows = {tuple(b[v] for v in ast.projected) for seed in seeds for b in join(kb, order, seed, filters)}
    ordered = tuple(sorted(rows, key=lambda row: tuple(term_sort_key(v) for v in row)))
    return ResultTable(tuple(ast.projected), ordered)
