"""Randomized query workloads plus a brute-force evaluation oracle.

The oracle expands the full cross-product of per-pattern candidate bindings
(每 pattern candidates found by scanning every triple) and keeps the
assignments that are mutually consistent and pass the filter.  It shares no
join machinery with the engine under test.  ``source_order_evaluate`` is the
planner's counterpart: the public ``join`` run with no seeds and no reordering.
``brute_join`` is the counterpart of ``join`` itself: it tries every
assignment of the graph's terms to the variables and never calls ``match``.
"""

import itertools
import random

from soa_hitlcps.kb import TYPE_PRED, KnowledgeBase, Pattern, Var, integer, iri, string, term_sort_key
from soa_hitlcps.query import (
    And,
    Eq,
    InSet,
    Or,
    QueryAst,
    ResultTable,
    _check_names,
    _compile_filter,
    _filter_vars,
    join,
)


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


def random_kb(rng: random.Random, max_statements: int = 200) -> KnowledgeBase:
    kb = KnowledgeBase()
    classes = [iri(f"C{i}") for i in range(rng.randint(1, 5))]
    props = [iri(f"p{i}") for i in range(rng.randint(1, 6))]
    inds = [iri(f"i{i}") for i in range(rng.randint(2, 14))]
    for c in classes:
        kb.add_class(c)
    for p in props:
        kb.add_property(p, rng.choice(classes), rng.choice(classes))
    literals = [integer(1), integer(2), string("note")]
    n = rng.randint(0, max_statements)
    for _ in range(n):
        if rng.random() < 0.25:
            kb.add_type(rng.choice(inds), rng.choice(classes))
        else:
            obj = rng.choice(inds) if rng.random() < 0.85 else rng.choice(literals)
            kb.add_statement(rng.choice(inds), rng.choice(props), obj)
    return kb


def random_query(rng: random.Random, kb: KnowledgeBase) -> QueryAst:
    # in term order, so that one seed draws the same query under any hash seed
    triples = sorted(kb.triples(), key=lambda s: tuple(map(term_sort_key, s)))
    inds = sorted({s.subject for s in triples} | {iri(f"i{i}") for i in range(3)}, key=term_sort_key)
    classes = sorted(kb.class_decls, key=term_sort_key)
    props = sorted(kb.property_decls, key=term_sort_key)
    var_pool = ["s", "t", "u", "v"]
    n_patterns = rng.randint(1, 4)
    patterns = []
    used_vars = []

    def var():
        name = rng.choice(var_pool)
        if name not in used_vars:
            used_vars.append(name)
        return Var(name)

    for _ in range(n_patterns):
        if triples and rng.random() < 0.7:
            base = rng.choice(triples)  # seed from an existing triple so joins hit
            subject = var() if rng.random() < 0.6 else base.subject
            if base.predicate.local == "type" and rng.random() < 0.8:
                predicate = TYPE_PRED
            else:
                predicate = base.predicate if rng.random() < 0.8 else var()
            if rng.random() < 0.6 or not hasattr(base.object, "local"):
                obj = var()
            else:
                obj = base.object
        else:
            subject = var() if rng.random() < 0.7 else rng.choice(inds)
            roll = rng.random()
            if roll < 0.3 and classes:
                predicate = TYPE_PRED
            elif roll < 0.8 and props:
                predicate = rng.choice(props)
            else:
                predicate = var()
            if predicate == TYPE_PRED and classes:
                obj = var() if rng.random() < 0.5 else rng.choice(classes)
            else:
                obj = var() if rng.random() < 0.7 else rng.choice(inds)
        patterns.append(Pattern(subject, predicate, obj))
    if not used_vars:
        patterns[0] = Pattern(Var("s"), patterns[0].predicate, patterns[0].object)
        used_vars.append("s")
    k = rng.randint(1, len(used_vars))
    projected = tuple(rng.sample(used_vars, k))
    filt = None
    if rng.random() < 0.6:
        constants = inds + classes
        def one_cmp():
            v = rng.choice(used_vars)
            if rng.random() < 0.6:
                return Eq(v, rng.choice(constants))
            vals = tuple(rng.choice(constants) for _ in range(rng.randint(1, 3)))
            return InSet(v, vals)
        cmps = [one_cmp() for _ in range(rng.randint(1, 3))]
        if len(cmps) == 1:
            filt = cmps[0]
        elif rng.random() < 0.5:
            filt = And(tuple(cmps))
        else:
            filt = Or((cmps[0], And(tuple(cmps[1:])) if len(cmps) > 2 else cmps[1]))
    return QueryAst(projected, tuple(patterns), filt)


def _pattern_candidates(kb: KnowledgeBase, pattern: Pattern):
    out = []
    for stmt in kb.triples():
        binding = {}
        ok = True
        for term, value in (
            (pattern.subject, stmt.subject),
            (pattern.predicate, stmt.predicate),
            (pattern.object, stmt.object),
        ):
            if isinstance(term, Var):
                if term.name in binding and binding[term.name] != value:
                    ok = False
                    break
                binding[term.name] = value
            elif term != value:
                ok = False
                break
        if ok:
            out.append(binding)
    return out


def _filter_holds(expr, binding):
    if isinstance(expr, Eq):
        return binding[expr.var] == expr.value
    if isinstance(expr, InSet):
        return binding[expr.var] in expr.values
    if isinstance(expr, And):
        return all(_filter_holds(p, binding) for p in expr.parts)
    return any(_filter_holds(p, binding) for p in expr.parts)


def oracle_evaluate(kb: KnowledgeBase, ast: QueryAst, product_cap: int = 400_000):
    """Cross-product oracle; returns None when the product exceeds the cap."""
    candidate_lists = [_pattern_candidates(kb, p) for p in ast.patterns]
    size = 1
    for lst in candidate_lists:
        size *= len(lst)
        if size > product_cap:
            return None
    rows = set()
    for combo in itertools.product(*candidate_lists):
        merged = {}
        ok = True
        for binding in combo:
            for k, v in binding.items():
                if k in merged and merged[k] != v:
                    ok = False
                    break
                merged[k] = v
            if not ok:
                break
        if not ok:
            continue
        if ast.filter is not None and not _filter_holds(ast.filter, merged):
            continue
        rows.add(tuple(merged[v] for v in ast.projected))
    ordered = tuple(sorted(rows, key=lambda row: tuple(term_sort_key(v) for v in row)))
    return ResultTable(tuple(ast.projected), ordered)


def source_order_evaluate(kb: KnowledgeBase, ast: QueryAst) -> ResultTable:
    """``evaluate`` without a plan: one ``join`` from the empty binding, patterns in source order.

    Each conjunct of a top-level ``&&`` FILTER (or the whole FILTER) runs
    right after the pattern that binds the last of its variables.  This is
    the naive counterpart of the planned ``evaluate``.
    """
    _check_names(kb, ast)
    if ast.filter is None:
        conjuncts = ()
    else:
        conjuncts = ast.filter.parts if isinstance(ast.filter, And) else (ast.filter,)
    filters = [(_filter_vars(c), _compile_filter(c)) for c in conjuncts]
    rows = {tuple(b[v] for v in ast.projected) for b in join(kb, ast.patterns, {}, filters)}
    ordered = tuple(sorted(rows, key=lambda row: tuple(term_sort_key(v) for v in row)))
    return ResultTable(tuple(ast.projected), ordered)


def brute_join(kb: KnowledgeBase, patterns, binding: dict, filters=()) -> list:
    """Every full binding ``join(kb, patterns, binding, filters)`` returns, found by brute force.

    Each variable of ``patterns`` that ``binding`` leaves free takes every
    term of the graph in turn; an assignment is kept when every pattern,
    with its variables replaced, is a triple of the graph, and every filter
    test holds.  Each kept binding extends ``binding``.
    """
    triples = set(kb.triples())
    terms = sorted({term for triple in triples for term in triple}, key=term_sort_key)
    free = sorted({term.name for pattern in patterns
                   for term in (pattern.subject, pattern.predicate, pattern.object)
                   if isinstance(term, Var)} - set(binding))
    out = []
    for values in itertools.product(terms, repeat=len(free)):
        full = dict(binding)
        full.update(zip(free, values))

        def value(term):
            return full[term.name] if isinstance(term, Var) else term

        if all((value(p.subject), value(p.predicate), value(p.object)) in triples for p in patterns) \
                and all(test(full) for _, test in filters):
            out.append(full)
    return out


def run_randomized_comparison(n_cases: int, seed: int):
    """Draw random (kb, ast) cases until ``n_cases`` of them pass the cross-product oracle; return that count.

    Every drawn case also prints and reads back as itself, and the planned
    ``evaluate`` agrees with ``source_order_evaluate`` on it, even when its
    cross-product is too large for the oracle.
    """
    from soa_hitlcps.query import evaluate, format_query, parse_query

    rng = random.Random(seed)
    done = 0
    while done < n_cases:
        kb = random_kb(rng)
        ast = random_query(rng, kb)
        assert parse_query(format_query(ast)) == ast, f"case {done}: {format_query(ast)}"
        got = evaluate(kb, ast)
        assert got == source_order_evaluate(kb, ast), f"case {done}: {format_query(ast)}"
        expected = oracle_evaluate(kb, ast)
        if expected is None:
            continue  # cross-product too large; draw another case
        assert got == expected, f"case {done}: {ast} -> {got} != {expected}"
        done += 1
    return done
