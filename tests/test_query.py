"""Query parsing, printing, and evaluation semantics."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import query_oracle
import soa_hitlcps
from soa_hitlcps.errors import (
    ParseError,
    UnboundFilterVarError,
    UnboundProjectionError,
    UnknownPrefixError,
)
from soa_hitlcps.kb import (
    DEFAULT_PREFIX,
    TYPE_PRED,
    Iri,
    KnowledgeBase,
    Pattern,
    iri,
    parse_document,
    parse_name,
    term_sort_key,
)
from soa_hitlcps.query import (
    And,
    Eq,
    InSet,
    Or,
    QueryAst,
    Var,
    _compile_filter,
    _filter_vars,
    evaluate,
    format_query,
    join,
    parse_query,
    query_equivalent,
)

DISCOVERY_QUERY = """
SELECT ?service
WHERE {
    ?service soa-hitlcps:presents ?serviceprofile .
    ?serviceprofile soa-hitlcps:hasProperty ?property .
    ?property soa-hitlcps:includeCapability ?capability .
    ?capability soa-hitlcps:hasHumanSkill ?skill .
    ?capability soa-hitlcps:hasHumanKnowledge ?knowledge
    FILTER (?skill=soa-hitlcps:Complex_Problem_Solving
    && ?knowledge IN (soa-hitlcps:Medicine_and_Dentistry,
    soa-hitlcps:Therapy_and_Counseling))
}
"""


def test_parse_discovery_query_shape():
    ast = parse_query(DISCOVERY_QUERY)
    assert ast.projected == ("service",)
    assert len(ast.patterns) == 5
    assert ast.patterns[0] == Pattern(Var("service"), iri("presents"), Var("serviceprofile"))
    assert isinstance(ast.filter, And)
    eq, inset = ast.filter.parts
    assert eq == Eq("skill", iri("Complex_Problem_Solving"))
    assert inset == InSet("knowledge", (iri("Medicine_and_Dentistry"), iri("Therapy_and_Counseling")))


PROFILE_KB = """
PROPERTY presents DOMAIN Service RANGE ServiceProfile
PROPERTY hasProperty DOMAIN ServiceProfile RANGE Property
PROPERTY includeCapability DOMAIN Property RANGE Capability
PROPERTY hasHumanSkill DOMAIN HumanCapability RANGE Skill
PROPERTY hasHumanKnowledge DOMAIN HumanCapability RANGE Knowledge
INDIVIDUAL chatDoctor TYPE Service
FACT chatDoctor presents chatDoctorProfile
FACT chatDoctorProfile hasProperty chatDoctorProps
FACT chatDoctorProps includeCapability davidCapability
FACT davidCapability hasHumanSkill Complex_Problem_Solving
FACT davidCapability hasHumanKnowledge Medicine_and_Dentistry
FACT davidCapability hasHumanKnowledge Therapy_and_Counseling
INDIVIDUAL translator TYPE Service
FACT translator presents translatorProfile
FACT translatorProfile hasProperty translatorProps
FACT translatorProps includeCapability bobCapability
FACT bobCapability hasHumanSkill Active_Listening
FACT bobCapability hasHumanKnowledge English_Language
"""


def test_discovery_query_selects_the_matching_service():
    kb = parse_document(PROFILE_KB)
    table = evaluate(kb, parse_query(DISCOVERY_QUERY))
    assert table.columns == ("service",)
    assert table.rows == ((iri("chatDoctor"),),)


def test_result_rows_deduplicated_and_sorted():
    kb = parse_document(PROFILE_KB)
    ast = parse_query("SELECT ?s WHERE { ?s presents ?p . ?s a Service }")
    table = evaluate(kb, ast)
    assert table.rows == ((iri("chatDoctor"),), (iri("translator"),))


def test_pattern_order_does_not_change_results():
    kb = parse_document(PROFILE_KB)
    base = parse_query(DISCOVERY_QUERY)
    import itertools
    import random

    rng = random.Random(11)
    perms = list(itertools.permutations(base.patterns))
    for perm in rng.sample(perms, 10):
        shuffled = QueryAst(base.projected, tuple(perm), base.filter)
        assert evaluate(kb, shuffled) == evaluate(kb, base)


def test_adding_or_alternative_is_monotone():
    kb = parse_document(PROFILE_KB)
    narrow = parse_query(
        "SELECT ?s WHERE { ?s presents ?p . ?p hasProperty ?pr . ?pr includeCapability ?c . "
        "?c hasHumanSkill ?sk FILTER (?sk=Complex_Problem_Solving) }"
    )
    wide = parse_query(
        "SELECT ?s WHERE { ?s presents ?p . ?p hasProperty ?pr . ?pr includeCapability ?c . "
        "?c hasHumanSkill ?sk FILTER (?sk=Complex_Problem_Solving || ?sk=Active_Listening) }"
    )
    narrow_rows = set(evaluate(kb, narrow).rows)
    wide_rows = set(evaluate(kb, wide).rows)
    assert narrow_rows <= wide_rows
    assert (iri("translator"),) in wide_rows


def test_unbound_projection_rejected():
    with pytest.raises(UnboundProjectionError):
        parse_query("SELECT ?x ?y WHERE { ?x a Service }")


def test_unbound_filter_var_rejected():
    with pytest.raises(UnboundFilterVarError):
        parse_query("SELECT ?x WHERE { ?x a Service FILTER (?bogus=Service) }")


def test_unknown_prefix_reported_at_evaluation_time():
    ast = parse_query("SELECT ?x WHERE { ?x nosuch:prop ?y }")
    with pytest.raises(UnknownPrefixError):
        evaluate(KnowledgeBase(), ast)


def test_unknown_filter_prefix_reported_without_any_row():
    ast = parse_query("SELECT ?x WHERE { ?x a Service FILTER (?x=nosuch:thing) }")
    with pytest.raises(UnknownPrefixError):
        evaluate(KnowledgeBase(), ast)


def test_prefix_resolution_uses_target_kb():
    kb = parse_document(
        "@prefix med: http://example.org/med#\n"
        "PROPERTY med:treats DOMAIN Human RANGE Human\n"
        "FACT med:doc med:treats med:patient\n"
    )
    ast = parse_query("SELECT ?d WHERE { ?d med:treats ?p }")
    table = evaluate(kb, ast)
    assert table.rows[0][0].prefix == "med"


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT ?x WHERE { ?x a }")
    assert err.value.line == 1


def test_format_parse_roundtrip():
    ast = parse_query(DISCOVERY_QUERY)
    assert parse_query(format_query(ast)) == ast
    simple = parse_query("SELECT ?x WHERE { ?x a Service . FILTER (?x=chatDoctor || ?x IN (a, b)) }")
    assert parse_query(format_query(simple)) == simple
    # the built-in local name `a` is printed with its prefix, so it does not read back as the type keyword
    for text in ("SELECT ?x WHERE { soa-hitlcps:a ?p ?x . ?x ?q soa-hitlcps:a }",
                 "SELECT ?x WHERE { ?x soa-hitlcps:type Service FILTER (?x IN (a, soa-hitlcps:type)) }"):
        ast = parse_query(text)
        assert parse_query(format_query(ast)) == ast, text
    assert format_query(parse_query("SELECT ?x WHERE { ?x soa-hitlcps:type a . ?x type ex:a }")) == \
        "SELECT ?x WHERE { ?x a a . ?x a ex:a . }"


def test_query_equivalence_modulo_pattern_order():
    a = parse_query(DISCOVERY_QUERY)
    b = parse_query(format_query(a))
    assert query_equivalent(a, b)
    patterns = tuple(reversed(a.patterns))
    assert query_equivalent(a, QueryAst(a.projected, patterns, a.filter))
    assert not query_equivalent(a, QueryAst(a.projected, a.patterns[:-1], a.filter))


def test_randomized_against_cross_product_oracle_small():
    query_oracle.run_randomized_comparison(150, seed=415)


def test_comments_are_skipped():
    commented = parse_query("# which humans\nSELECT ?x  # the projection\nWHERE { ?x a Human }  # done\n")
    assert commented == parse_query("SELECT ?x WHERE { ?x a Human }")


@pytest.mark.parametrize("first", ["?x a Human .", "?x a Human."])
def test_a_dot_alone_or_ending_a_name_ends_a_pattern(first):
    ast = parse_query(f"SELECT ?x WHERE {{ {first} ?x a Service }}")
    assert ast.patterns == (Pattern(Var("x"), TYPE_PRED, iri("Human")),
                            Pattern(Var("x"), TYPE_PRED, iri("Service")))


def test_a_name_may_hold_an_inner_dot():
    kb = parse_document("CLASS Version1.2\nINDIVIDUAL v1 TYPE Version1.2\nINDIVIDUAL v2 TYPE Human\n")
    ast = parse_query("SELECT ?x WHERE { ?x a Version1.2 . ?x a ?c FILTER (?c IN (Version1.2, ex:a.b)) }")
    assert ast.patterns[0] == Pattern(Var("x"), TYPE_PRED, iri("Version1.2"))
    assert ast.filter == InSet("c", (iri("Version1.2"), Iri("ex", "a.b")))
    assert parse_query(format_query(ast)) == ast
    assert evaluate(kb, parse_query("SELECT ?x WHERE { ?x a Version1.2 }")).rows == ((iri("v1"),),)


def test_names_follow_the_kb_rule():
    for bad in ("Café", "9B", "zz:9B", "zz:"):
        with pytest.raises(ParseError) as err:
            parse_query(f"SELECT ?x WHERE {{ ?x a {bad} }}")
        assert (err.value.column, err.value.expected) == (24, "a variable or prefixed name"), bad
        with pytest.raises(ParseError) as err:
            parse_query(f"SELECT ?x WHERE {{ ?x a Human FILTER (?x = {bad}) }}")
        assert err.value.expected == "a prefixed name", bad


# -- the planned join against source order ------------------------------------------


def test_planned_evaluation_matches_source_order_on_random_queries():
    rng = random.Random(20261018)
    over_cap = 0
    shapes = set()
    for case in range(600):
        if case % 3:
            kb = query_oracle.random_kb(rng)
            ast = query_oracle.random_query(rng, kb)
        else:
            # a larger graph, and the patterns of two queries in one
            kb = query_oracle.random_kb(rng, max_statements=800)
            ast, more = query_oracle.random_query(rng, kb), query_oracle.random_query(rng, kb)
            ast = QueryAst(ast.projected, ast.patterns + more.patterns, ast.filter)
        assert evaluate(kb, ast) == query_oracle.source_order_evaluate(kb, ast), f"case {case}: {format_query(ast)}"
        product = 1
        for pattern in ast.patterns:
            product *= len(query_oracle._pattern_candidates(kb, pattern))
        over_cap += product > 400_000
        shapes.add(type(ast.filter).__name__)
    assert over_cap >= 15  # cases the cross-product oracle cannot check
    assert shapes == {"NoneType", "Eq", "InSet", "And", "Or"}


def _join_case(rng: random.Random):
    """A random graph, patterns with their FILTER conjuncts as tests, and a start binding for ``join``."""
    kb = query_oracle.random_kb(rng, max_statements=rng.choice((0, 15, 40)))
    ast = query_oracle.random_query(rng, kb)
    patterns = list(ast.patterns)
    if ast.filter is None or rng.random() < 0.5:  # most filters leave no row
        conjuncts = ()
    else:
        conjuncts = ast.filter.parts if isinstance(ast.filter, And) else (ast.filter,)
    filters = [(_filter_vars(c), _compile_filter(c)) for c in conjuncts]
    names = sorted({name for p in patterns for name in p.variables()})
    terms = sorted({term for triple in kb.triples() for term in triple}, key=term_sort_key) or [iri("i0")]
    start = {}
    for name in names:
        if rng.random() < 0.15:  # pinned to a term of the graph, or to one it lacks
            start[name] = rng.choice(terms) if rng.random() < 0.9 else iri("nobody")
    if rng.random() < 0.3:  # a variable no pattern names rides along
        start["extra"] = rng.choice(terms)
    return kb, patterns, start, filters


def test_join_matches_a_brute_force_join_on_random_patterns():
    rng = random.Random(20261019)
    seen = Counter()
    checked = 0
    while checked < 500:
        kb, patterns, start, filters = _join_case(rng)
        n_terms = len({term for triple in kb.triples() for term in triple})
        free = {name for p in patterns for name in p.variables()} - set(start)
        if n_terms ** len(free) > 20_000:
            continue  # too many assignments to try; draw another case
        got = join(kb, patterns, start, filters)
        want = query_oracle.brute_join(kb, patterns, start, filters)
        assert Counter(frozenset(b.items()) for b in got) == Counter(frozenset(b.items()) for b in want), \
            f"case {checked}: {[str(p) for p in patterns]} from {start}"
        checked += 1
        seen["repeated in a pattern"] += any(len(p.variables()) > len(set(p.variables())) for p in patterns)
        seen["repeated across patterns"] += sum(len(set(p.variables())) for p in patterns) > len(
            {name for p in patterns for name in p.variables()})
        seen["constant"] += any(len(p.variables()) < 3 for p in patterns)
        seen["start binding"] += bool(start)
        seen["filter"] += bool(filters)
        seen["empty"] += not got
        seen["rows"] += bool(got)
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


REPLAY = """
import random, query_oracle
from soa_hitlcps.query import format_query
rng = random.Random(415)
for _ in range(40):
    print(format_query(query_oracle.random_query(rng, query_oracle.random_kb(rng))))
"""


def test_random_queries_replay_under_any_hash_seed():
    """One seed draws the same queries in every process, so a printed failing case can be replayed."""
    path = os.pathsep.join((str(Path(soa_hitlcps.__file__).parent.parent), str(Path(__file__).parent)))
    outputs = [
        subprocess.run([sys.executable, "-c", REPLAY], env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                       capture_output=True, text=True, check=True).stdout
        for seed in ("1", "777")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 40


PLAN_KB = """
PROPERTY knows DOMAIN Human RANGE Human
PROPERTY note DOMAIN Human RANGE Human
INDIVIDUAL ann TYPE Human
INDIVIDUAL bob TYPE Human
INDIVIDUAL cid TYPE Human
FACT ann knows bob
FACT bob knows cid
FACT cid knows ann
FACT ann note "a literal"
FACT bob note cid
"""


@pytest.mark.parametrize("text, rows", [
    # two equalities that disagree leave no seed, so no row
    ("SELECT ?x WHERE { ?x knows ?y FILTER (?x=ann && ?x=bob) }", ()),
    ("SELECT ?x WHERE { ?x knows ?y FILTER (?x=ann && ?x IN (bob, cid)) }", ()),
    # a repeated or narrowing equality pins one value
    ("SELECT ?x WHERE { ?x knows ?y FILTER (?x=ann && ?x=ann) }", (("ann",),)),
    ("SELECT ?x WHERE { ?x knows ?y FILTER (?x IN (ann, bob) && ?x=bob) }", (("bob",),)),
    # a duplicate value seeds once; a value absent from the graph seeds an empty join
    ("SELECT ?x ?y WHERE { ?x knows ?y FILTER (?x IN (cid, ann, cid, nobody)) }",
     (("ann", "bob"), ("cid", "ann"))),
    # an equality on a variable a pattern binds to a literal never holds there
    ("SELECT ?x ?o WHERE { ?x note ?o FILTER (?o=ann) }", ()),
    ("SELECT ?x ?o WHERE { ?x note ?o FILTER (?o IN (cid, ann)) }", (("bob", "cid"),)),
    # a top-level || stays a filter
    ("SELECT ?x WHERE { ?x knows ?y FILTER (?x=ann || ?y=ann) }", (("ann",), ("cid",))),
    ("SELECT ?x WHERE { ?x knows ?y . ?y knows ?z FILTER (?z=cid && ?x=ann || ?x=bob) }",
     (("ann",), ("bob",))),
])
def test_planned_evaluation_edge_cases(text, rows):
    kb = parse_document(PLAN_KB)
    ast = parse_query(text)
    table = evaluate(kb, ast)
    assert table == query_oracle.source_order_evaluate(kb, ast)
    assert tuple(tuple(str(term) for term in row) for row in table.rows) == rows


@pytest.mark.parametrize("filter_", [
    "?x=nosuch:a",
    "?x=ann && ?x=bob && ?y=nosuch:a",
    "?x IN (ann, nosuch:a)",
    "?x=ann || ?y=nosuch:a",
])
def test_unknown_filter_prefix_raises_even_when_no_row_can_match(filter_):
    kb = parse_document(PLAN_KB)
    ast = parse_query(f"SELECT ?x WHERE {{ ?x knows ?y . ?y a Nothing FILTER ({filter_}) }}")
    with pytest.raises(UnknownPrefixError):
        evaluate(kb, ast)
    with pytest.raises(UnknownPrefixError):
        query_oracle.source_order_evaluate(kb, ast)


def test_a_pattern_prefix_is_reported_before_a_filter_prefix():
    ast = parse_query("SELECT ?x WHERE { ?x pat:p ?y FILTER (?x=ann && ?x=bob && ?y=filt:a) }")
    with pytest.raises(UnknownPrefixError) as err:
        evaluate(parse_document(PLAN_KB), ast)
    assert err.value.name == "pat"


@pytest.mark.parametrize("name", ["Version1.2", "a.b.c", "End.", "a..b", ".a", "zz:a."])
def test_a_query_reads_exactly_the_names_a_graph_can_hold(name):
    try:
        parse_document(f"@prefix zz: http://example.org/zz#\nCLASS {name}\n")
        graph_holds = True
    except ParseError:
        graph_holds = False
    try:
        ast = parse_query(f"SELECT ?x WHERE {{ ?x a {name} }}")
        query_names = ast.patterns[0].object == iri(name)
    except ParseError:
        query_names = False
    assert graph_holds == query_names == (name in ("Version1.2", "a.b.c")), name


@pytest.mark.parametrize("name, error", [(Iri("zz:q", "Bar"), UnknownPrefixError("zz")),
                                         (Iri(DEFAULT_PREFIX, "Not a name"), ParseError(1, 1, "a name"))])
@pytest.mark.parametrize("place", ["pattern", "filter"])
def test_a_query_built_in_python_raises_what_the_print_of_its_name_reads_as(name, error, place):
    # the graph declares the prefix "zz:q", but the print "zz:q:Bar" reads as prefix "zz"
    kb = parse_document("@prefix zz:q: http://example.org/zzq#\n" + PLAN_KB)
    assert "zz:q" in kb.prefixes
    if place == "pattern":
        ast = QueryAst(("x",), (Pattern(Var("x"), iri("knows"), name),))
    else:
        ast = QueryAst(("x",), (Pattern(Var("x"), iri("knows"), Var("y")),), InSet("y", (iri("ann"), name)))
    for read in (lambda: parse_name(f"{name.prefix}:{name.local}", kb.prefixes),
                 lambda: evaluate(kb, ast), lambda: query_oracle.source_order_evaluate(kb, ast)):
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            read()
