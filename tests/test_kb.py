"""Knowledge-base core: parsing, matching, serialization round-trips."""

import random
from dataclasses import fields
from decimal import Decimal

import pytest

from soa_hitlcps import kb as kbm
from soa_hitlcps.errors import (
    CyclicSubclassError,
    DeclarationConflictError,
    ParseError,
    UnknownPrefixError,
)
from soa_hitlcps.kb import (
    ClassAxiom,
    Conjunction,
    Iri,
    KnowledgeBase,
    Literal,
    NamedClass,
    Pattern,
    SomeValues,
    Statement,
    TYPE_PRED,
    Var,
    decimal,
    integer,
    iri,
    parse_document,
    serialize,
    string,
)


def test_single_subclass_line():
    kb = parse_document("CLASS Human SUBCLASSOF PhysicalThing\n")
    assert iri("Human") in kb.class_decls
    assert iri("PhysicalThing") in kb.class_decls
    assert (iri("Human"), iri("PhysicalThing")) in kb.subclass_links


def test_property_and_fact_lines():
    kb = parse_document(
        "PROPERTY providedBy DOMAIN Service RANGE PhysicalThing\n"
        "INDIVIDUAL chatDoctor TYPE Service\n"
        "FACT chatDoctor providedBy David\n"
    )
    assert kb.property_decls[iri("providedBy")] == (iri("Service"), iri("PhysicalThing"))
    assert (iri("chatDoctor"), iri("Service")) in kb.type_assertions
    assert Statement(iri("chatDoctor"), iri("providedBy"), iri("David")) in kb.statements


def test_fact_with_undeclared_predicate_is_an_error():
    with pytest.raises(ParseError):
        parse_document("FACT a b c\n")


def test_literal_objects():
    kb = parse_document(
        "PROPERTY costValue DOMAIN QoS RANGE Property\n"
        'FACT q1 costValue 12.50\n'
        "FACT q1 costValue 3\n"
        'FACT q1 costValue "twelve"\n'
    )
    objects = {s.object for s in kb.statements}
    assert Literal("decimal", Decimal("12.50")) in objects
    assert Literal("integer", 3) in objects
    assert Literal("string", "twelve") in objects


def test_unterminated_string_literal_is_a_parse_error_at_its_column():
    declared = "PROPERTY p DOMAIN A RANGE B\n"
    for line, column in (('FACT a p "abc', 10), ('FACT a p "ab\\"', 10), ('FACT a p x"abc"', 11)):
        with pytest.raises(ParseError) as err:
            parse_document(declared + line + "\n")
        assert (err.value.line, err.value.column) == (2, column), line
    kb = parse_document(declared + 'FACT a p "a \\"quoted\\" # word"\n')
    assert {s.object for s in kb.statements} == {Literal("string", 'a "quoted" # word')}


def test_unknown_prefix_is_an_error():
    with pytest.raises(UnknownPrefixError):
        parse_document("CLASS foo:Thing\n")


def test_prefix_declaration_and_use():
    kb = parse_document("@prefix ex: http://example.org/\nCLASS ex:Widget\n")
    assert Iri("ex", "Widget") in kb.class_decls


def test_comments_and_blank_lines():
    kb = parse_document("# top comment\n\nCLASS Human  # trailing comment\n")
    assert iri("Human") in kb.class_decls


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_document("CLASS Human\nPROPERTY p DOMAIN A\n")
    assert err.value.line == 2
    assert err.value.expected == "RANGE"


@pytest.mark.parametrize("line, message", [
    # a word first read as a FACT object is still no name
    ("FACT 4 p x", "line 3, column 6: expected a name"),
    ("INDIVIDUAL 4 TYPE A", "line 3, column 12: expected a name"),
    ("FACT x p", "line 3, column 9: expected an object term"),
    ("FACT x p y z", "line 3, column 12: expected end of line"),
    ("INDIVIDUAL x ISA A", "line 3, column 14: expected TYPE"),
    ("INDIVIDUAL x TYPE", "line 3, column 18: expected a class name"),
    ("  FACT x q y", "line 3, column 3: expected fact uses undeclared property q"),
])
def test_fact_and_individual_lines_fail_at_the_word_at_fault(line, message):
    with pytest.raises(ParseError) as err:
        parse_document(f"PROPERTY p DOMAIN A RANGE B\nFACT x p 4\n{line}\n")
    assert str(err.value) == message


def test_cyclic_subclass_rejected():
    # the path is the first the depth-first walk from the new parent finds,
    # expanding each class's parents in term order: A -> C before A -> B
    cases = {
        "CLASS A SUBCLASSOF A\n": "A -> A",
        "CLASS A SUBCLASSOF B\nCLASS B SUBCLASSOF C\nCLASS C SUBCLASSOF A\n": "A -> B -> C -> A",
        "CLASS A SUBCLASSOF B\nCLASS A SUBCLASSOF C\nCLASS B SUBCLASSOF D\nCLASS C SUBCLASSOF D\n"
        "CLASS D SUBCLASSOF A\n": "A -> C -> D -> A",
        "CLASS A SUBCLASSOF C\nCLASS A SUBCLASSOF B\nCLASS C SUBCLASSOF E\nCLASS B SUBCLASSOF E\n"
        "CLASS E SUBCLASSOF F\nCLASS B SUBCLASSOF F\nCLASS F SUBCLASSOF A\n": "A -> C -> E -> F -> A",
    }
    for text, chain in cases.items():
        with pytest.raises(CyclicSubclassError) as err:
            parse_document(text)
        assert str(err.value) == f"cyclic subclass chain: {chain}"
        assert err.value.path == [iri(name) for name in chain.split(" -> ")]


def _naive_ancestors(links, cls) -> set:
    """The classes reached from ``cls`` by one or more links, grown to a fixpoint."""
    reached = {parent for child, parent in links if child == cls}
    while True:
        more = {parent for child, parent in links if child in reached} - reached
        if not more:
            return reached
        reached |= more


def _scanning_subclass_path(links, start, goal):
    """The depth-first walk of ``_subclass_path`` as it was, sorting and scanning every link."""
    if start == goal:
        return [start]
    links = sorted(links, key=lambda l: kbm.term_sort_key(l[1]))
    stack = [(start, [start])]
    visited = set()
    while stack:
        node, path = stack.pop()
        for child, parent in links:
            if child == node and parent not in visited:
                if parent == goal:
                    return path + [parent]
                visited.add(parent)
                stack.append((parent, path + [parent]))
    return None


@pytest.mark.parametrize("seed", range(20))
def test_ancestors_and_subclass_paths_match_their_oracles_on_random_dags(seed):
    rng = random.Random(seed)
    names = [iri(f"C{i}") for i in range(rng.randint(2, 30))] + [Iri("ex", "C")]
    rng.shuffle(names)
    kb = KnowledgeBase()
    for _ in range(rng.randint(0, 60)):  # a link from a later name to an earlier one keeps it acyclic
        i, j = sorted(rng.sample(range(len(names)), 2))
        kb.add_subclass(names[j], names[i])
    links = set(kb.subclass_links)
    closed = kbm.ancestors(links)
    assert set(closed) == {child for child, _ in links}
    for cls in names:
        assert closed.get(cls, set()) == kbm.ancestors(kb.subclass_links).get(cls, set()) == _naive_ancestors(links, cls)
        for goal in names:
            assert kb._subclass_path(cls, goal) == _scanning_subclass_path(links, cls, goal)
    for child, parent in (rng.sample(names, 2) for _ in range(10)):
        path = _scanning_subclass_path(links, parent, child)
        if path is not None:
            with pytest.raises(CyclicSubclassError) as err:
                kb.add_subclass(child, parent)
            assert err.value.path == path + [parent]
    assert kb.subclass_links == links


def test_closing_the_subclass_links_links_each_class_to_every_ancestor():
    kb = parse_document("CLASS A SUBCLASSOF B\nCLASS B SUBCLASSOF C\nCLASS D SUBCLASSOF C\n")
    kb.journal = []
    assert kb._subclass_path(iri("A"), iri("C")) == [iri("A"), iri("B"), iri("C")]  # builds the parent map
    above = kb.close_subclass_links()
    assert above == {iri("A"): {iri("B"), iri("C")}, iri("B"): {iri("C")}, iri("D"): {iri("C")}}
    assert kb.subclass_links == {(child, parent) for child in above for parent in above[child]}
    assert kb.journal is None  # a declaration: a follower of the graph rebuilds
    # the cycle check reads the closed links
    assert kb._subclass_path(iri("A"), iri("C")) == [iri("A"), iri("C")]
    with pytest.raises(CyclicSubclassError) as err:
        kb.add_subclass(iri("C"), iri("A"))
    assert str(err.value) == "cyclic subclass chain: A -> C -> A"


@pytest.mark.parametrize("seed", range(12))
def test_a_subclass_link_is_refused_exactly_when_it_closes_a_cycle_whatever_the_order(seed):
    """Links in random order, some closing cycles, with closings between them.

    A link is refused, with the ordered path, exactly when its parent
    already reaches its child, and the cycle check's order keeps every
    class before its parents.
    """
    rng = random.Random(seed)
    names = [iri(f"C{i}") for i in range(rng.randint(2, 25))]
    kb = KnowledgeBase()
    refused = 0
    for _ in range(80):
        child, parent = rng.choice(names), rng.choice(names)
        links = set(kb.subclass_links)
        path = _scanning_subclass_path(links, parent, child)
        if path is None:
            kb.add_subclass(child, parent)
        else:
            refused += 1
            with pytest.raises(CyclicSubclassError) as err:
                kb.add_subclass(child, parent)
            assert err.value.path == path + [parent] and kb.subclass_links == links
        if kb._order is not None:
            assert all(kb._order[c] < kb._order[p] for c, p in kb.subclass_links)
        if rng.random() < 0.05:
            kb.close_subclass_links()
    assert refused > 0


def test_a_closed_chain_reads_back_as_itself():
    closed = parse_document("".join(f"CLASS C{i} SUBCLASSOF C{i + 1}\n" for i in range(59)))
    closed.close_subclass_links()
    assert len(closed.subclass_links) == 60 * 59 // 2
    assert parse_document(serialize(closed)) == closed


def test_duplicate_declarations_idempotent():
    kb = parse_document("CLASS Human\nCLASS Human\nCLASS Human SUBCLASSOF PhysicalThing\nCLASS Human SUBCLASSOF PhysicalThing\n")
    assert len([c for c in kb.class_decls if c == iri("Human")]) == 1
    assert len(kb.subclass_links) == 1


def test_conflicting_property_redeclaration_rejected():
    with pytest.raises(DeclarationConflictError):
        parse_document("PROPERTY p DOMAIN A RANGE B\nPROPERTY p DOMAIN A RANGE C\n")


def test_axiom_parsing():
    kb = parse_document(
        "CLASS PhysicalThing\nCLASS HumanCapability\nCLASS Human\n"
        "PROPERTY hasCapability DOMAIN PhysicalThing RANGE Capability\n"
        "AXIOM ( PhysicalThing AND ( hasCapability SOME HumanCapability ) ) SUBCLASSOF Human\n"
    )
    assert list(kb.axioms) == [
        ClassAxiom(
            Conjunction((NamedClass(iri("PhysicalThing")), SomeValues(iri("hasCapability"), iri("HumanCapability")))),
            iri("Human"),
        )
    ]


def test_axiom_with_undeclared_property_rejected():
    with pytest.raises(ParseError):
        parse_document("CLASS A\nCLASS B\nAXIOM ( A AND ( p SOME B ) ) SUBCLASSOF B\n")


def test_meta_line_roundtrip():
    kb = parse_document("CLASS Human\nMETA Human +R +I +U\nMETA ServiceProvider ~R\n")
    ann = kb.annotations[iri("Human")]
    assert ann.flags() == ("+R", "+I", "+U")
    assert kb.annotations[iri("ServiceProvider")].rigidity == "~R"


def test_meta_conflicting_flags_rejected():
    with pytest.raises(DeclarationConflictError):
        parse_document("META X +R ~R\n")


def test_match_pattern_examples():
    kb = parse_document(
        "PROPERTY providedBy DOMAIN Service RANGE PhysicalThing\n"
        "INDIVIDUAL s1 TYPE Service\nINDIVIDUAL s2 TYPE Service\n"
        "FACT s1 providedBy David\nFACT s2 providedBy Sisy\n"
    )
    rows = kb.match(Pattern(Var("s"), iri("providedBy"), Var("p")))
    assert [(b["s"], b["p"]) for b in rows] == [
        (iri("s1"), iri("David")),
        (iri("s2"), iri("Sisy")),
    ]
    # fully constant pattern present in kb -> one empty binding
    assert kb.match(Pattern(iri("s1"), iri("providedBy"), iri("David"))) == [{}]
    # type assertions are matchable triples
    rows = kb.match(Pattern(Var("x"), TYPE_PRED, iri("Service")))
    assert [b["x"] for b in rows] == [iri("s1"), iri("s2")]


def test_match_pattern_repeated_variable():
    kb = KnowledgeBase()
    kb.add_property(iri("knows"), iri("Human"), iri("Human"))
    kb.add_statement(iri("a"), iri("knows"), iri("a"))
    kb.add_statement(iri("a"), iri("knows"), iri("b"))
    rows = kb.match(Pattern(Var("x"), iri("knows"), Var("x")))
    assert rows == [{"x": iri("a")}]


def _random_kb(rng: random.Random) -> KnowledgeBase:
    kb = KnowledgeBase()
    classes = [iri(f"C{i}") for i in range(rng.randint(1, 4))]
    props = [iri(f"p{i}") for i in range(rng.randint(1, 5))]
    inds = [iri(f"i{i}") for i in range(rng.randint(1, 10))]
    for c in classes:
        kb.add_class(c)
    for p in props:
        kb.add_property(p, rng.choice(classes), rng.choice(classes))
    literals = [integer(1), integer(7), decimal("2.5"), string("x")]
    for _ in range(rng.randint(0, 40)):
        if rng.random() < 0.3:
            kb.add_type(rng.choice(inds), rng.choice(classes))
        else:
            obj = rng.choice(inds + literals) if rng.random() < 0.8 else rng.choice(inds)
            kb.add_statement(rng.choice(inds), rng.choice(props), obj)
    return kb


def _oracle_match(kb: KnowledgeBase, pattern: Pattern):
    """Brute force: test the pattern against every triple independently."""
    out = []
    for stmt in kb.triples():
        binding = {}
        ok = True
        for term, value in ((pattern.subject, stmt.subject), (pattern.predicate, stmt.predicate), (pattern.object, stmt.object)):
            if isinstance(term, Var):
                if term.name in binding and binding[term.name] != value:
                    ok = False
                    break
                binding[term.name] = value
            elif term != value:
                ok = False
                break
        if ok and binding not in out:
            out.append(binding)
    out.sort(key=lambda b: tuple(kbm.term_sort_key(b[k]) for k in sorted(b)))
    return out


# Pattern shapes the oracle tests must draw: each count of variable
# positions, a repeated variable, a literal constant, and a constant absent
# from its position with no variable and with one.
MATCH_SHAPES = {"0 variables", "1 variables", "2 variables", "3 variables", "repeated variable",
                "literal constant", "absent constant, 0 variables", "absent constant, 1 variables"}


def _match_shapes(kb: KnowledgeBase, pattern: Pattern) -> set:
    terms = (pattern.subject, pattern.predicate, pattern.object)
    names = [term.name for term in terms if isinstance(term, Var)]
    shapes = {f"{len(names)} variables"}
    if len(set(names)) < len(names):
        shapes.add("repeated variable")
    constants = [(i, term) for i, term in enumerate(terms) if not isinstance(term, Var)]
    if any(isinstance(term, Literal) for _, term in constants):
        shapes.add("literal constant")
    if any(all(stmt[i] != term for stmt in kb.triples()) for i, term in constants):
        shapes.add(f"absent constant, {len(names)} variables")
    return shapes


def test_match_pattern_against_bruteforce_oracle():
    rng = random.Random(20240817)
    shapes = set()
    for _ in range(300):
        kb = _random_kb(rng)
        terms = list({t for s in kb.triples() for t in (s.subject, s.predicate, s.object)})
        if not terms:
            continue
        def pick_term():
            roll = rng.random()
            if roll < 0.5:
                return Var(rng.choice("xyz"))
            return rng.choice(terms)
        pattern = Pattern(pick_term(), pick_term(), pick_term())
        assert kb.match(pattern) == _oracle_match(kb, pattern)
        shapes |= _match_shapes(kb, pattern)
    assert MATCH_SHAPES <= shapes, MATCH_SHAPES - shapes


def _scan_types_of(kb: KnowledgeBase, individual: Iri) -> set:
    return {cls for ind, cls in kb.type_assertions if ind == individual}


def _scan_indexed(kb: KnowledgeBase, predicate) -> list:
    """The statements of the index ``match`` reads for ``predicate``, by a scan of the tables.

    A type assertion is filed as its statement in the type index, and a fact
    in the fact index; a variable predicate reads both.
    """
    types = [Statement(ind, TYPE_PRED, cls) for ind, cls in kb.type_assertions]
    if isinstance(predicate, Var):
        return types + list(kb.statements)
    return types if predicate == TYPE_PRED else list(kb.statements)


def _scan_individuals(kb: KnowledgeBase) -> set:
    return {s.subject for s in kb.triples()}


def _mutate(rng: random.Random, kb: KnowledgeBase, inds, props, classes, objects) -> None:
    roll = rng.random()
    if roll < 0.3:
        kb.add_statement(rng.choice(inds), rng.choice(props), rng.choice(objects))
    elif roll < 0.5:
        kb.add_type(rng.choice(inds), rng.choice(classes))
    elif roll < 0.75:
        present = sorted(kb.statements, key=str)
        if present and rng.random() < 0.8:
            s = rng.choice(present)
            kb.remove_statement(s.subject, s.predicate, s.object)
        else:
            kb.remove_statement(rng.choice(inds), rng.choice(props), rng.choice(objects))
    else:
        present = sorted(kb.type_assertions, key=str)
        if present and rng.random() < 0.8:
            kb.remove_type(*rng.choice(present))
        else:
            kb.remove_type(rng.choice(inds), rng.choice(classes))


def _assert_index_agrees_with_scan(rng: random.Random, kb: KnowledgeBase, vocabulary, shapes: set) -> None:
    """Reads through the indexes equal full scans; adds the shapes of the patterns drawn to ``shapes``."""
    for _ in range(4):
        pattern = Pattern(*(Var(rng.choice("xyz")) if rng.random() < 0.5 else rng.choice(vocabulary)
                            for _ in range(3)))
        assert kb.match(pattern) == _oracle_match(kb, pattern)
        shapes |= _match_shapes(kb, pattern)
        terms = (pattern.subject, pattern.predicate, pattern.object)
        indexed = _scan_indexed(kb, pattern.predicate)
        scanned = [sum(stmt[i] == term for stmt in indexed)
                   for i, term in enumerate(terms) if not isinstance(term, Var)]
        assert kb.estimate(terms) == min(scanned, default=len(indexed))
    for term in vocabulary:  # the fact index against a scan of statements
        assert kb.statements_about(term) == {s for s in kb.statements if s.subject == term}
        assert kb.statements_with(term) == {s for s in kb.statements if s.predicate == term}
        assert kb.statements_to(term) == {s for s in kb.statements if s.object == term}
        if isinstance(term, Iri):  # the type index against a scan of type_assertions
            assert kb.types_of(term) == _scan_types_of(kb, term)
            assert sorted(kb.instances(term)) == sorted(ind for ind, cls in kb.type_assertions if cls == term)
    assert kb.individuals() == _scan_individuals(kb)


@pytest.mark.parametrize("index_first", [True, False], ids=["index-built-first", "index-built-last"])
def test_index_agrees_with_scan_under_random_mutation(index_first):
    """Interleaved writes and copies on the original and its copies.

    With ``index_first`` every graph is read after every step, so writes and
    copies work on built indexes; otherwise nothing is read until the end and
    each index is built from the final state.
    """
    rng = random.Random(4021 if index_first else 4022)
    inds = [iri(f"i{i}") for i in range(8)]
    props = [iri(f"p{i}") for i in range(5)]
    classes = [iri(f"C{i}") for i in range(4)]
    objects = inds + [integer(1), integer(7), decimal("2.5"), string("x")]
    vocabulary = objects + props + classes + [TYPE_PRED]
    shapes = set()
    for _ in range(40):
        kb = _random_kb(rng)
        for prop in props:
            if prop not in kb.property_decls:
                kb.add_property(prop, classes[0], classes[-1])
        if index_first:
            _assert_index_agrees_with_scan(rng, kb, vocabulary, shapes)
        graphs = [kb]
        for _ in range(25):
            if rng.random() < 0.15:
                graphs.append(rng.choice(graphs).copy())
            else:
                _mutate(rng, rng.choice(graphs), inds, props, classes, objects)
            if index_first:
                for graph in graphs:
                    _assert_index_agrees_with_scan(rng, graph, vocabulary, shapes)
        for graph in graphs:
            _assert_index_agrees_with_scan(rng, graph, vocabulary, shapes)
    assert MATCH_SHAPES <= shapes, MATCH_SHAPES - shapes


def test_graphs_that_share_facts_agree_with_scans_under_random_writes():
    """Writes to a knowledge base and to the graphs that share its facts, each read after every step.

    Every graph shares one statements set and fact index, and each keeps its
    own type assertions and type index, which ``share_facts`` takes over
    from the graph it is called on.
    """
    rng = random.Random(4023)
    inds = [iri(f"i{i}") for i in range(8)]
    props = [iri(f"p{i}") for i in range(5)]
    classes = [iri(f"C{i}") for i in range(4)]
    objects = inds + [integer(1), integer(7), decimal("2.5"), string("x")]
    vocabulary = objects + props + classes + [TYPE_PRED]
    shapes, shared = set(), 0
    for _ in range(30):
        kb = _random_kb(rng)
        for prop in props:
            if prop not in kb.property_decls:
                kb.add_property(prop, classes[0], classes[-1])
        graphs = [kb]
        for _ in range(25):
            if rng.random() < 0.15:
                graphs.append(rng.choice(graphs).share_facts())
                shared += 1
            else:
                _mutate(rng, rng.choice(graphs), inds, props, classes, objects)
            for graph in graphs:
                assert graph.statements is kb.statements
                _assert_index_agrees_with_scan(rng, graph, vocabulary, shapes)
    assert shared > 0 and MATCH_SHAPES <= shapes, MATCH_SHAPES - shapes


def _random_full_kb(rng: random.Random) -> KnowledgeBase:
    kb = _random_kb(rng)
    classes = sorted(kb.class_decls, key=kbm.term_sort_key)
    for _ in range(rng.randint(0, 3)):
        child, parent = rng.choice(classes), rng.choice(classes)
        try:
            kb.add_subclass(child, parent)
        except CyclicSubclassError:
            pass
    if len(classes) >= 2 and rng.random() < 0.5:
        kb.add_disjoint(classes[0], classes[-1])
    props = sorted(kb.property_decls, key=kbm.term_sort_key)
    if props and rng.random() < 0.6:
        body = Conjunction((NamedClass(classes[0]), SomeValues(props[0], classes[-1])))
        kb.add_axiom(ClassAxiom(body, rng.choice(classes)))
    if rng.random() < 0.5:
        kb.add_annotation(kbm.annotation_from_flags(classes[0], ["+R", "+I", "+U"]))
    if rng.random() < 0.3:
        kb.add_prefix("ex", "http://example.org/")
    return kb


def test_parse_serialize_roundtrip_randomized():
    rng = random.Random(97)
    for _ in range(200):
        kb = _random_full_kb(rng)
        text = serialize(kb)
        again = parse_document(text)
        assert again == kb
        assert serialize(again) == text


def test_serialize_deterministic_bytes():
    rng1, rng2 = random.Random(5), random.Random(5)
    assert serialize(_random_full_kb(rng1)) == serialize(_random_full_kb(rng2))


def test_empty_kb_serializes_to_builtin_prefix_header():
    assert serialize(KnowledgeBase()) == "@prefix soa-hitlcps: http://soa-hitlcps.org/ontology#\n"


def test_decimal_literals_roundtrip_exactly():
    kb = KnowledgeBase()
    kb.add_property(iri("v"), iri("A"), iri("B"))
    kb.add_statement(iri("x"), iri("v"), decimal("4.50"))
    kb.add_statement(iri("x"), iri("v"), decimal("5"))
    again = parse_document(serialize(kb))
    assert again == kb


# -- tables, equality and copy ---------------------------------------------------------

TABLES_KB = (
    "CLASS A\nCLASS B\nCLASS C SUBCLASSOF A\nPROPERTY p DOMAIN A RANGE B\nDISJOINT B C\n"
    "AXIOM ( A AND ( p SOME B ) ) SUBCLASSOF C\nMETA A +R\nINDIVIDUAL x TYPE A\nFACT x p y\n"
)
# one write per table that changes that table alone
TABLE_WRITES = {
    "prefixes": lambda kb: kb.add_prefix("ex", "http://example.org/"),
    "class_decls": lambda kb: kb.add_class(iri("D")),
    "property_decls": lambda kb: kb.add_property(iri("q"), iri("A"), iri("A")),
    "subclass_links": lambda kb: kb.add_subclass(iri("B"), iri("A")),
    "disjoint_pairs": lambda kb: kb.add_disjoint(iri("A"), iri("B")),
    "axioms": lambda kb: kb.add_axiom(ClassAxiom(NamedClass(iri("B")), iri("A"))),
    "annotations": lambda kb: kb.add_annotation(kbm.annotation_from_flags(iri("B"), ["+I"])),
    "type_assertions": lambda kb: kb.add_type(iri("y"), iri("B")),
    "statements": lambda kb: kb.add_statement(iri("y"), iri("p"), iri("x")),
}
COMPARED = [f.name for f in fields(KnowledgeBase) if f.compare]


def test_a_kb_that_differs_in_one_table_compares_unequal():
    assert COMPARED == list(TABLE_WRITES)
    base = parse_document(TABLES_KB)
    for name, write in TABLE_WRITES.items():
        other = base.copy()
        assert other == base
        write(other)
        assert [f for f in COMPARED if getattr(other, f) != getattr(base, f)] == [name]
        assert other != base and base != other


def test_axioms_keep_document_order_and_compare_as_a_set():
    head = "CLASS A\nCLASS B\nCLASS C\nPROPERTY p DOMAIN A RANGE B\n"
    first, second = "AXIOM ( A AND B ) SUBCLASSOF C\n", "AXIOM ( p SOME B ) SUBCLASSOF A\n"
    one, two = parse_document(head + first + second), parse_document(head + second + first + first)
    assert list(one.axioms) == list(reversed(list(two.axioms))) and len(one.axioms) == 2
    assert one == two
    assert serialize(one) == serialize(two)


def test_a_disjointness_is_stored_once_as_its_pair_in_term_order():
    # term order is by prefix, then local name
    kb = parse_document("@prefix ex: http://example.org/\nDISJOINT B A\nDISJOINT A B\nDISJOINT Y ex:Z\n")
    assert kb.disjoint_pairs == {(iri("A"), iri("B")), (Iri("ex", "Z"), iri("Y"))}
    assert [line for line in serialize(kb).splitlines() if line.startswith("DISJOINT")] == [
        "DISJOINT ex:Z Y", "DISJOINT A B"]


def test_a_copy_shares_no_container_and_carries_no_journal():
    kb = parse_document(TABLES_KB)
    kb.match(Pattern(Var("s"), TYPE_PRED, iri("A")))  # builds the index, which is copied too
    kb.journal = journal = []
    before = serialize(kb), {name: getattr(kb, name).copy() for name in COMPARED}
    for name in COMPARED:
        copied = kb.copy()
        assert copied.journal is None and copied == kb
        getattr(copied, name).clear()
        assert (serialize(kb), {name: getattr(kb, name) for name in COMPARED}) == before
    # the index is copied bucket by bucket: writes to the copy leave the original's alone
    copied = kb.copy()
    copied.add_statement(iri("z"), iri("p"), iri("x"))
    copied.remove_type(iri("x"), iri("A"))
    assert kb.statements_to(iri("x")) == set() and kb.types_of(iri("x")) == {iri("A")}
    assert copied.statements_to(iri("x")) == {Statement(iri("z"), iri("p"), iri("x"))} and not copied.types_of(iri("x"))
    assert journal == []


# -- term identity ------------------------------------------------------------------


def test_iri_never_equals_a_literal_var_or_pattern():
    for prefix, local in (("string", "x"), ("integer", "7"), (kbm.DEFAULT_PREFIX, "a")):
        name = Iri(prefix, local)
        others = (Literal(prefix, local), Var(local), Var(prefix), Pattern(name, name, name))
        for other in others:
            assert name != other and other != name
            assert other not in {name} and name not in {other}


def test_statement_never_equals_a_pattern_of_the_same_constants():
    a, p = iri("a"), iri("p")
    for obj in (iri("b"), Literal("string", "b"), Literal("integer", 3)):
        stmt, pattern = Statement(a, p, obj), Pattern(a, p, obj)
        assert stmt != pattern and pattern != stmt
        assert pattern not in {stmt} and stmt not in {pattern}


def test_iris_sort_by_prefix_then_local_as_term_sort_key_does():
    rng = random.Random(8101)
    names = [Iri(rng.choice(("ex", "soa-hitlcps", "a", "string")), rng.choice(("x", "Y", "b1", "_z", "a.b")))
             for _ in range(200)]
    assert sorted(names) == sorted(names, key=kbm.term_sort_key)
    assert sorted(names) == sorted(names, key=lambda n: (n.prefix, n.local))


def test_term_str_and_repr_are_unchanged():
    a, b = iri("a"), Iri("ex", "b")
    assert (str(a), str(b)) == ("a", "ex:b")
    assert repr(b) == "Iri(prefix='ex', local='b')"
    stmt = Statement(a, iri("p"), string('say "hi"'))
    assert str(stmt) == 'a p "say \\"hi\\""'
    assert repr(stmt) == (
        "Statement(subject=Iri(prefix='soa-hitlcps', local='a'), "
        "predicate=Iri(prefix='soa-hitlcps', local='p'), "
        "object=Literal(kind='string', value='say \"hi\"'))"
    )
    assert (str(integer(7)), str(decimal("4.50")), str(decimal("5"))) == ("7", "4.50", "5.0")
    assert repr(decimal("4.50")) == "Literal(kind='decimal', value=Decimal('4.50'))"


def test_an_iri_and_a_literal_with_the_same_fields_are_two_statements():
    kb = parse_document(
        "@prefix string: http://example.org/string#\n"
        "PROPERTY p DOMAIN A RANGE B\n"
        "INDIVIDUAL a TYPE A\n"
        "FACT a p string:x\n"
        'FACT a p "x"\n'
    )
    a, p = iri("a"), iri("p")
    both = [Iri("string", "x"), Literal("string", "x")]
    assert kb.statements == {Statement(a, p, obj) for obj in both}
    assert kb.match(Pattern(a, p, Var("o"))) == [{"o": obj} for obj in both]
    for obj in both:
        assert kb.match(Pattern(a, p, obj)) == [{}]
        assert kb.match(Pattern(Var("s"), p, obj)) == [{"s": a}]
    assert parse_document(serialize(kb)) == kb
    for term in (a, Iri("string", "x")):
        assert kb.statements_about(term) == {s for s in kb.statements if s.subject == term}  # facts only
        assert kb.types_of(term) == _scan_types_of(kb, term)
    assert kb.types_of(a) == {iri("A")}


def test_journal_records_each_successful_write_while_armed():
    kb = parse_document("CLASS A\nPROPERTY p DOMAIN A RANGE A\nMETA A +R\n")
    assert kb.journal is None  # loading leaves it unarmed
    kb.journal = journal = []
    x, y, a, b, p = iri("x"), iri("y"), iri("A"), iri("B"), iri("p")
    kb.add_type(x, a)
    kb.add_statement(x, TYPE_PRED, b)  # one entry, the statement the index files
    kb.add_statement(x, p, y)
    with pytest.raises(DeclarationConflictError):
        kb.add_statement(x, iri("q"), y)  # an undeclared property edits nothing
    kb.remove_statement(x, p, y)
    kb.remove_type(x, a)
    edits = [
        (True, Statement(x, TYPE_PRED, a)),
        (True, Statement(x, TYPE_PRED, b)),
        (True, Statement(x, p, y)),
        (False, Statement(x, p, y)),
        (False, Statement(x, TYPE_PRED, a)),
    ]
    assert journal == edits
    # a declaration that raises changes nothing, the journal included
    before = kb.copy()
    for declare in (
        lambda: kb.add_prefix(kbm.DEFAULT_PREFIX, "http://example.org/other#"),
        lambda: kb.add_subclass(a, a),
        lambda: kb.add_property(p, b, a),
        lambda: kb.add_axiom(ClassAxiom(NamedClass(iri("Undeclared")), a)),
        lambda: kb.add_annotation(kbm.MetaAnnotation(a, rigidity="~R")),
    ):
        with pytest.raises((CyclicSubclassError, DeclarationConflictError)):
            declare()
        assert kb.journal is journal and journal == edits and kb == before
    # each one that succeeds disarms it, a redeclaration of what is held too
    for declare in (
        lambda: kb.add_prefix("ex", "http://example.org/"),
        lambda: kb.add_class(b),
        lambda: kb.add_subclass(b, a),
        lambda: kb.add_property(p, a, a),
        lambda: kb.add_disjoint(a, iri("C")),
        lambda: kb.add_axiom(ClassAxiom(NamedClass(b), a)),
        lambda: kb.add_annotation(kbm.MetaAnnotation(a, rigidity="+R")),
    ):
        kb.journal = journal = []
        declare()
        assert kb.journal is None and journal == []
    kb.journal = journal = []
    copied = kb.copy()
    assert copied.journal is None and copied == kb
    copied.add_type(y, a)
    assert journal == []
    # the matcher also takes a pattern's terms as a tuple
    assert kb.match((Var("s"), TYPE_PRED, b)) == kb.match(Pattern(Var("s"), TYPE_PRED, b)) == [{"s": x}]


def test_remove_statement_of_a_type_removes_it_as_add_statement_adds_it():
    kb = parse_document("CLASS A\n")
    kb.journal = journal = []
    x, a = iri("x"), iri("A")
    kb.add_statement(x, TYPE_PRED, a)
    assert kb.match(Pattern(x, TYPE_PRED, Var("c"))) == [{"c": a}]
    kb.remove_statement(x, TYPE_PRED, a)
    assert (x, a) not in kb.type_assertions
    assert kb.match(Pattern(x, TYPE_PRED, Var("c"))) == []
    assert kb.types_of(x) == set()
    # journaled as the statements the index files, as add_type and remove_type journal them
    kb.add_type(x, a)
    kb.remove_type(x, a)
    assert journal == [(True, Statement(x, TYPE_PRED, a)), (False, Statement(x, TYPE_PRED, a))] * 2


# -- the one lexical rule for names and numbers -----------------------------------------


def test_parse_name_checks_the_prefix_then_the_local_name():
    assert kbm.parse_name("Human") == iri("Human")
    assert kbm.parse_name("zz:A.b-c_1") == Iri("zz", "A.b-c_1")  # no table: resolved by the reader
    with pytest.raises(UnknownPrefixError):
        kbm.parse_name("zz:A", kbm.BUILTIN_PREFIXES)
    assert kbm.parse_name("Version1.2") == iri("Version1.2")
    for bad in ("", "9A", "-A", ".A", "Head/Discomfort", "Café", "A\n", "zz:", "zz:9", "End.", "a..b", "zz:a."):
        with pytest.raises(ParseError) as err:
            kbm.parse_name(bad, None, 4, 7)
        assert (err.value.line, err.value.column, err.value.expected) == (4, 7, "a name"), bad


@pytest.mark.parametrize("name", ["End.", "a..b"])
def test_a_name_ending_in_a_dot_or_holding_two_fails_the_document(name):
    with pytest.raises(ParseError) as err:
        parse_document(f"CLASS {name}\n")
    assert (err.value.line, err.value.column, err.value.expected) == (1, 7, "a name")


def test_numbers_take_the_kb_literal_forms_only():
    assert kbm.parse_integer("-12") == -12
    assert kbm.parse_decimal("4") == Decimal("4")
    assert kbm.parse_decimal("-0.50") == Decimal("-0.50")
    for bad in ("", "+1", "1e2", "1E+2", ".5", "5.", "1_0", "٣", "²", "Infinity", "NaN", " 1", "1\n"):
        with pytest.raises(ParseError, match="an integer"):
            kbm.parse_integer(bad)
        with pytest.raises(ParseError, match="a decimal"):
            kbm.parse_decimal(bad)
    with pytest.raises(ParseError, match="an integer"):
        kbm.parse_integer("4.5")


def test_an_integer_too_long_to_convert_is_a_parse_error():
    digits = "1" * 5000  # past the interpreter's default digit limit for int()
    with pytest.raises(ParseError) as err:
        parse_document(f"PROPERTY p DOMAIN A RANGE A\nFACT x p {digits}\n")
    assert (err.value.line, err.value.column) == (2, 10)
    assert kbm.parse_decimal(digits) == Decimal(digits)


def test_nested_conjunction_in_first_position_parses_and_roundtrips():
    text = "CLASS A\nCLASS B\nCLASS C\nCLASS D\nAXIOM ( ( A AND B ) AND C ) SUBCLASSOF D\n"
    kb = parse_document(text)
    inner = Conjunction((NamedClass(iri("A")), NamedClass(iri("B"))))
    assert list(kb.axioms) == [ClassAxiom(Conjunction((inner, NamedClass(iri("C")))), iri("D"))]
    assert parse_document(serialize(kb)) == kb
