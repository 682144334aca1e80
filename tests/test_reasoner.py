"""Materialization, consistency and OntoClean checking."""

import random

import pytest

from soa_hitlcps import reasoner
from soa_hitlcps.errors import CyclicSubclassError, UnannotatedClassError
from soa_hitlcps.kb import (
    ClassAxiom,
    Conjunction,
    KnowledgeBase,
    NamedClass,
    Pattern,
    SomeValues,
    TYPE_PRED,
    Var,
    iri,
    parse_document,
)
from soa_hitlcps.reasoner import (
    OntocleanViolation,
    axiom_inference_check,
    check_consistency,
    check_ontoclean,
    materialize,
    refresh,
    render_report,
)


AXIOM_KB = """
CLASS Human SUBCLASSOF PhysicalThing
CLASS HumanCapability SUBCLASSOF Capability
CLASS HumanService
CLASS Service
PROPERTY hasCapability DOMAIN PhysicalThing RANGE Capability
PROPERTY providedBy DOMAIN Service RANGE PhysicalThing
AXIOM ( PhysicalThing AND ( hasCapability SOME HumanCapability ) ) SUBCLASSOF Human
AXIOM ( Service AND ( providedBy SOME Human ) ) SUBCLASSOF HumanService
"""


def test_axiom_inference_human_and_humanservice():
    kb = parse_document(AXIOM_KB)
    kb = parse_document(
        "INDIVIDUAL David TYPE PhysicalThing\n"
        "INDIVIDUAL davidCapability TYPE HumanCapability\n"
        "FACT David hasCapability davidCapability\n"
        "INDIVIDUAL chatDoctor TYPE Service\n"
        "FACT chatDoctor providedBy David\n",
        base=kb,
    )
    assert (iri("David"), iri("Human")) not in kb.type_assertions
    m = materialize(kb)
    assert (iri("David"), iri("Human")) in m.type_assertions
    assert (iri("chatDoctor"), iri("HumanService")) in m.type_assertions
    # the original kb is untouched
    assert (iri("David"), iri("Human")) not in kb.type_assertions


def test_materialize_idempotent_and_monotone():
    kb = parse_document(AXIOM_KB + "INDIVIDUAL x TYPE Human\n")
    once = materialize(kb)
    twice = materialize(once)
    assert once == twice
    assert kb.type_assertions <= once.type_assertions
    assert kb.statements <= once.statements


def test_subclass_transitivity_materialized():
    kb = parse_document("CLASS A SUBCLASSOF B\nCLASS B SUBCLASSOF C\nINDIVIDUAL x TYPE A\n")
    m = materialize(kb)
    assert (iri("A"), iri("C")) in m.subclass_links
    assert (iri("x"), iri("C")) in m.type_assertions


def _naive_materialize(kb: KnowledgeBase) -> KnowledgeBase:
    """Exhaustive rule application with no worklist or shortcuts."""
    out = kb.copy()
    while True:
        before = (set(out.type_assertions), set(out.subclass_links))
        for (a, b) in list(out.subclass_links):
            for (c, d) in list(out.subclass_links):
                if b == c:
                    out.subclass_links.add((a, d))
        for (ind, cls) in list(out.type_assertions):
            for (child, parent) in list(out.subclass_links):
                if child == cls:
                    out.type_assertions.add((ind, parent))
        universe = {s.subject for s in out.statements} | {i for i, _ in out.type_assertions}
        for ax in out.axioms:
            for ind in universe:
                if _naive_satisfies(out, ind, ax.body):
                    out.type_assertions.add((ind, ax.head))
        if (set(out.type_assertions), set(out.subclass_links)) == before:
            return out


def _naive_satisfies(kb, ind, expr):
    if isinstance(expr, NamedClass):
        return (ind, expr.iri) in kb.type_assertions
    if isinstance(expr, SomeValues):
        return any(
            s.subject == ind
            and s.predicate == expr.prop
            and (s.object, expr.filler) in kb.type_assertions
            for s in kb.statements
        )
    return all(_naive_satisfies(kb, ind, p) for p in expr.parts)


# The shapes of axiom body the random knowledge bases draw, one per way
# ``reasoner._seeds`` reads a body's seeds from the index.
BODY_KINDS = ("class", "class AND some", "some", "some AND class", "nested")


def _random_body(rng, anchor, fillers, props):
    """A random body of a random kind that mentions the class ``anchor``."""
    named, some = NamedClass(anchor), SomeValues(rng.choice(props), rng.choice(fillers))
    return {
        "class": named,
        "class AND some": Conjunction((named, some)),
        "some": SomeValues(rng.choice(props), anchor),
        "some AND class": Conjunction((some, named)),
        "nested": Conjunction((some, Conjunction((named, SomeValues(rng.choice(props), rng.choice(fillers)))))),
    }[rng.choice(BODY_KINDS)]


def _body_kinds(kb: KnowledgeBase) -> set:
    kinds = set()
    for body in (axiom.body for axiom in kb.axioms):
        if not isinstance(body, Conjunction):
            kinds.add("class" if isinstance(body, NamedClass) else "some")
        elif any(isinstance(part, Conjunction) for part in body.parts):
            kinds.add("nested")
        else:
            kinds.add("some AND class" if isinstance(body.parts[0], SomeValues) else "class AND some")
    return kinds


def test_materialize_matches_naive_oracle_randomized():
    rng = random.Random(3021)
    kinds = set()
    for _ in range(120):
        kb = KnowledgeBase()
        classes = [iri(f"C{i}") for i in range(rng.randint(2, 6))]
        props = [iri(f"p{i}") for i in range(rng.randint(1, 3))]
        inds = [iri(f"i{i}") for i in range(rng.randint(1, 8))]
        for c in classes:
            kb.add_class(c)
        for p in props:
            kb.add_property(p, classes[0], classes[-1])
        for _ in range(rng.randint(0, 4)):
            try:
                kb.add_subclass(rng.choice(classes), rng.choice(classes))
            except Exception:
                pass
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.5:
                kb.add_type(rng.choice(inds), rng.choice(classes))
            else:
                kb.add_statement(rng.choice(inds), rng.choice(props), rng.choice(inds))
        for _ in range(rng.randint(0, 2)):
            kb.add_axiom(ClassAxiom(_random_body(rng, rng.choice(classes), classes, props), rng.choice(classes)))
        kinds |= _body_kinds(kb)
        assert materialize(kb) == _naive_materialize(kb)
    assert kinds == set(BODY_KINDS)


def test_materialize_tests_each_individual_once_when_one_axiom_fires_once(monkeypatch):
    # Semi-naive rounds: the second tests only the one individual that
    # gained a type, and no round is spent confirming the fixpoint.
    n = 40
    kb = parse_document(
        "CLASS Human SUBCLASSOF PhysicalThing\n"
        "CLASS HumanCapability\n"
        "PROPERTY hasCapability DOMAIN PhysicalThing RANGE HumanCapability\n"
        "AXIOM ( PhysicalThing AND ( hasCapability SOME HumanCapability ) ) SUBCLASSOF Human\n"
        "INDIVIDUAL skill TYPE HumanCapability\n"
        + "".join(f"INDIVIDUAL x{i} TYPE PhysicalThing\n" for i in range(n - 1))
        + "FACT x0 hasCapability skill\n"
    )
    (body,) = [axiom.body for axiom in kb.axioms]
    asked = []
    satisfies = reasoner._satisfies
    monkeypatch.setattr(reasoner, "_satisfies", lambda kb, individual, expr: (
        (expr is body and asked.append(individual)) or satisfies(kb, individual, expr)))
    closed = materialize(kb)
    assert len(kb.individuals()) == n
    assert {i for i, c in closed.type_assertions if c == iri("Human")} == {iri("x0")}
    assert closed == _naive_materialize(kb)
    # the first round tests only the seeds: x0 is the one hasCapability subject
    assert len(asked) <= 3


def test_an_individual_typed_only_by_a_subclass_is_a_seed_of_its_ancestor(monkeypatch):
    # h is a PhysicalThing only through inheritance, and the PhysicalThing
    # seeds are the smaller part of the body, so the seeds must be read
    # after type inheritance for h to be tested at all
    kb = parse_document(
        "CLASS Human SUBCLASSOF PhysicalThing\n"
        "CLASS HumanCapability\nCLASS Robot\nCLASS Skilled\n"
        "PROPERTY hasCapability DOMAIN PhysicalThing RANGE HumanCapability\n"
        "AXIOM ( PhysicalThing AND ( hasCapability SOME HumanCapability ) ) SUBCLASSOF Skilled\n"
        "INDIVIDUAL skill TYPE HumanCapability\n"
        "INDIVIDUAL h TYPE Human\nFACT h hasCapability skill\n"
        + "".join(f"INDIVIDUAL r{i} TYPE Robot\nFACT r{i} hasCapability skill\n" for i in range(5))
    )
    (body,) = [axiom.body for axiom in kb.axioms]
    asked = []
    satisfies = reasoner._satisfies
    monkeypatch.setattr(reasoner, "_satisfies", lambda kb, individual, expr: (
        (expr is body and asked.append(individual)) or satisfies(kb, individual, expr)))
    closed = materialize(kb)
    assert {i for i, c in closed.type_assertions if c == iri("Skilled")} == {iri("h")}
    assert closed == _naive_materialize(kb)
    assert asked == [iri("h")]


def test_seeds_of_each_body_kind():
    kb = materialize(parse_document(
        "CLASS Human SUBCLASSOF PhysicalThing\nCLASS HumanCapability\n"
        "PROPERTY hasCapability DOMAIN PhysicalThing RANGE HumanCapability\n"
        "INDIVIDUAL skill TYPE HumanCapability\nINDIVIDUAL h TYPE Human\n"
        "INDIVIDUAL p TYPE PhysicalThing\nFACT h hasCapability skill\n"
        "FACT r1 hasCapability skill\nFACT r2 hasCapability HumanCapability\n"
    ))
    named = NamedClass(iri("PhysicalThing"))
    some = SomeValues(iri("hasCapability"), iri("HumanCapability"))
    seeds = lambda expr: reasoner._seeds(kb, expr)
    # a class's instances, inherited ones included; not the subjects of a
    # fact whose object is the class
    assert seeds(named) == {iri("h"), iri("p")}
    assert seeds(NamedClass(iri("HumanCapability"))) == {iri("skill")}
    assert seeds(some) == {iri("h"), iri("r1"), iri("r2")}
    assert seeds(SomeValues(TYPE_PRED, iri("Human"))) == set()
    # a conjunction, however nested, takes its smallest part's seeds
    assert seeds(Conjunction((some, named))) == {iri("h"), iri("p")}
    assert seeds(Conjunction((some, Conjunction((named, NamedClass(iri("Human"))))))) == {iri("h")}
    assert seeds(Conjunction(())) == kb.individuals()


def test_an_axiom_follows_a_chain_of_quantified_facts_in_materialize_and_refresh():
    # each link of the chain gains the head only after the next one has: a
    # round must retest the subjects of the facts whose object gained a type
    n = 20
    kb = parse_document(
        "CLASS Node\nCLASS Marked\nPROPERTY next DOMAIN Node RANGE Node\n"
        "AXIOM ( Node AND ( next SOME Marked ) ) SUBCLASSOF Marked\n"
        + "".join(f"INDIVIDUAL x{i} TYPE Node\nFACT x{i} next x{i + 1}\n" for i in range(n))
    )
    marked = lambda closed: {i for i, c in closed.type_assertions if c == iri("Marked")}
    kb.journal = journal = []
    closed = materialize(kb)
    assert marked(closed) == set()
    for write in (kb.add_type, kb.remove_type, kb.add_type):
        write(iri(f"x{n}"), iri("Marked"))
        assert refresh(closed, kb, journal) is None and kb.journal is journal
        journal.clear()
        assert closed == materialize(kb) == _naive_materialize(kb)
        assert len(marked(closed)) in (0, n + 1)
    assert len(marked(closed)) == n + 1


def _chained_axiom_kb(rng) -> KnowledgeBase:
    """A random kb with a deep subclass chain and axioms that feed each other."""
    kb = KnowledgeBase()
    classes = [iri(f"C{i}") for i in range(rng.randint(6, 10))]
    props = [iri(f"p{i}") for i in range(rng.randint(1, 3))]
    inds = [iri(f"i{i}") for i in range(rng.randint(2, 8))]
    for c in classes:
        kb.add_class(c)
    for p in props:
        kb.add_property(p, classes[0], classes[-1])
    # a chain at least 3 links deep, then random extra links
    chain = rng.sample(classes, rng.randint(4, len(classes)))
    for child, parent in zip(chain, chain[1:]):
        kb.add_subclass(child, parent)
    for _ in range(rng.randint(0, 5)):
        try:
            kb.add_subclass(rng.choice(classes), rng.choice(classes))
        except CyclicSubclassError:
            pass
    for _ in range(rng.randint(2, 14)):
        if rng.random() < 0.4:
            kb.add_type(rng.choice(inds), rng.choice(classes))
        else:
            kb.add_statement(rng.choice(inds), rng.choice(props), rng.choice(inds))
    # heads sit low in the chain (they have superclasses) and feed the next
    # axiom's body; added in random order, so one pass over them is not enough
    heads = rng.sample(chain[:-1], min(3, len(chain) - 1))
    previous = rng.choice(classes)
    axioms = []
    for head in heads:
        axioms.append(ClassAxiom(_random_body(rng, previous, classes + heads, props), head))
        previous = head
    for axiom in rng.sample(axioms, len(axioms)):
        kb.add_axiom(axiom)
    return kb


def test_materialize_matches_naive_oracle_deep_chains_and_chained_axioms():
    rng = random.Random(4207)
    kinds = set()
    for _ in range(80):
        kb = _chained_axiom_kb(rng)
        kinds |= _body_kinds(kb)
        assert materialize(kb) == _naive_materialize(kb)
    assert kinds == set(BODY_KINDS)


def _removal_heavy_write(rng, kb: KnowledgeBase, closed: KnowledgeBase) -> str:
    """One write to ``kb``, over half of them removals; returns the method's name.

    A subclass link that would close a cycle is refused; the write then
    returns ``"cycle"``.
    """
    classes = sorted(kb.class_decls)
    props = sorted(kb.property_decls)
    inds = [iri(f"i{i}") for i in range(9)]
    roll = rng.random()
    if roll < 0.3:
        stmt = rng.choice(sorted(kb.statements)) if kb.statements else (inds[0], props[0], inds[1])
        kb.remove_statement(*stmt)
        return "remove_statement"
    if roll < 0.55:
        # mostly an asserted type; now and then one that is only inferred,
        # which the knowledge base does not hold but the closure must keep
        pool = sorted(kb.type_assertions if rng.random() < 0.75 else closed.type_assertions - kb.type_assertions)
        kb.remove_type(*(rng.choice(pool) if pool else (rng.choice(inds), rng.choice(classes))))
        return "remove_type"
    if roll < 0.72:
        kb.add_type(rng.choice(inds), rng.choice(classes))
        return "add_type"
    if roll < 0.9:
        kb.add_statement(rng.choice(inds), rng.choice(props), rng.choice(inds))
        return "add_statement"
    if roll < 0.94:
        # a fresh class may also close a cycle, which must leave no trace
        named = classes + [iri("Fresh")]
        try:
            kb.add_subclass(rng.choice(named), rng.choice(named))
        except CyclicSubclassError:
            return "cycle"
        return "add_subclass"
    if roll < 0.97:
        if kb.axioms and rng.random() < 0.5:
            axiom = rng.choice(list(kb.axioms))
        else:
            body = Conjunction((NamedClass(rng.choice(classes)), SomeValues(rng.choice(props), rng.choice(classes))))
            axiom = ClassAxiom(body, rng.choice(classes))
        kb.add_axiom(axiom)
        return "add_axiom"
    prop = rng.choice(props)
    kb.add_property(prop, *kb.property_decls[prop])
    return "add_property"


def _index_agrees(kb: KnowledgeBase) -> bool:
    """The match indexes hold exactly the knowledge base's triples."""
    triples = set(kb.triples())
    every = {(b["s"], b["p"], b["o"]) for b in kb.match(Pattern(Var("s"), Var("p"), Var("o")))}
    objects = {t.object for t in triples} | {iri(f"i{i}") for i in range(9)} | kb.class_decls
    by_object = {(b["s"], b["p"], o) for o in objects for b in kb.match(Pattern(Var("s"), Var("p"), o))}
    return every == triples == by_object


def test_refresh_matches_materialize_and_naive_under_removal_heavy_writes(monkeypatch):
    # A follower of each kb, as the broker is one: refresh after every write
    # while the journal is its list, re-arm and rebuild when it is not, and
    # compare with both from-scratch closures.  Each kb also declares a
    # property no axiom quantifies at first, so that some fact writes must
    # re-derive nothing.
    calls = []
    apply_axioms = reasoner._apply_axioms
    monkeypatch.setattr(reasoner, "_apply_axioms", lambda *args: calls.append(args) or apply_axioms(*args))
    rng = random.Random(9203)
    methods = []
    rebuilds = 0
    fact_refreshes = {True: 0, False: 0}  # re-derived anything -> count
    kinds = set()
    for _ in range(20):
        kb = _chained_axiom_kb(rng)
        kinds |= _body_kinds(kb)
        kb.add_property(iri("note"), iri("C0"), iri("C0"))
        kb.journal = journal = []
        closed = materialize(kb)
        for _ in range(200):
            method = _removal_heavy_write(rng, kb, closed)
            methods.append(method)
            if kb.journal is journal:
                before = len(calls)
                refresh(closed, kb, journal)
                if method.endswith("_statement"):
                    fact_refreshes[len(calls) > before] += 1
                journal.clear()
            else:
                kb.journal = journal = []
                closed = materialize(kb)
                rebuilds += 1
            assert closed == materialize(kb) == _naive_materialize(kb)
            assert _index_agrees(closed)
    removals = sum(m.startswith("remove_") for m in methods)
    assert removals * 2 >= len(methods)
    declarations = sum(m in ("add_subclass", "add_axiom", "add_property") for m in methods)
    assert {"add_subclass", "add_axiom", "add_property", "cycle"} <= set(methods)
    assert rebuilds == declarations > 0
    assert fact_refreshes[True] > 0 and fact_refreshes[False] > 0
    assert kinds == set(BODY_KINDS)


def test_disjointness_violation_direct_and_inherited():
    kb = parse_document(
        "CLASS Human SUBCLASSOF PhysicalThing\nCLASS Machine SUBCLASSOF PhysicalThing\n"
        "DISJOINT Human Machine\n"
        "CLASS Android SUBCLASSOF Machine\n"
        "INDIVIDUAL x TYPE Human\nINDIVIDUAL x TYPE Android\n"
    )
    report = check_consistency(kb)
    assert len(report.disjointness_violations) == 1
    v = report.disjointness_violations[0]
    assert (v.individual, v.first, v.second) == (iri("x"), iri("Human"), iri("Machine"))


def test_unsatisfiable_class_detected():
    kb = parse_document(
        "CLASS Human\nCLASS Machine\nDISJOINT Human Machine\n"
        "CLASS Cyborg SUBCLASSOF Human\nCLASS Cyborg SUBCLASSOF Machine\n"
    )
    report = check_consistency(kb)
    assert report.unsatisfiable_classes == [iri("Cyborg")]
    assert not report.disjointness_violations


def test_unsatisfiable_via_conjunction_axiom():
    kb = parse_document(
        "CLASS Human\nCLASS Machine\nCLASS Robot\nDISJOINT Human Machine\n"
        "AXIOM ( Robot ) SUBCLASSOF Machine\n"
        "CLASS Impossible SUBCLASSOF Human\nCLASS Impossible SUBCLASSOF Robot\n"
    )
    report = check_consistency(kb)
    assert iri("Impossible") in report.unsatisfiable_classes


def _random_unsatisfiability_kb(rng: random.Random) -> KnowledgeBase:
    """A small random kb in which subclass links and axioms can make classes unsatisfiable.

    Axiom bodies are named classes, conjunctions of them, flat or nested, or
    hold an existential.  The kb also holds an individual named like one of
    its classes, with a type and a fact, and a fact whose object is a class
    Iri: a fresh instance of a class must meet neither.
    """
    kb = KnowledgeBase()
    classes = [iri(f"C{i}") for i in range(rng.randint(3, 8))]
    prop = iri("p")
    for c in classes:
        kb.add_class(c)
    kb.add_property(prop, classes[0], classes[-1])
    for _ in range(rng.randint(0, 8)):
        try:
            kb.add_subclass(rng.choice(classes), rng.choice(classes))
        except CyclicSubclassError:
            pass
    for _ in range(rng.randint(1, 3)):
        kb.add_disjoint(*rng.sample(classes, 2))
    for _ in range(rng.randint(1, 4)):
        # the named parts are a class and some of its ancestors, so that a conjunction can fire
        anchor = rng.choice(classes)
        ancestors = sorted(kb.superclasses(anchor))
        named = [NamedClass(c) for c in (anchor, *rng.sample(ancestors, min(len(ancestors), 2)))]
        body = rng.choice((named[0], Conjunction(tuple(named)) if len(named) > 1 else named[0],
                           Conjunction((Conjunction(tuple(named[:2])), named[-1])),
                           SomeValues(prop, rng.choice(classes)),
                           Conjunction((named[0], SomeValues(prop, rng.choice(classes))))))
        kb.add_axiom(ClassAxiom(body, rng.choice(classes)))
    kb.add_type(iri("x"), rng.choice(classes))
    kb.add_statement(iri("x"), prop, rng.choice(classes))
    namesake = rng.choice(classes)
    kb.add_type(namesake, rng.choice(classes))
    kb.add_statement(namesake, prop, rng.choice(classes))
    return kb


def _witness_unsatisfiable(kb: KnowledgeBase) -> list:
    """The classes, sorted, whose fresh instance added to a copy of ``kb`` materializes into a disjoint pair."""
    witness, expected = iri("fresh_witness"), []
    for cls in sorted(kb.class_decls):
        scratch = kb.copy()
        scratch.add_type(witness, cls)
        types = materialize(scratch).types_of(witness)
        if any(a in types and b in types for a, b in kb.disjoint_pairs):
            expected.append(cls)
    return expected


def test_unsatisfiable_classes_are_those_whose_fresh_instance_materializes_into_a_disjoint_pair():
    rng, found = random.Random(2417), 0
    for _ in range(150):
        kb = _random_unsatisfiability_kb(rng)
        expected = _witness_unsatisfiable(kb)
        assert check_consistency(kb).unsatisfiable_classes == expected
        found += len(expected)
    assert found > 50


def test_consistent_kb_clean_report():
    kb = parse_document(AXIOM_KB)
    report = check_consistency(kb)
    assert report.is_consistent
    assert render_report(report) == "clean\n"


def test_ontoclean_clean_assignment():
    kb = parse_document(
        "CLASS Human SUBCLASSOF PhysicalThing\n"
        "META PhysicalThing +R +I +U\nMETA Human +R +I +U\n"
    )
    assert check_ontoclean(kb) == []


@pytest.mark.parametrize(
    "parent_flags,child_flags,expected_flag",
    [
        ("~R", "+R", "~R"),
        ("~U", "+U", "~U"),
        ("+I", "", "+I"),
        ("+U", "~U", "+U"),
    ],
)
def test_ontoclean_single_injected_defect(parent_flags, child_flags, expected_flag):
    text = "CLASS P SUBCLASSOF Q\nMETA Q {pf}\nMETA P {cf}\n".format(pf=parent_flags, cf=child_flags)
    kb = parse_document(text)
    violations = check_ontoclean(kb)
    assert violations == [OntocleanViolation(iri("P"), iri("Q"), expected_flag)]


def test_ontoclean_unannotated_class_is_error():
    kb = parse_document("CLASS A SUBCLASSOF B\nMETA B +R\n")
    with pytest.raises(UnannotatedClassError):
        check_ontoclean(kb)


def test_ontoclean_explicitly_unset_annotation_is_not_missing():
    kb = parse_document("CLASS A SUBCLASSOF B\nMETA B\nMETA A\n")
    assert check_ontoclean(kb) == []


def test_ontoclean_annotations_argument_overrides_kb():
    kb = parse_document("CLASS A SUBCLASSOF B\nMETA A ~R\nMETA B ~R\n")
    assert check_ontoclean(kb) == []
    kb = parse_document("CLASS A SUBCLASSOF B\nMETA A\nMETA B ~R\n")
    assert check_ontoclean(kb) == [OntocleanViolation(iri("A"), iri("B"), "~R")]


def test_axiom_inference_check_positive_and_negative():
    kb = parse_document(AXIOM_KB)
    assert all(axiom_inference_check(kb, ax) for ax in kb.axioms)
    empty = KnowledgeBase()
    empty.add_class(iri("A"))
    empty.add_class(iri("B"))
    # axiom not present in the kb: inference cannot happen
    assert not axiom_inference_check(empty, ClassAxiom(NamedClass(iri("A")), iri("B")))
