"""Tests for the base ontology and the capability/profile file formats."""

from decimal import Decimal

import pytest

from soa_hitlcps.datafiles import base_kb_text
from soa_hitlcps.errors import InvalidProfileError, ParseError, UnknownPrefixError, UnknownTaxonomyTermError
from soa_hitlcps.kb import (
    Iri,
    Literal,
    Pattern,
    TYPE_PRED,
    Var,
    iri,
    parse_document,
    serialize,
    string,
)
from soa_hitlcps.reasoner import check_consistency, check_ontoclean, materialize
from soa_hitlcps.registry import ServiceRegistry
from soa_hitlcps.schema import (
    SERVICE_KINDS,
    Condition,
    HumanCapability,
    LocationAt,
    MaxDistance,
    QoS,
    ServiceProfile,
    TAXONOMY,
    TimeWindow,
    TypedParameter,
    base_ontology,
    capability_node,
    parse_flat_limitation,
    parse_flat_pattern,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
    profile_nodes,
    project_human,
    project_machine,
    project_profile,
    read_profile,
    render_pattern,
    retract_presentation,
    validate_profile,
)


@pytest.fixture(scope="module")
def base():
    return base_ontology()


# -- counts and structure ----------------------------------------------------


def test_base_counts(base):
    assert len(base.class_decls) == 46
    assert len(base.property_decls) == 45
    assert len(base.subclass_links) == 10
    # relation count used by the structural metric: properties + subclass links
    assert len(base.property_decls) + len(base.subclass_links) == 55


def test_core_vocabulary_present(base):
    for cls in ("Service", "ServiceProfile", "ProcessModel", "ServiceGrounding",
                "HumanCapability", "MachineCapability", "QoS", "Potential"):
        assert iri(cls) in base.class_decls
    for prop in ("presents", "describedBy", "supports", "providedBy",
                 "hasCapability", "includeQoS", "hasHumanSkill",
                 "hasLearnedKnowledge", "composedOf"):
        assert iri(prop) in base.property_decls
    assert base.property_decls[iri("presents")] == (iri("Service"), iri("ServiceProfile"))
    assert base.property_decls[iri("hasHumanSkill")] == (iri("HumanCapability"), iri("Skill"))


def test_service_type_tree(base):
    links = base.subclass_links
    assert (iri("SensingService"), iri("AtomicService")) in links
    assert (iri("ActuatingService"), iri("AtomicService")) in links
    assert (iri("CommunicatingService"), iri("AtomicService")) in links
    assert (iri("AdaptationService"), iri("CompositeService")) in links
    assert (iri("AtomicService"), iri("ServiceType")) in links
    assert (iri("CompositeService"), iri("ServiceType")) in links


def test_human_machine_disjoint(base):
    assert (iri("Human"), iri("Machine")) in base.disjoint_pairs


def test_base_is_clean(base):
    report = check_consistency(base)
    assert report.is_consistent
    assert check_ontoclean(base) == []


def test_base_serialization_round_trip(base):
    text = serialize(base)
    assert parse_document(text) == base
    assert serialize(base_ontology()) == text


def test_capability_axiom_inference(base):
    kb = base.copy()
    kb.add_type(iri("David"), iri("PhysicalThing"))
    node = capability_node(iri("David"))
    kb.add_type(node, iri("HumanCapability"))
    kb.add_statement(iri("David"), iri("hasCapability"), node)
    kb.add_type(iri("chatDoctor"), iri("Service"))
    kb.add_statement(iri("chatDoctor"), iri("providedBy"), iri("David"))
    closed = materialize(kb)
    assert iri("Human") in closed.types_of(iri("David"))
    assert iri("HumanService") in closed.types_of(iri("chatDoctor"))
    # nothing asserted those types directly
    assert iri("Human") not in kb.types_of(iri("David"))
    assert iri("HumanService") not in kb.types_of(iri("chatDoctor"))


# -- taxonomy ----------------------------------------------------------------


def test_taxonomy_sets_disjoint():
    tax = TAXONOMY
    groups = [set(tax.skills), set(tax.knowledge), set(tax.abilities),
              set(tax.performance_factors), set(tax.education_levels)]
    for i, left in enumerate(groups):
        for right in groups[i + 1:]:
            assert not left & right


def test_taxonomy_contents():
    tax = TAXONOMY
    assert iri("Complex_Problem_Solving") in tax.skills
    assert iri("Cardiac_output_CO_monitoring_units_or_accessories") in tax.skills
    assert iri("Medicine_and_Dentistry") in tax.knowledge
    assert iri("Therapy_and_Counseling") in tax.knowledge
    assert iri("Oral_Comprehension") in tax.abilities
    assert iri("Stress_Tolerance") in tax.performance_factors
    assert tax.education_levels[0] == iri("High_School_Diploma")
    assert tax.education_levels[-1] == iri("Doctoral_Degree")


def test_taxonomy_terms_typed_in_base(base):
    assert iri("Skill") in base.types_of(iri("Complex_Problem_Solving"))
    assert iri("Knowledge") in base.types_of(iri("Medicine_and_Dentistry"))
    assert iri("Ability") in base.types_of(iri("Oral_Comprehension"))
    assert iri("Education") in base.types_of(iri("Doctoral_Degree"))
    for cls, terms in (("Skill", TAXONOMY.skills), ("Knowledge", TAXONOMY.knowledge),
                       ("Ability", TAXONOMY.abilities), ("PerformanceFactor", TAXONOMY.performance_factors),
                       ("Education", TAXONOMY.education_levels)):
        assert set(terms) == {ind for ind, of in base.type_assertions if of == iri(cls)}, cls


def test_base_ontology_is_a_fresh_copy_of_the_shipped_file_on_every_call():
    first, second = base_ontology(), base_ontology()
    assert first == second == parse_document(base_kb_text())
    first.add_type(iri("Nia"), iri("Human"))
    first.add_property(iri("hasNote"), iri("PhysicalThing"), iri("PhysicalThing"))
    first.add_statement(iri("Nia"), iri("hasNote"), string("x"))
    assert second == base_ontology() == parse_document(base_kb_text())
    assert (iri("Nia"), iri("Human")) not in base_ontology().type_assertions


# -- capability files ---------------------------------------------------------

HUMAN_CAP = """\
# a physician profile
SKILL Complex_Problem_Solving 6
SKILL Active_Listening 5
KNOWLEDGE Medicine_and_Dentistry
KNOWLEDGE Therapy_and_Counseling
ABILITY Oral_Comprehension 5
PERFORMANCE Stress_Tolerance 6
EDUCATION Doctoral_Degree
PREFERENCE time evening
CONTEXT siteB
"""

MACHINE_CAP = """\
HARDWARE EcgSensorModule
SOFTWARE EcgFirmware
PROGRAMMED_SKILL Monitoring
LEARNED ClinicServices
CONTEXT siteA
"""


def test_parse_human_capability():
    cap, contexts = parse_human_capability(HUMAN_CAP)
    assert cap.skills[iri("Complex_Problem_Solving")] == 6
    assert iri("Therapy_and_Counseling") in cap.knowledge
    assert cap.abilities[iri("Oral_Comprehension")] == 5
    assert cap.performance_factors[iri("Stress_Tolerance")] == 6
    assert cap.education == iri("Doctoral_Degree")
    assert cap.preferences == {"time": "evening"}
    assert contexts == (iri("siteB"),)


def test_parse_human_capability_rejects_unknown_terms():
    with pytest.raises(UnknownTaxonomyTermError):
        parse_human_capability("SKILL Juggling 4\n")
    with pytest.raises(UnknownTaxonomyTermError):
        parse_human_capability("PREFERENCE mood cheerful\n")


def test_parse_human_capability_rejects_bad_scale():
    with pytest.raises(InvalidProfileError):
        parse_human_capability("SKILL Monitoring 9\n")
    with pytest.raises(InvalidProfileError):
        parse_human_capability("SKILL Monitoring 0\n")


def test_parse_human_capability_rejects_bad_directive():
    with pytest.raises(ParseError) as err:
        parse_human_capability("SKILL Monitoring 4\nGADGET x\n")
    assert err.value.line == 2


def test_parse_machine_capability():
    cap, contexts = parse_machine_capability(MACHINE_CAP)
    assert cap.hardware == (iri("EcgSensorModule"),)
    assert cap.software == (iri("EcgFirmware"),)
    assert cap.programmed_skills == frozenset({iri("Monitoring")})
    assert cap.learned_knowledge == [iri("ClinicServices")]
    assert contexts == (iri("siteA"),)


def test_parse_machine_capability_rejects_unknown_skill():
    with pytest.raises(UnknownTaxonomyTermError):
        parse_machine_capability("PROGRAMMED_SKILL Flying\n")


# -- the readers' line contracts: expected-lists, arity, which line counts ------

HUMAN_EXPECTED = "SKILL/KNOWLEDGE/ABILITY/PERFORMANCE/EDUCATION/PREFERENCE/CONTEXT"
MACHINE_EXPECTED = "HARDWARE/SOFTWARE/PROGRAMMED_SKILL/LEARNED/CONTEXT"
PROFILE_EXPECTED = "a profile directive"


def _parse_error(parse, text) -> str:
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


@pytest.mark.parametrize("line", [
    "GADGET x", "skill Monitoring 4", "SKILL", "SKILL Monitoring", "SKILL Monitoring 4 5",
    "ABILITY Oral_Comprehension", "ABILITY Oral_Comprehension 4 5", "PERFORMANCE Stress_Tolerance",
    "PERFORMANCE Stress_Tolerance 4 5", "KNOWLEDGE", "KNOWLEDGE Biology Psychology", "EDUCATION",
    "EDUCATION Bachelor_Degree Master_Degree", "PREFERENCE time", "PREFERENCE time evening late",
    "CONTEXT", "CONTEXT siteA siteB", "HARDWARE Box",
])
def test_a_human_capability_line_that_fits_no_keyword_gets_the_human_expected_list(line):
    text = f"SKILL Monitoring 4\n{line}\nKNOWLEDGE Biology\n"
    assert _parse_error(parse_human_capability, text) == f"line 2, column 1: expected {HUMAN_EXPECTED}"


@pytest.mark.parametrize("line", [
    "GADGET x", "hardware Box", "HARDWARE", "HARDWARE Box Case", "SOFTWARE", "SOFTWARE Fw Os",
    "PROGRAMMED_SKILL", "PROGRAMMED_SKILL Monitoring Critical_Thinking", "LEARNED", "LEARNED Biology Psychology",
    "CONTEXT", "CONTEXT siteA siteB", "SKILL Monitoring 4",
])
def test_a_machine_capability_line_that_fits_no_keyword_gets_the_machine_expected_list(line):
    text = f"HARDWARE Box\n{line}\nSOFTWARE Fw\n"
    assert _parse_error(parse_machine_capability, text) == f"line 2, column 1: expected {MACHINE_EXPECTED}"


@pytest.mark.parametrize("line", [
    "GADGET x", "service s", "SERVICE", "SERVICE s t", "PROVIDER", "PROVIDER David Eve", "KIND",
    "KIND sensing processing", "COMPOSITE", "INPUT x", "INPUT x Human y", "OUTPUT", "OUTPUT y Output z",
    "PRECONDITION", "PRECONDITION ?x a", "EFFECT", "EFFECT ADD ?x a", "EFFECT DEL ?x a",
    "EFFECT MOD ?x a Human", "EFFECT ?x a Human", "CONTEXT", "CONTEXT siteA siteB", "CAPABILITY",
    "CAPABILITY capA capB", "PARALLELISM", "PARALLELISM 1 2", "LIMITATION", "DECLARE a b",
    "DECLARE a b c d", "SKILL Monitoring 4",
])
def test_a_profile_line_that_fits_no_keyword_gets_the_profile_expected_list(line):
    text = f"SERVICE s\n{line}\nKIND sensing\n"
    assert _parse_error(parse_service_profile, text) == f"line 2, column 1: expected {PROFILE_EXPECTED}"


@pytest.mark.parametrize("text, expected", [
    ("SERVICE x\nKIND processing\nQOS reputation=4\nQOS cost=1\n",
     "line 4, column 1: expected one QOS line, each of reputation/cost/response_time at most once"),
    ("SERVICE x\nKIND processing\nQOS latency=4\n",
     "line 3, column 1: expected one QOS line, each of reputation/cost/response_time at most once"),
    ("KIND processing\n", "line 1, column 1: expected a SERVICE line"),
    ("SERVICE x\nPROVIDER David\n", "line 1, column 1: expected a KIND or COMPOSITE line"),
    ("", "line 1, column 1: expected a SERVICE line"),
])
def test_the_profile_reader_names_a_missing_or_repeated_line(text, expected):
    assert _parse_error(parse_service_profile, text) == expected


@pytest.mark.parametrize("keyword", ["SKILL", "ABILITY", "PERFORMANCE"])
def test_a_leveled_line_reads_its_level_before_its_name(keyword):
    assert _parse_error(parse_human_capability, f"{keyword} zz:Foo x\n") == "line 1, column 1: expected an integer"
    with pytest.raises(UnknownPrefixError):
        parse_human_capability(f"{keyword} zz:Foo 4\n")


def test_the_capability_is_checked_against_the_taxonomy_after_its_last_line():
    assert _parse_error(parse_human_capability, "SKILL Juggling 4\nGADGET x\n").startswith("line 2,")
    assert _parse_error(parse_machine_capability, "PROGRAMMED_SKILL Flying\nGADGET x\n").startswith("line 2,")


def test_the_last_line_counts_for_a_single_valued_field():
    cap, _ = parse_human_capability("EDUCATION Bachelor_Degree\nEDUCATION Master_Degree\n"
                                    "PREFERENCE time morning\nPREFERENCE price low\nPREFERENCE time evening\n"
                                    "SKILL Monitoring 3\nSKILL Critical_Thinking 2\nSKILL Monitoring 5\n"
                                    "ABILITY Oral_Comprehension 2\nABILITY Oral_Comprehension 4\n")
    assert cap.education == iri("Master_Degree")
    assert cap.preferences == {"time": "evening", "price": "low"}
    assert list(cap.preferences) == ["time", "price"]
    assert cap.skills == {iri("Monitoring"): 5, iri("Critical_Thinking"): 2}
    assert list(cap.skills) == [iri("Monitoring"), iri("Critical_Thinking")]
    assert cap.abilities == {iri("Oral_Comprehension"): 4}
    profile, provider = parse_service_profile("SERVICE a\nSERVICE b\nPROVIDER David\nPROVIDER Eve\n"
                                              "KIND sensing\nCAPABILITY capA\nCAPABILITY capB\n"
                                              "PARALLELISM 3\nPARALLELISM 2\n")
    assert (profile.service_id, provider) == (iri("b"), iri("Eve"))
    assert (profile.capability_ref, profile.degree_of_parallelism) == (iri("capB"), 2)


def test_a_many_valued_field_keeps_every_line_in_order():
    cap, contexts = parse_human_capability("KNOWLEDGE Psychology\nCONTEXT siteB\nKNOWLEDGE Biology\n"
                                           "KNOWLEDGE Psychology\nCONTEXT siteA\n")
    assert cap.knowledge == [iri("Psychology"), iri("Biology"), iri("Psychology")]
    assert contexts == (iri("siteB"), iri("siteA"))
    profile, _ = parse_service_profile("SERVICE s\nKIND sensing\nINPUT b Human\nINPUT a Human\n"
                                       "EFFECT DEL ?b knows ?a\nEFFECT ADD ?a knows ?b\nEFFECT DEL ?a knows ?b\n"
                                       "LIMITATION location siteA\nLIMITATION location siteA\n"
                                       "DECLARE knows Human Human\nDECLARE likes Human Human\n")
    assert [p.name for p in profile.inputs] == ["b", "a"]
    assert profile.effects_add == (Pattern(Var("a"), iri("knows"), Var("b")),)
    assert profile.effects_remove == (Pattern(Var("b"), iri("knows"), Var("a")),
                                      Pattern(Var("a"), iri("knows"), Var("b")))
    assert profile.limitations == (LocationAt(iri("siteA")),) * 2
    assert [d[0] for d in profile.declarations] == [iri("knows"), iri("likes")]


def test_each_record_field_keeps_its_type():
    cap, contexts = parse_human_capability(HUMAN_CAP)
    assert type(cap.knowledge) is list and type(cap.skills) is dict and type(contexts) is tuple
    assert type(cap.abilities) is dict and type(cap.performance_factors) is dict and type(cap.preferences) is dict
    machine, contexts = parse_machine_capability(MACHINE_CAP)
    assert type(machine.learned_knowledge) is list and type(machine.programmed_skills) is frozenset
    assert type(machine.hardware) is tuple and type(machine.software) is tuple and type(contexts) is tuple
    empty, contexts = parse_human_capability("")
    assert empty == HumanCapability() and contexts == ()
    empty, contexts = parse_machine_capability("# nothing\n")
    assert (empty.hardware, empty.software, empty.programmed_skills, empty.learned_knowledge, contexts) == \
        ((), (), frozenset(), [], ())
    profile, _ = parse_service_profile("SERVICE s\nKIND sensing\n")
    assert profile == ServiceProfile(iri("s"), "sensing", QoS(Decimal("0"), Decimal("0"), Decimal("0")))


def test_capability_and_profile_names_follow_the_kb_name_rule():
    # A name the .kb format cannot read back is rejected where it is written.
    for text in ("CONTEXT zz:site\n", "SKILL Monitoring 4\nCONTEXT zz:site\n"):
        with pytest.raises(UnknownPrefixError):
            parse_human_capability(text)
    with pytest.raises(UnknownPrefixError):
        parse_service_profile("SERVICE s\nKIND sensing\nINPUT x zz:Thing\n")
    for parse, text in ((parse_human_capability, "SKILL Monitoring 4\nCONTEXT café\n"),
                        (parse_machine_capability, "HARDWARE Box\nSOFTWARE Ünïcode\n"),
                        (parse_service_profile, "SERVICE s\nCONTEXT soa-hitlcps:café\n")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 2, text
    cap, contexts = parse_human_capability("CONTEXT soa-hitlcps:site_1.b-c\n")
    assert contexts == (iri("site_1.b-c"),)


# -- flat patterns and limitations --------------------------------------------


def test_flat_pattern_round_trip():
    pattern = Pattern(Var("patient"), iri("advisedBy"), iri("David"))
    text = render_pattern(pattern)
    assert text == "?patient advisedBy David"
    assert parse_flat_pattern(text) == pattern
    typed = Pattern(Var("x"), TYPE_PRED, iri("Human"))
    assert parse_flat_pattern(render_pattern(typed)) == typed
    literal = Pattern(iri("s"), iri("hasHumanSkill"), string("a b"))
    assert parse_flat_pattern(render_pattern(literal)) == literal


def test_flat_pattern_rejects_an_unterminated_string():
    with pytest.raises(ParseError):
        parse_flat_pattern('?x hasNote "abc')
    with pytest.raises(ParseError) as err:
        parse_service_profile('SERVICE s\nKIND sensing\nPRECONDITION ?x hasNote "abc\n')
    assert err.value.line == 3


def test_parse_flat_limitation_kinds():
    assert parse_flat_limitation("time_window 0 100") == TimeWindow(0, 100)
    assert parse_flat_limitation("max_distance 40 siteA") == MaxDistance(Decimal("40"), iri("siteA"))
    assert parse_flat_limitation("location siteA") == LocationAt(iri("siteA"))
    condition = parse_flat_limitation("condition ?x a Human")
    assert condition.pattern == Pattern(Var("x"), TYPE_PRED, iri("Human"))


def test_parse_flat_limitation_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_flat_limitation("time_window 100 0")
    with pytest.raises(ParseError):
        parse_flat_limitation("max_distance -5 siteA")
    with pytest.raises(ParseError):
        parse_flat_limitation("teleport siteA")


# -- the limitation reader's contract: the value of each kind, each error's text ----

LIMITATION_EXPECTED = "time_window/max_distance/location/condition"


@pytest.mark.parametrize("text, value", [
    ("time_window 0 100", TimeWindow(0, 100)),
    ("time_window 5 5", TimeWindow(5, 5)),
    ("time_window -3 2", TimeWindow(-3, 2)),
    ("max_distance 40 siteA", MaxDistance(Decimal("40"), iri("siteA"))),
    ("max_distance 2.50 soa-hitlcps:siteA", MaxDistance(Decimal("2.50"), iri("siteA"))),
    ("location siteA", LocationAt(iri("siteA"))),
    ("condition ?x a Human", Condition(Pattern(Var("x"), TYPE_PRED, iri("Human")))),
    ('condition ?x hasNote "a b"', Condition(Pattern(Var("x"), iri("hasNote"), string("a b")))),
    ("condition  ?x   a   1.5", Condition(Pattern(Var("x"), TYPE_PRED, Literal("decimal", Decimal("1.5"))))),
])
def test_each_limitation_kind_reads_its_value(text, value):
    assert parse_flat_limitation(text) == value
    assert type(parse_flat_limitation(text)) is type(value)


@pytest.mark.parametrize("text, expected", [
    # a wrong word count or an unknown kind
    ("", LIMITATION_EXPECTED), ("time_window", LIMITATION_EXPECTED), ("time_window 0", LIMITATION_EXPECTED),
    ("time_window 0 1 2", LIMITATION_EXPECTED), ("max_distance 40", LIMITATION_EXPECTED),
    ("max_distance 40 siteA siteB", LIMITATION_EXPECTED), ("location", LIMITATION_EXPECTED),
    ("location siteA siteB", LIMITATION_EXPECTED), ("condition", LIMITATION_EXPECTED),
    ("condition ?x a", LIMITATION_EXPECTED), ("teleport siteA", LIMITATION_EXPECTED),
    ("TIME_WINDOW 0 1", LIMITATION_EXPECTED),
    # a bad word
    ("time_window a 1", "an integer"), ("time_window 0 1.5", "an integer"), ("time_window 0 +1", "an integer"),
    ("max_distance far siteA", "a decimal"), ("max_distance 1e2 siteA", "a decimal"),
    ("max_distance 40 si/teA", "a name"), ("location si/te", "a name"),
    ("condition ?x a Human extra", "a three-term pattern"),
    ('condition ?x hasNote "abc', "a string literal closed by a quote"),
    # a value out of range
    ("time_window 100 0", "an ordered time window"), ("max_distance 0 siteA", "a positive distance"),
    ("max_distance -5 siteA", "a positive distance"), ("max_distance -0.5 siteA", "a positive distance"),
])
def test_each_limitation_error_names_what_was_expected(text, expected):
    assert _parse_error(lambda line: parse_flat_limitation(line, 7), text) == f"line 7, column 1: expected {expected}"


@pytest.mark.parametrize("text", ["max_distance 40 zz:site", "location zz:site", "condition ?x zz:p y"])
def test_a_limitation_name_takes_the_built_in_prefix_only(text):
    with pytest.raises(UnknownPrefixError) as err:
        parse_flat_limitation(text)
    assert str(err.value) == "unknown prefix: 'zz'"


def test_a_limitation_line_reports_its_error_at_its_line():
    assert _parse_error(parse_service_profile, "SERVICE s\nKIND sensing\nLIMITATION time_window 9 1\n") == \
        "line 3, column 1: expected an ordered time window"
    assert _parse_error(parse_service_profile, "SERVICE s\nKIND sensing\nLIMITATION teleport s\n") == \
        f"line 3, column 1: expected {LIMITATION_EXPECTED}"


def test_each_limitation_kind_is_stored_as_its_line_and_read_back():
    profile, _ = parse_service_profile(
        "SERVICE s\nKIND sensing\nLIMITATION time_window -3 100\nLIMITATION max_distance 2.50 soa-hitlcps:siteA\n"
        'LIMITATION location siteA\nLIMITATION condition  ?x hasNote "a  b"\nLIMITATION condition ?x a Human\n')
    kb = base_ontology()
    project_profile(kb, profile, iri("David"))
    stored = sorted(s.object.value for s in kb.statements if s.predicate == iri("hasLimitation"))
    assert stored == ["condition ?x a Human", 'condition ?x hasNote "a  b"', "location siteA",
                      "max_distance 2.50 siteA", "time_window -3 100"]
    assert set(read_profile(kb, iri("s"))[0].limitations) == set(profile.limitations)


# -- service profile files -----------------------------------------------------

SERVICE_PROFILE = """\
SERVICE chatDoctor
PROVIDER David
KIND processing
INPUT patient PhysicalThing
OUTPUT advice Output
PRECONDITION ?patient a PhysicalThing
EFFECT ADD ?patient advisedBy David
CONTEXT siteB
CAPABILITY davidCapability
QOS reputation=4.5 cost=10 response_time=5
PARALLELISM 2
LIMITATION time_window 0 100
DECLARE advisedBy PhysicalThing PhysicalThing
"""


def test_parse_service_profile():
    profile, provider = parse_service_profile(SERVICE_PROFILE)
    assert provider == iri("David")
    assert profile.service_id == iri("chatDoctor")
    assert profile.kind == "processing" and profile.parts == ()
    assert profile.inputs == (TypedParameter("patient", iri("PhysicalThing")),)
    assert profile.outputs == (TypedParameter("advice", iri("Output")),)
    assert profile.preconditions == (Pattern(Var("patient"), TYPE_PRED, iri("PhysicalThing")),)
    assert profile.effects_add == (Pattern(Var("patient"), iri("advisedBy"), iri("David")),)
    assert profile.qos == QoS(Decimal("4.5"), Decimal("10"), Decimal("5"))
    assert profile.contexts == (iri("siteB"),)
    assert profile.capability_ref == iri("davidCapability")
    assert profile.degree_of_parallelism == 2
    assert profile.limitations == (TimeWindow(0, 100),)
    assert profile.declarations == ((iri("advisedBy"), iri("PhysicalThing"), iri("PhysicalThing")),)
    validate_profile(profile)


def test_parse_service_profile_requires_service_and_kind():
    with pytest.raises(ParseError):
        parse_service_profile("KIND processing\n")
    with pytest.raises(ParseError):
        parse_service_profile("SERVICE x\n")
    with pytest.raises(ParseError):
        parse_service_profile("SERVICE x\nKIND juggling\n")


@pytest.mark.parametrize("words", ["reputation=4 respone_time=9", "reputation=4 =3", "reputation=4 cost=",
                                   "reputation=4 cost", "cost=1 cost=50"])
def test_qos_takes_only_its_three_keys_each_with_a_value(words):
    with pytest.raises(ParseError) as err:
        parse_service_profile(f"SERVICE x\nKIND processing\nQOS {words}\n")
    assert err.value.line == 3


def test_a_profile_has_one_qos_line():
    with pytest.raises(ParseError) as err:
        parse_service_profile("SERVICE x\nKIND processing\nQOS reputation=4\nQOS cost=1\n")
    assert err.value.line == 4


def test_parse_composite_profile():
    profile, provider = parse_service_profile(
        "SERVICE combo\nCOMPOSITE partA partB\nQOS reputation=3\n"
    )
    assert provider is None
    assert profile.kind == "composite"
    assert profile.parts == (iri("partA"), iri("partB"))


# -- service kinds: KIND names an atomic kind, COMPOSITE lists parts, the later line wins


KIND_LINES = tuple("COMPOSITE partA partB" if kind == "composite" else f"KIND {kind}" for kind in SERVICE_KINDS)


def _profile(*lines, service="combo"):
    return parse_service_profile("".join(f"{line}\n" for line in (f"SERVICE {service}",) + lines))[0]


def test_the_later_kind_line_wins_and_kind_clears_the_parts():
    assert _profile("COMPOSITE partA partB", "KIND sensing") == _profile("KIND sensing")
    assert _profile("KIND sensing", "COMPOSITE partA partB") == _profile("COMPOSITE partA partB")


def test_kind_names_an_atomic_kind_only():
    with pytest.raises(ParseError, match="one of actuating/communicating/processing/sensing") as err:
        _profile("KIND composite")
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("line", KIND_LINES)
def test_each_kind_round_trips_through_the_serialized_graph(line):
    registry = ServiceRegistry()
    registry.register_human(iri("David"), HumanCapability())
    for part in ("partA", "partB"):
        registry.publish_service(_profile("KIND sensing", service=part), iri("David"))
    registry.publish_service(_profile(line, "QOS reputation=3 cost=2"), iri("David"))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert reloaded.services == registry.services


def test_validate_profile_rejects_unbound_effect_var():
    profile = ServiceProfile(
        service_id=iri("svc"),
        kind="processing",
        qos=QoS(Decimal("3"), Decimal("1"), Decimal("1")),
        effects_add=(Pattern(Var("ghost"), iri("advisedBy"), iri("David")),),
    )
    with pytest.raises(InvalidProfileError):
        validate_profile(profile)


def test_validate_profile_allows_consumer_var():
    profile = ServiceProfile(
        service_id=iri("svc"),
        kind="processing",
        qos=QoS(Decimal("3"), Decimal("1"), Decimal("1")),
        effects_add=(Pattern(Var("consumer"), iri("consumes"), iri("svc")),),
    )
    validate_profile(profile)


def test_validate_profile_qos_bounds():
    bad = ServiceProfile(
        service_id=iri("svc"),
        kind="processing",
        qos=QoS(Decimal("6"), Decimal("1"), Decimal("1")),
    )
    with pytest.raises(InvalidProfileError):
        validate_profile(bad)


# -- projections ---------------------------------------------------------------


def test_project_human_facts(base):
    kb = base.copy()
    cap, contexts = parse_human_capability(HUMAN_CAP)
    node = project_human(kb, iri("David"), cap, contexts)
    assert node == iri("davidCapability")
    assert iri("PhysicalThing") in kb.types_of(iri("David"))
    assert iri("Human") not in kb.types_of(iri("David"))  # left to the reasoner
    assert kb.match(Pattern(iri("David"), iri("hasCapability"), node))
    assert kb.match(Pattern(node, iri("hasHumanSkill"), iri("Complex_Problem_Solving")))
    assert kb.match(Pattern(node, iri("hasSkillLevel"), string("Complex_Problem_Solving:6")))
    assert kb.match(Pattern(node, iri("hasEducation"), iri("Doctoral_Degree")))
    assert kb.match(Pattern(iri("David"), iri("hasContext"), iri("siteB")))
    assert iri("Human") in materialize(kb).types_of(iri("David"))


def test_project_machine_facts(base):
    kb = base.copy()
    cap, contexts = parse_machine_capability(MACHINE_CAP)
    node = project_machine(kb, iri("Cathy"), cap, contexts)
    assert node == iri("cathyCapability")
    assert iri("Machine") in kb.types_of(iri("Cathy"))
    spec = iri("cathySpecification")
    assert kb.match(Pattern(node, iri("hasSpecification"), spec))
    assert kb.match(Pattern(spec, iri("hasHardware"), iri("EcgSensorModule")))
    assert kb.match(Pattern(node, iri("hasProgrammedSkill"), iri("Monitoring")))
    assert kb.match(Pattern(node, iri("hasLearnedKnowledge"), iri("ClinicServices")))
    report = check_consistency(kb)
    assert report.is_consistent


def test_project_profile_facts(base):
    kb = base.copy()
    human, human_contexts = parse_human_capability(HUMAN_CAP)
    project_human(kb, iri("David"), human, human_contexts)
    profile, provider = parse_service_profile(SERVICE_PROFILE)
    project_profile(kb, profile, provider)
    profile_node, props_node, qos_node = profile_nodes(iri("chatDoctor"))
    assert iri("Service") in kb.types_of(iri("chatDoctor"))
    assert iri("ProcessingService") in kb.types_of(iri("chatDoctor"))
    assert kb.match(Pattern(iri("chatDoctor"), iri("presents"), profile_node))
    assert kb.match(Pattern(iri("chatDoctor"), iri("providedBy"), iri("David")))
    assert kb.match(Pattern(profile_node, iri("hasProperty"), props_node))
    assert kb.match(Pattern(props_node, iri("includeCapability"), iri("davidCapability")))
    assert kb.match(Pattern(props_node, iri("includeQoS"), qos_node))
    assert kb.match(Pattern(profile_node, iri("hasInput"), string("patient:PhysicalThing")))
    assert kb.match(Pattern(profile_node, iri("hasEffect"), string("ADD ?patient advisedBy David")))
    assert kb.match(Pattern(profile_node, iri("hasLimitation"), string("time_window 0 100")))
    assert iri("advisedBy") in kb.property_decls
    assert iri("HumanService") in materialize(kb).types_of(iri("chatDoctor"))


def test_retract_presentation(base):
    kb = base.copy()
    profile, _ = parse_service_profile("SERVICE s\nKIND sensing\nQOS reputation=3\n")
    project_profile(kb, profile, iri("owner"))
    profile_node = profile_nodes(iri("s"))[0]
    assert kb.match(Pattern(iri("s"), iri("presents"), profile_node))
    retract_presentation(kb, iri("s"))
    assert not kb.match(Pattern(iri("s"), iri("presents"), profile_node))


def test_capability_node_naming():
    assert capability_node(iri("David")) == iri("davidCapability")
    assert capability_node(iri("EcgDev")) == iri("ecgDevCapability")
    assert capability_node(Iri("ex", "Bob")) == Iri("ex", "bobCapability")
