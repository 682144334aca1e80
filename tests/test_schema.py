"""Tests for the base ontology and the capability/profile file formats."""

from decimal import Decimal

import pytest

from soa_hitlcps.datafiles import base_kb_text
from soa_hitlcps.errors import InvalidProfileError, ParseError, UnknownPrefixError, UnknownTaxonomyTermError
from soa_hitlcps.kb import (
    Iri,
    Pattern,
    TYPE_PRED,
    Var,
    iri,
    parse_document,
    serialize,
    string,
)
from soa_hitlcps.reasoner import check_consistency, check_ontoclean, materialize
from soa_hitlcps.schema import (
    AtomicType,
    CompositeType,
    LocationAt,
    MaxDistance,
    PropertyBundle,
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
    assert profile.service_type == AtomicType("processing")
    assert profile.inputs == (TypedParameter("patient", iri("PhysicalThing")),)
    assert profile.outputs == (TypedParameter("advice", iri("Output")),)
    assert profile.preconditions == (Pattern(Var("patient"), TYPE_PRED, iri("PhysicalThing")),)
    assert profile.effects_add == (Pattern(Var("patient"), iri("advisedBy"), iri("David")),)
    assert profile.properties.qos == QoS(Decimal("4.5"), Decimal("10"), Decimal("5"))
    assert profile.properties.contexts == (iri("siteB"),)
    assert profile.properties.capability_ref == iri("davidCapability")
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
    assert profile.service_type == CompositeType((iri("partA"), iri("partB")))


def test_validate_profile_rejects_unbound_effect_var():
    profile = ServiceProfile(
        service_id=iri("svc"),
        service_type=AtomicType("processing"),
        properties=PropertyBundle(qos=QoS(Decimal("3"), Decimal("1"), Decimal("1"))),
        effects_add=(Pattern(Var("ghost"), iri("advisedBy"), iri("David")),),
    )
    with pytest.raises(InvalidProfileError):
        validate_profile(profile)


def test_validate_profile_allows_consumer_var():
    profile = ServiceProfile(
        service_id=iri("svc"),
        service_type=AtomicType("processing"),
        properties=PropertyBundle(qos=QoS(Decimal("3"), Decimal("1"), Decimal("1"))),
        effects_add=(Pattern(Var("consumer"), iri("consumes"), iri("svc")),),
    )
    validate_profile(profile)


def test_validate_profile_qos_bounds():
    bad = ServiceProfile(
        service_id=iri("svc"),
        service_type=AtomicType("processing"),
        properties=PropertyBundle(qos=QoS(Decimal("6"), Decimal("1"), Decimal("1"))),
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
