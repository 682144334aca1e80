"""Tests for participant registration, publication, experience, and rehydration."""

import dataclasses
import random
from decimal import ROUND_HALF_UP, Decimal

import pytest

from soa_hitlcps.broker import ServiceBroker, parse_discovery_request
from soa_hitlcps.errors import (
    DeclarationConflictError,
    DuplicateIndividualError,
    InvalidProfileError,
    InvalidStateError,
    NoCompletedInvocationError,
    RatingOutOfRangeError,
    UnknownProviderError,
    UnknownServiceError,
)
from soa_hitlcps.kb import (
    TYPE_PRED,
    Pattern,
    Var,
    annotation_from_flags,
    decimal,
    iri,
    parse_document,
    serialize,
    string,
)
from soa_hitlcps.reasoner import check_consistency, materialize
from soa_hitlcps.registry import COMPLETED, RUNNING, ServiceRegistry
from soa_hitlcps.schema import (
    TAXONOMY,
    Condition,
    HumanCapability,
    LocationAt,
    MachineCapability,
    MaxDistance,
    PotentialService,
    QoS,
    ServiceProfile,
    TimeWindow,
    TypedParameter,
    UnlockRule,
    capability_node,
    is_human,
    is_machine,
    knows,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
    service_ratings,
    skill_level,
)

HUMAN_CAP = """\
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
HARDWARE ChatRuntime
PROGRAMMED_SKILL Conversational_Response
LEARNED ClinicServices
CONTEXT siteA
"""

SERVICE_PROFILE = """\
SERVICE chatDoctor
PROVIDER David
KIND processing
INPUT patient PhysicalThing
OUTPUT advice Output
QOS reputation=4.5 cost=10 response_time=5
PARALLELISM 2
"""


def build_registry():
    registry = ServiceRegistry()
    cap, contexts = parse_human_capability(HUMAN_CAP)
    registry.register_human(iri("David"), cap, contexts)
    mcap, mcontexts = parse_machine_capability(MACHINE_CAP)
    registry.register_machine(iri("Cathy"), mcap, mcontexts)
    profile, provider = parse_service_profile(SERVICE_PROFILE)
    registry.publish_service(profile, provider)
    return registry


def completed_invocation(registry, service=iri("chatDoctor"), consumer=iri("Cathy")):
    invocation = registry.new_invocation(service, consumer, {})
    invocation.status = RUNNING
    invocation.status = COMPLETED
    return invocation


# -- registration ----------------------------------------------------------------


def test_register_duplicate_rejected():
    registry = build_registry()
    cap, _ = parse_human_capability(HUMAN_CAP)
    with pytest.raises(DuplicateIndividualError):
        registry.register_human(iri("David"), cap)
    with pytest.raises(DuplicateIndividualError):
        registry.register_machine(iri("David"), parse_machine_capability(MACHINE_CAP)[0])


def _publish(line):
    return lambda registry: registry.publish_service(
        *parse_service_profile(f"SERVICE newService\nPROVIDER David\nKIND processing\n{line}\n"))


def _annotate(*flags):
    return lambda registry: registry.kb.add_annotation(annotation_from_flags(iri("Human"), flags))


# case -> (error, what its message names, call)
REJECTED_CALLS = {
    "conflicting-rigidity-flags": (DeclarationConflictError, "conflicting rigidity", _annotate("+R", "~R")),
    "conflicting-identity-flags": (DeclarationConflictError, "conflicting identity", _annotate("+I", "-I")),
    "conflicting-unity-flags": (DeclarationConflictError, "conflicting unity", _annotate("+U", "~U")),
    "unknown-flag": (DeclarationConflictError, "unknown metaproperty flag", _annotate("+X")),
    "skill-scale-on-a-machine": (UnknownProviderError, "Cathy",
                                 lambda registry: registry.set_skill_scale(iri("Cathy"), iri("Active_Listening"), 3)),
    "learned-knowledge-on-a-human": (UnknownProviderError, "David",
                                     lambda registry: registry.add_learned_knowledge(iri("David"), iri("HeadDiscomfort"))),
    "reputation-of-an-unknown-service": (UnknownServiceError, "ghost",
                                         lambda registry: registry.reputation_of(iri("ghost"))),
    "parallelism-0": (InvalidProfileError, "parallelism", _publish("PARALLELISM 0")),
    "negative-cost": (InvalidProfileError, "non-negative", _publish("QOS reputation=4 cost=-1")),
    "negative-response-time": (InvalidProfileError, "non-negative", _publish("QOS reputation=4 response_time=-1")),
    # a literal subject would be written as a fact that no longer parses back
    "literal-effect-subject": (InvalidProfileError, "literal", _publish('EFFECT ADD "a note" knows David')),
    # every declaration is checked before the first is written
    "declare-conflicting-with-the-kb": (DeclarationConflictError, "presents redeclared",
                                        _publish("DECLARE zzz PhysicalThing PhysicalThing\n"
                                                 "DECLARE presents Service Output")),
    "declare-conflicting-with-an-earlier-declare": (DeclarationConflictError, "zzz redeclared",
                                                    _publish("DECLARE aaa PhysicalThing PhysicalThing\n"
                                                             "DECLARE zzz PhysicalThing PhysicalThing\n"
                                                             "DECLARE zzz PhysicalThing Output")),
    "unknown-kind": (InvalidProfileError, "bogus", lambda registry: registry.publish_service(ServiceProfile(
        iri("newService"), "bogus", QoS(Decimal("4"), Decimal("1"), Decimal("1")),
        declarations=((iri("zzz"), iri("PhysicalThing"), iri("PhysicalThing")),)), iri("David"))),
    "parts-of-an-atomic-kind": (InvalidProfileError, "composite", lambda registry: registry.publish_service(
        ServiceProfile(iri("newService"), "sensing", QoS(Decimal("4"), Decimal("1"), Decimal("1")),
                       parts=(iri("chatDoctor"),)), iri("David"))),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_a_rejected_call_raises_and_leaves_the_kb_as_it_was(case):
    error, message, call = REJECTED_CALLS[case]
    registry = build_registry()
    before = registry.kb.copy()
    with pytest.raises(error, match=message):
        call(registry)
    assert registry.kb == before


def test_registry_kb_stays_consistent():
    registry = build_registry()
    report = check_consistency(registry.kb)
    assert report.is_consistent
    closed = materialize(registry.kb)
    assert iri("Human") in closed.types_of(iri("David"))
    assert iri("Machine") in closed.types_of(iri("Cathy"))
    assert iri("HumanService") in closed.types_of(iri("chatDoctor"))


def test_machine_service_typed_directly():
    registry = build_registry()
    profile, _ = parse_service_profile(
        "SERVICE chatbotService\nKIND communicating\nQOS reputation=4\n"
    )
    registry.publish_service(profile, iri("Cathy"))
    assert iri("MachineService") in registry.kb.types_of(iri("chatbotService"))


# -- publication ------------------------------------------------------------------


def test_publish_requires_registered_provider():
    registry = ServiceRegistry()
    profile, provider = parse_service_profile(SERVICE_PROFILE)
    with pytest.raises(UnknownProviderError):
        registry.publish_service(profile, provider)


def test_publish_defaults_capability_ref():
    registry = build_registry()
    record = registry.services[iri("chatDoctor")]
    assert record.profile.capability_ref == iri("davidCapability")
    props_node = iri("chatDoctorProperties")
    assert registry.kb.match(Pattern(props_node, iri("includeCapability"), iri("davidCapability")))


def test_publish_duplicate_rejected():
    registry = build_registry()
    profile, provider = parse_service_profile(SERVICE_PROFILE)
    with pytest.raises(DuplicateIndividualError):
        registry.publish_service(profile, provider)


def test_withdraw_and_republish():
    registry = build_registry()
    profile_node = iri("chatDoctorProfile")
    registry.withdraw_service(iri("chatDoctor"))
    assert not registry.kb.match(Pattern(iri("chatDoctor"), iri("presents"), profile_node))
    assert registry.published_services() == []
    with pytest.raises(InvalidStateError):
        registry.withdraw_service(iri("chatDoctor"))
    record = registry.services[iri("chatDoctor")]
    registry.publish_service(record.profile, iri("David"))
    assert registry.kb.match(Pattern(iri("chatDoctor"), iri("presents"), profile_node))
    assert registry.published_services() == [iri("chatDoctor")]


def test_withdraw_unknown_service():
    registry = build_registry()
    with pytest.raises(UnknownServiceError):
        registry.withdraw_service(iri("ghost"))


def test_composite_requires_parts():
    registry = build_registry()
    missing = ServiceProfile(
        service_id=iri("combo"),
        kind="composite",
        qos=QoS(Decimal("3"), Decimal("1"), Decimal("1")),
        parts=(iri("chatDoctor"), iri("ghost")),
    )
    with pytest.raises(UnknownServiceError):
        registry.publish_service(missing, iri("David"))
    valid = ServiceProfile(
        service_id=iri("combo"),
        kind="composite",
        qos=QoS(Decimal("3"), Decimal("1"), Decimal("1")),
        parts=(iri("chatDoctor"),),
    )
    registry.publish_service(valid, iri("David"))
    assert registry.kb.match(Pattern(iri("combo"), iri("composedOf"), iri("chatDoctor")))


# -- experience and reputation -------------------------------------------------------


def test_reputation_mean_examples():
    registry = build_registry()
    for rating in ("3", "4", "4", "5"):
        completed_invocation(registry)
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal(rating))
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("4.00")

    registry = build_registry()
    for rating in ("4", "5"):
        completed_invocation(registry)
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal(rating))
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("4.50")


def test_reputation_rounds_half_up():
    registry = build_registry()
    for rating in ("4.01", "4.00"):
        completed_invocation(registry)
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal(rating))
    # mean 4.005 rounds away from the even neighbour
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("4.01")


def test_reputation_fact_replaced_in_kb():
    registry = build_registry()
    completed_invocation(registry)
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    qos_node = iri("chatDoctorQos")
    values = registry.kb.match(Pattern(qos_node, iri("reputationValue"), Var("v")))
    assert [b["v"] for b in values] == [decimal(Decimal("5.00"))]


def test_a_rating_skips_an_experience_node_that_holds_a_fact_or_the_experience_type():
    registry = build_registry()
    registry.kb.add_type(iri("chatDoctorExp1"), iri("Experience"))
    registry.kb.add_statement(iri("chatDoctorExp2"), iri("ratedBy"), iri("Cathy"))
    completed_invocation(registry)
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    rated = registry.kb.match(Pattern(Var("node"), iri("experienceOf"), iri("chatDoctor")))
    assert rated == [{"node": iri("chatDoctorExp3")}]


def test_experience_projected_into_kb():
    registry = build_registry()
    completed_invocation(registry)
    registry.record_experience(
        iri("chatDoctor"), iri("Cathy"), Decimal("5"), criteria=(("accuracy", Decimal("5")),)
    )
    node = iri("chatDoctorExp1")
    assert iri("Experience") in registry.kb.types_of(node)
    assert registry.kb.match(Pattern(node, iri("experienceOf"), iri("chatDoctor")))
    assert registry.kb.match(Pattern(node, iri("ratedBy"), iri("Cathy")))
    assert registry.kb.match(Pattern(node, iri("hasCriteria"), string("accuracy=5")))
    assert registry.kb.match(Pattern(iri("davidCapability"), iri("hasExperience"), node))


def test_record_experience_requires_terminal_invocation():
    registry = build_registry()
    with pytest.raises(NoCompletedInvocationError):
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    invocation = registry.new_invocation(iri("chatDoctor"), iri("Cathy"), {})
    invocation.status = RUNNING
    with pytest.raises(NoCompletedInvocationError):
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    with pytest.raises(InvalidStateError):
        registry.record_experience_for(invocation, Decimal("5"))
    invocation.status = COMPLETED
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    # that invocation is now rated; a second rating needs a new terminal invocation
    with pytest.raises(NoCompletedInvocationError):
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("4"))


def test_rating_bounds():
    registry = build_registry()
    completed_invocation(registry)
    with pytest.raises(RatingOutOfRangeError):
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5.01"))
    with pytest.raises(RatingOutOfRangeError):
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("-1"))


# -- capability evolution ---------------------------------------------------------


def test_set_skill_scale_updates_kb():
    registry = build_registry()
    node = iri("davidCapability")
    registry.set_skill_scale(iri("David"), iri("Active_Listening"), 7)
    assert not registry.kb.match(Pattern(node, iri("hasSkillLevel"), string("Active_Listening:5")))
    assert registry.kb.match(Pattern(node, iri("hasSkillLevel"), string("Active_Listening:7")))
    assert skill_level(registry.kb, iri("David"), iri("Active_Listening")) == 7


def test_learned_knowledge_appends():
    registry = build_registry()
    registry.add_learned_knowledge(iri("Cathy"), iri("HeadDiscomfort"))
    learned = registry.kb.match(Pattern(iri("cathyCapability"), iri("hasLearnedKnowledge"), Var("k")))
    assert [b["k"] for b in learned] == [iri("ClinicServices"), iri("HeadDiscomfort")]
    assert registry.kb.match(
        Pattern(iri("cathyCapability"), iri("hasLearnedKnowledge"), iri("HeadDiscomfort"))
    )


# -- potential services -------------------------------------------------------------


def make_potential(rule):
    template = ServiceProfile(
        service_id=iri("counseling"),
        kind="communicating",
        qos=QoS(Decimal("4"), Decimal("5"), Decimal("10")),
    )
    return PotentialService(template=template, unlock_rule=rule)


def test_unlock_by_skill_scale():
    registry = build_registry()
    rule = UnlockRule(required_skill=(iri("Active_Listening"), 6))
    registry.add_potential(iri("David"), make_potential(rule))
    assert registry.unlock_potential(iri("David")) == []
    assert iri("counseling") not in registry.services
    registry.set_skill_scale(iri("David"), iri("Active_Listening"), 6)
    assert registry.unlock_potential(iri("David")) == [iri("counseling")]
    assert registry.services[iri("counseling")].provider == iri("David")
    # consumed: unlocking again publishes nothing new
    assert registry.unlock_potential(iri("David")) == []


def test_unlock_by_knowledge_and_experience():
    registry = build_registry()
    rule = UnlockRule(
        required_knowledge=(iri("Medicine_and_Dentistry"),), min_experience_count=1
    )
    registry.add_potential(iri("David"), make_potential(rule))
    assert registry.unlock_potential(iri("David")) == []
    completed_invocation(registry)
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))
    assert registry.unlock_potential(iri("David")) == [iri("counseling")]


def test_potential_projected_into_kb():
    registry = build_registry()
    rule = UnlockRule(required_skill=(iri("Active_Listening"), 6))
    registry.add_potential(iri("David"), make_potential(rule))
    assert iri("Potential") in registry.kb.types_of(iri("davidPotential"))
    assert registry.kb.match(
        Pattern(iri("davidCapability"), iri("hasPotential"), iri("davidPotential"))
    )
    assert registry.kb.match(
        Pattern(iri("davidPotential"), iri("hasPotentialService"), iri("counseling"))
    )
    assert iri("PotentialService") in registry.kb.types_of(iri("counseling"))


# -- rehydration ----------------------------------------------------------------------


def test_from_kb_round_trip():
    registry = build_registry()
    completed_invocation(registry)
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("4"))
    completed_invocation(registry)
    registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal("5"))

    text = serialize(registry.kb)
    rebuilt = ServiceRegistry.from_kb(parse_document(text))

    kb = rebuilt.kb
    owners = {b["o"] for b in kb.match(Pattern(Var("o"), iri("hasCapability"), Var("c")))}
    assert {o for o in owners if is_human(kb, o)} == {iri("David")}
    assert {o for o in owners if is_machine(kb, o)} == {iri("Cathy")}
    original_cap, _ = parse_human_capability(HUMAN_CAP)
    for skill, level in original_cap.skills.items():
        assert skill_level(kb, iri("David"), skill) == level, skill
    for attr, predicate in (("abilities", "hasAbilityLevel"), ("performance_factors", "hasPerformanceLevel")):
        held = kb.match(Pattern(iri("davidCapability"), iri(predicate), Var("v")))
        assert [b["v"] for b in held] == [string(f"{t}:{v}") for t, v in getattr(original_cap, attr).items()]
    assert all(knows(kb, iri("David"), topic) for topic in original_cap.knowledge)
    node = iri("davidCapability")
    assert kb.match(Pattern(node, iri("hasEducation"), Var("e"))) == [{"e": original_cap.education}]
    assert kb.match(Pattern(node, iri("hasPreferenceValue"), Var("p"))) == [{"p": string("time:evening")}]

    assert kb.match(Pattern(iri("cathySpecification"), iri("hasHardware"), Var("h"))) == [{"h": iri("ChatRuntime")}]
    assert kb.match(Pattern(iri("cathyCapability"), iri("hasProgrammedSkill"), Var("s"))) == \
        [{"s": iri("Conversational_Response")}]
    assert kb.match(Pattern(iri("cathyCapability"), iri("hasLearnedKnowledge"), Var("k"))) == \
        [{"k": iri("ClinicServices")}]

    record = rebuilt.services[iri("chatDoctor")]
    original = registry.services[iri("chatDoctor")]
    assert record.provider == iri("David")
    assert record.profile.kind == "processing" and record.profile.parts == ()
    assert record.profile.inputs == original.profile.inputs
    assert record.profile.outputs == original.profile.outputs
    assert record.profile.degree_of_parallelism == 2
    assert record.profile.capability_ref == iri("davidCapability")
    assert record.reputation == Decimal("4.50") == original.reputation
    ratings = sorted(service_ratings(kb, iri("chatDoctor")))
    assert ratings == [Decimal("4"), Decimal("5")]


def _rated(registry, *ratings):
    for rating in ratings:
        completed_invocation(registry)
        registry.record_experience(iri("chatDoctor"), iri("Cathy"), Decimal(rating))
    return registry


def _assert_same_answers(live, reloaded, reputation, score):
    assert reloaded.kb == live.kb
    assert reloaded.reputation_of(iri("chatDoctor")) == live.reputation_of(iri("chatDoctor")) == reputation
    values = reloaded.kb.match(Pattern(iri("chatDoctorQos"), iri("reputationValue"), Var("v")))
    assert values == [{"v": decimal(reputation)}]
    request = parse_discovery_request("DISCOVER kind=processing")
    ranked = ServiceBroker(live).discover(request)
    assert ServiceBroker(reloaded).discover(request) == ranked
    assert [(r.service, r.score) for r in ranked] == [(iri("chatDoctor"), Decimal(score))]


def test_a_rated_service_withdrawn_after_a_reload_is_republished_with_its_declared_profile():
    live = _rated(build_registry(), "4", "3")
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(live.kb)))
    for each in (live, reloaded):
        each.withdraw_service(iri("chatDoctor"))
        each.publish_service(*parse_service_profile(SERVICE_PROFILE))
    _assert_same_answers(live, reloaded, Decimal("3.50"), "0.8042")


def test_a_rated_service_withdrawn_before_a_reload_comes_back_with_its_ratings():
    live = _rated(build_registry(), "1", "2")
    live.withdraw_service(iri("chatDoctor"))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(live.kb)))
    for each in (live, reloaded):
        each.publish_service(*parse_service_profile(SERVICE_PROFILE))
    _assert_same_answers(live, reloaded, Decimal("1.50"), "0.6042")


def test_a_withdrawn_services_ratings_count_for_its_provider_after_a_reload():
    live = _rated(build_registry(), "4", "5")
    live.withdraw_service(iri("chatDoctor"))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(live.kb)))
    assert live.provider_experience_count(iri("David")) == reloaded.provider_experience_count(iri("David")) == 2
    reloaded.add_potential(iri("David"), make_potential(UnlockRule(min_experience_count=2)))
    assert reloaded.unlock_potential(iri("David")) == [iri("counseling")]


# Once rated, the graph holds the mean rating, so a declared reputation is compared only before.
@pytest.mark.parametrize("ratings, old, new", [(("4",), "cost=10", "cost=11"),
                                               ((), "reputation=4.5", "reputation=4")])
def test_republishing_a_different_profile_is_refused(ratings, old, new):
    registry = _rated(build_registry(), *ratings)
    registry.withdraw_service(iri("chatDoctor"))
    profile, provider = parse_service_profile(SERVICE_PROFILE.replace(old, new))
    with pytest.raises(DuplicateIndividualError):
        registry.publish_service(profile, provider)
    assert not registry.is_published(iri("chatDoctor"))


def test_republishing_under_another_provider_is_refused():
    # The explicit CAPABILITY line keeps the profile equal; the provider differs.
    registry = build_registry()
    registry.register_human(iri("Erin"), *parse_human_capability(HUMAN_CAP))
    text = SERVICE_PROFILE.replace("KIND", "CAPABILITY davidCapability\nKIND")
    registry.withdraw_service(iri("chatDoctor"))
    registry.publish_service(*parse_service_profile(text))
    registry.withdraw_service(iri("chatDoctor"))
    with pytest.raises(DuplicateIndividualError):
        registry.publish_service(parse_service_profile(text)[0], iri("Erin"))
    assert not registry.is_published(iri("chatDoctor"))
    assert registry.services[iri("chatDoctor")].provider == iri("David")


def test_a_loaded_reputation_is_the_mean_of_the_graphs_ratings():
    # A .kb file may hold ratings beside a declared reputation that no rating replaced.
    kb = build_registry().kb
    for index, rating in enumerate(("1", "2"), start=1):
        node = iri(f"chatDoctorExp{index}")
        kb.add_type(node, iri("Experience"))
        kb.add_statement(node, iri("experienceOf"), iri("chatDoctor"))
        kb.add_statement(node, iri("ratingValue"), decimal(Decimal(rating)))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(kb)))
    assert reloaded.reputation_of(iri("chatDoctor")) == Decimal("1.50")
    assert reloaded.provider_experience_count(iri("David")) == 2
    reloaded.withdraw_service(iri("chatDoctor"))
    reloaded.publish_service(*parse_service_profile(SERVICE_PROFILE))
    assert reloaded.reputation_of(iri("chatDoctor")) == Decimal("1.50")


def test_a_quoted_string_in_a_profile_keeps_its_whitespace_through_a_reload():
    note = "two  spaces\tand tab"
    registry = build_registry()
    registry.publish_service(*parse_service_profile(
        f'SERVICE noted\nPROVIDER David\nKIND processing\nPRECONDITION ?consumer hasNote "{note}"\n'
        f'LIMITATION condition ?consumer hasNote "{note}"\n'))
    live = registry.services[iri("noted")].profile
    assert live.preconditions[0].object == live.limitations[0].pattern.object == string(note)
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert reloaded.services[iri("noted")].profile == live


def test_from_kb_loads_withdrawn_services():
    # As the live table does: a withdrawn service keeps its record, so a
    # completed invocation of it can still be rated after a reload.
    registry = build_registry()
    registry.withdraw_service(iri("chatDoctor"))
    rebuilt = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert sorted(rebuilt.services) == sorted(registry.services)
    assert rebuilt.published_services() == []
    invocation = rebuilt.new_invocation(iri("chatDoctor"), iri("Adam"), {})
    invocation.status = COMPLETED
    rebuilt.record_experience_for(invocation, Decimal("3"))
    assert rebuilt.reputation_of(iri("chatDoctor")) == Decimal("3.00")


# -- graph codec round trip ----------------------------------------------------------

SITES = tuple(iri(f"site{c}") for c in "ABCD")
TOPICS = tuple(iri(f"Topic{c}") for c in "ABCDE")
HUMAN_NAMES = tuple(iri(f"Human{k}") for k in range(8))
# Two machine names hold "Capability" and "Specification" past their first
# letter, so that their node names must still differ.
MACHINE_NAMES = (iri("Mach0"), iri("Mach1"), iri("TheCapabilityBot"), iri("TheSpecificationBot"))


def _subset(rng, pool, low=0, high=3):
    pool = list(pool)
    return rng.sample(pool, rng.randint(low, min(high, len(pool))))


def _random_human(rng):
    return HumanCapability(
        skills={s: rng.randint(1, 7) for s in _subset(rng, TAXONOMY.skills, 1)},
        knowledge=_subset(rng, TAXONOMY.knowledge),
        abilities={a: rng.randint(1, 7) for a in _subset(rng, TAXONOMY.abilities)},
        performance_factors={p: rng.randint(1, 7) for p in _subset(rng, TAXONOMY.performance_factors)},
        preferences={d: rng.choice(("evening", "any", "from:09:00"))
                     for d in _subset(rng, TAXONOMY.preference_dimensions)},
        education=rng.choice((None,) + TAXONOMY.education_levels),
    )


def _random_machine(rng):
    return MachineCapability(
        hardware=tuple(_subset(rng, (iri(f"Hw{k}") for k in range(4)), 1)),
        software=tuple(_subset(rng, (iri(f"Sw{k}") for k in range(4)))),
        programmed_skills=frozenset(_subset(rng, TAXONOMY.skills)),
        learned_knowledge=_subset(rng, TOPICS),
    )


def _random_profile(rng, service, existing):
    names = _subset(rng, ("patient", "reading", "place"))
    inputs = [TypedParameter(n, rng.choice((iri("PhysicalThing"), iri("Output"), iri("Context")))) for n in names]
    outputs = [TypedParameter(n, iri("Output")) for n in _subset(rng, ("advice", "alert"))]
    preconditions = _subset(rng, (Pattern(Var("consumer"), iri("hasContext"), Var("site")),
                                  Pattern(Var("helper"), iri("hasContext"), Var("site")),
                                  Pattern(Var("consumer"), TYPE_PRED, iri("PhysicalThing"))))
    effects_add = _subset(rng, (Pattern(Var("consumer"), iri("consumes"), service),
                                Pattern(Var("consumer"), iri("performs"), iri("followUp"))), 0, 2)
    effects_remove = _subset(rng, (Pattern(Var("consumer"), iri("performs"), iri("waiting")),
                                   Pattern(Var("consumer"), iri("consumes"), iri("oldService"))), 0, 2)
    limitations = _subset(rng, (TimeWindow(0, rng.randint(50, 500)), LocationAt(rng.choice(SITES)),
                                MaxDistance(Decimal(rng.choice(("40", "2.50"))), rng.choice(SITES)),
                                Condition(Pattern(Var("x"), TYPE_PRED, iri("Human")))))
    composite = existing and rng.random() < 0.2
    parts = tuple(_subset(rng, existing, 1)) if composite else ()
    return ServiceProfile(
        service_id=service,
        kind="composite" if composite else rng.choice(("sensing", "actuating", "communicating", "processing")),
        qos=QoS(Decimal(rng.randint(0, 50)) / 10, Decimal(rng.randint(0, 400)) / 4, Decimal(rng.randint(0, 90))),
        parts=parts,
        contexts=tuple(_subset(rng, SITES)),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        preconditions=tuple(preconditions),
        effects_add=tuple(effects_add),
        effects_remove=tuple(effects_remove),
        degree_of_parallelism=rng.randint(1, 4),
        limitations=tuple(limitations),
        declarations=((iri("watchedBy"), iri("PhysicalThing"), iri("PhysicalThing")),) * rng.randint(0, 1),
    )


def _ordered(values) -> list:
    return sorted(values, key=repr)


def _service_view(record):
    profile = record.profile
    # The graph keeps one reputation per service, the declared one until the
    # first rating and the mean rating after it.  A profile's DECLARE lines
    # are property declarations on the kb, not facts of the profile.
    lists = ("parts", "contexts", "inputs", "outputs", "preconditions", "effects_add", "effects_remove",
             "limitations")
    profile = dataclasses.replace(profile, qos=dataclasses.replace(profile.qos, reputation=record.reputation),
                                  declarations=(), **{name: tuple(_ordered(getattr(profile, name))) for name in lists})
    return profile, record.provider, record.reputation


# Skill minimums, knowledge, abilities, contexts, kinds and QoS bounds.
PARITY_REQUESTS = (
    "DISCOVER skill=Monitoring:3",
    "DISCOVER skill=Active_Listening:5 skill=Critical_Thinking",
    "DISCOVER skill=Troubleshooting:2 knowledge=Psychology,Biology",
    "DISCOVER knowledge=Medicine_and_Dentistry context=siteA,siteC",
    "DISCOVER ability=Oral_Expression",
    "DISCOVER kind=sensing qos.min_reputation=2",
    "DISCOVER kind=composite",
    "DISCOVER context=siteB qos.max_cost=50",
)


class _Model:
    """What the test registered, wrote and rated, kept apart from the registry."""

    def __init__(self):
        self.levels = {}  # (person, skill) -> the levels stored for it
        self.linked = {}  # person -> the skills its capability links
        self.known = {}  # owner -> {(predicate name, topic)}
        self.contexts = {}  # owner -> contexts registered
        self.provider = {}  # service -> provider
        self.declared = {}  # service -> declared reputation
        self.ratings = {}  # service -> [rating]

    def level(self, person, skill):
        if skill not in self.linked[person]:
            return 0
        return max(self.levels.get((person, skill), {1}))

    def rating_count(self, owner):
        return sum(len(self.ratings[s]) for s, p in self.provider.items() if p == owner)

    def reputation(self, service):
        ratings = self.ratings[service]
        if not ratings:
            return self.declared[service]
        return (sum(ratings) / len(ratings)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)

    def check(self, registry):
        """The graph's answers are the model's, whichever registry reads them."""
        kb = registry.kb
        for person in self.linked:
            for skill in TAXONOMY.skills:
                assert skill_level(kb, person, skill) == self.level(person, skill), (person, skill)
        for owner, known in self.known.items():
            if owner not in self.linked:  # a machine: scales describe humans only
                assert skill_level(kb, owner, TAXONOMY.skills[0]) is None, owner
            for topic in TAXONOMY.knowledge + TOPICS:
                assert knows(kb, owner, topic) == any(t == topic for _, t in known), (owner, topic)
            assert registry.provider_experience_count(owner) == self.rating_count(owner), owner
            held = {b["c"] for b in kb.match(Pattern(owner, iri("hasContext"), Var("c")))}
            assert set(self.contexts[owner]) <= held, owner
        for service in registry.services:
            assert registry.reputation_of(service) == self.reputation(service), service


def _assert_reload_parity(registry, broker, model):
    """A registry reloaded from the serialized graph answers as the live one."""
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert reloaded.kb == registry.kb
    model.check(registry)
    model.check(reloaded)
    assert sorted(reloaded.services) == sorted(registry.services)
    for service in registry.services:
        assert _service_view(reloaded.services[service]) == _service_view(registry.services[service]), service
    assert reloaded.published_services() == registry.published_services()
    rankings = {line: broker.discover(parse_discovery_request(line)) for line in PARITY_REQUESTS}
    again = ServiceBroker(reloaded)
    for line, ranked in rankings.items():
        assert again.discover(parse_discovery_request(line)) == ranked, line
    return sum(len(ranked) for ranked in rankings.values())


def _effect_write(rng, registry, model, humans):
    """Write a capability fact straight to the graph, as a completed effect does."""
    owner = rng.choice(sorted(model.known))
    node = capability_node(owner)
    kind = rng.choice(("know", "forget", "link", "unlink", "level"))
    if kind == "know":
        topic = rng.choice(TAXONOMY.knowledge)
        registry.kb.add_statement(node, iri("hasHumanKnowledge"), topic)
        model.known[owner].add(("hasHumanKnowledge", topic))
    elif kind == "forget" and model.known[owner]:
        predicate, topic = rng.choice(sorted(model.known[owner]))
        registry.kb.remove_statement(node, iri(predicate), topic)
        model.known[owner].discard((predicate, topic))
    elif kind == "link" and humans:
        person = rng.choice(humans)
        skill = rng.choice(TAXONOMY.skills)
        registry.kb.add_statement(capability_node(person), iri("hasHumanSkill"), skill)
        model.linked[person].add(skill)
    elif kind == "level" and humans:  # a second level beside the one set
        person, level = rng.choice(humans), rng.randint(1, 7)
        skill = rng.choice(sorted(model.linked[person]) or TAXONOMY.skills)
        registry.kb.add_statement(capability_node(person), iri("hasSkillLevel"), string(f"{skill}:{level}"))
        model.levels.setdefault((person, skill), set()).add(level)
    elif kind == "unlink" and humans:
        person = rng.choice(humans)
        if model.linked[person]:
            skill = rng.choice(sorted(model.linked[person]))
            registry.kb.remove_statement(capability_node(person), iri("hasHumanSkill"), skill)
            model.linked[person].discard(skill)


def _published(model, profile, provider):
    model.provider.setdefault(profile.service_id, provider)
    model.declared.setdefault(profile.service_id, profile.qos.reputation)
    model.ratings.setdefault(profile.service_id, [])


def test_a_registry_reloaded_from_its_graph_answers_as_the_live_one():
    rng = random.Random(61)
    registry = ServiceRegistry()
    broker = ServiceBroker(registry)  # one closure, kept current across every write
    model = _Model()
    humans, machines = [], []
    withdrawn = set()
    found = rated_withdrawn = 0
    for step in range(240):
        services = sorted(registry.services)
        action = rng.choice(("human", "machine", "publish", "publish", "withdraw", "republish",
                             "scale", "learn", "rate", "rate", "potential", "unlock", "effect"))
        if action == "human" and len(humans) < len(HUMAN_NAMES):
            person = HUMAN_NAMES[len(humans)]
            model.contexts[person] = _subset(rng, SITES)
            cap = _random_human(rng)
            registry.register_human(person, cap, model.contexts[person])
            humans.append(person)
            model.levels.update({(person, skill): {level} for skill, level in cap.skills.items()})
            model.linked[person] = set(cap.skills)
            model.known[person] = {("hasHumanKnowledge", topic) for topic in cap.knowledge}
        elif action == "machine" and len(machines) < len(MACHINE_NAMES):
            machine = MACHINE_NAMES[len(machines)]
            model.contexts[machine] = _subset(rng, SITES)
            cap = _random_machine(rng)
            registry.register_machine(machine, cap, model.contexts[machine])
            machines.append(machine)
            model.known[machine] = {("hasLearnedKnowledge", topic) for topic in cap.learned_knowledge}
        elif action == "publish" and humans + machines:
            profile, provider = _random_profile(rng, iri(f"svc{step}"), services), rng.choice(humans + machines)
            registry.publish_service(profile, provider)
            _published(model, profile, provider)
        elif action == "withdraw" and registry.published_services():
            service = rng.choice(registry.published_services())
            registry.withdraw_service(service)
            withdrawn.add(service)
            if rng.random() < 0.5:  # rated after the withdrawal, live and reloaded alike
                reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
                consumer, rating = rng.choice(humans + machines), Decimal(rng.randint(0, 10)) / 2
                for target in (registry, reloaded):
                    invocation = target.new_invocation(service, consumer, {})
                    invocation.status = COMPLETED
                    target.record_experience_for(invocation, rating)
                model.ratings[service].append(rating)
                assert reloaded.kb == registry.kb
                assert reloaded.reputation_of(service) == registry.reputation_of(service)
                rated_withdrawn += 1
        elif action == "republish" and withdrawn:
            service = rng.choice(sorted(withdrawn))
            withdrawn.discard(service)
            record = registry.services[service]
            registry.publish_service(record.profile, record.provider)
        elif action == "scale" and humans:
            person, skill, level = rng.choice(humans), rng.choice(TAXONOMY.skills), rng.randint(1, 7)
            registry.set_skill_scale(person, skill, level)
            model.levels[(person, skill)] = {level}
            model.linked[person].add(skill)
        elif action == "learn" and machines:
            machine, topic = rng.choice(machines), rng.choice(TOPICS)
            registry.add_learned_knowledge(machine, topic)
            model.known[machine].add(("hasLearnedKnowledge", topic))
        elif action == "rate" and services:
            service = rng.choice(services)
            invocation = registry.new_invocation(service, rng.choice(humans + machines), {})
            invocation.status = COMPLETED
            criteria = [(name, Decimal(rng.randint(0, 10)) / 2) for name in _subset(rng, ("timeliness", "care"))]
            rating = Decimal(rng.randint(0, 10)) / 2
            registry.record_experience_for(invocation, rating, criteria)
            model.ratings[service].append(rating)
        elif action == "potential" and humans:
            template = _random_profile(rng, iri(f"potential{step}"), ())
            rule = rng.choice((UnlockRule(required_knowledge=(rng.choice(TAXONOMY.knowledge),)),
                               UnlockRule(required_skill=(rng.choice(TAXONOMY.skills), rng.randint(1, 7))),
                               UnlockRule(min_experience_count=rng.randint(0, 3))))
            registry.add_potential(rng.choice(humans), PotentialService(template, rule))
        elif action == "unlock" and humans:
            person = rng.choice(humans)
            before = set(registry.services)
            for service in registry.unlock_potential(person):
                assert service not in before
                _published(model, registry.services[service].profile, person)
        elif action == "effect" and model.known:
            _effect_write(rng, registry, model, humans)
        if step % 10 == 9:
            found += _assert_reload_parity(registry, broker, model)
    assert len(registry.services) > 20 and len(registry.published_services()) < len(registry.services)
    assert sum(len(ratings) for ratings in model.ratings.values()) > 20
    assert found > 50 and rated_withdrawn > 3
