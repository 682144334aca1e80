"""Tests for participant registration, publication, experience, and rehydration."""

from decimal import Decimal

import pytest

from soa_hitlcps.errors import (
    DuplicateIndividualError,
    InvalidStateError,
    NoCompletedInvocationError,
    RatingOutOfRangeError,
    UnknownProviderError,
    UnknownServiceError,
)
from soa_hitlcps.kb import Pattern, Var, decimal, iri, parse_document, serialize, string
from soa_hitlcps.reasoner import check_consistency, materialize
from soa_hitlcps.registry import COMPLETED, RUNNING, ServiceRegistry
from soa_hitlcps.schema import (
    AtomicType,
    CompositeType,
    PotentialService,
    PropertyBundle,
    QoS,
    ServiceProfile,
    UnlockRule,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
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
    assert record.profile.properties.capability_ref == iri("davidCapability")
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
        service_type=CompositeType((iri("chatDoctor"), iri("ghost"))),
        properties=PropertyBundle(qos=QoS(Decimal("3"), Decimal("1"), Decimal("1"))),
    )
    with pytest.raises(UnknownServiceError):
        registry.publish_service(missing, iri("David"))
    valid = ServiceProfile(
        service_id=iri("combo"),
        service_type=CompositeType((iri("chatDoctor"),)),
        properties=PropertyBundle(qos=QoS(Decimal("3"), Decimal("1"), Decimal("1"))),
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
    assert registry.humans[iri("David")].skills[iri("Active_Listening")] == 7


def test_learned_knowledge_appends():
    registry = build_registry()
    registry.add_learned_knowledge(iri("Cathy"), iri("HeadDiscomfort"))
    cap = registry.machines[iri("Cathy")]
    assert cap.learned_knowledge == [iri("ClinicServices"), iri("HeadDiscomfort")]
    assert registry.kb.match(
        Pattern(iri("cathyCapability"), iri("hasLearnedKnowledge"), iri("HeadDiscomfort"))
    )


# -- potential services -------------------------------------------------------------


def make_potential(rule):
    template = ServiceProfile(
        service_id=iri("counseling"),
        service_type=AtomicType("communicating"),
        properties=PropertyBundle(qos=QoS(Decimal("4"), Decimal("5"), Decimal("10"))),
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

    assert set(rebuilt.humans) == {iri("David")}
    assert set(rebuilt.machines) == {iri("Cathy")}
    original_cap = registry.humans[iri("David")]
    rebuilt_cap = rebuilt.humans[iri("David")]
    assert rebuilt_cap.skills == original_cap.skills
    assert sorted(rebuilt_cap.knowledge) == sorted(original_cap.knowledge)
    assert rebuilt_cap.abilities == original_cap.abilities
    assert rebuilt_cap.performance_factors == original_cap.performance_factors
    assert rebuilt_cap.education == original_cap.education
    assert rebuilt_cap.preferences == original_cap.preferences

    machine_cap = rebuilt.machines[iri("Cathy")]
    assert machine_cap.hardware == (iri("ChatRuntime"),)
    assert machine_cap.programmed_skills == frozenset({iri("Conversational_Response")})
    assert machine_cap.learned_knowledge == [iri("ClinicServices")]

    record = rebuilt.services[iri("chatDoctor")]
    original = registry.services[iri("chatDoctor")]
    assert record.provider == iri("David")
    assert record.profile.service_type == AtomicType("processing")
    assert record.profile.inputs == original.profile.inputs
    assert record.profile.outputs == original.profile.outputs
    assert record.profile.degree_of_parallelism == 2
    assert record.profile.properties.capability_ref == iri("davidCapability")
    assert record.reputation == Decimal("4.50") == original.reputation
    ratings = sorted(r.rating for r in rebuilt.experience[iri("chatDoctor")])
    assert ratings == [Decimal("4"), Decimal("5")]


def test_from_kb_skips_withdrawn_services():
    registry = build_registry()
    registry.withdraw_service(iri("chatDoctor"))
    rebuilt = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert iri("chatDoctor") not in rebuilt.services
