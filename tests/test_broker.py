"""Discovery compilation, ranking, invocation lifecycle, and composition."""

import contextlib
import dataclasses
import random
import re
from decimal import Decimal

import pytest

from test_query import DISCOVERY_QUERY

from soa_hitlcps import broker as broker_module
from soa_hitlcps import reasoner as reasoner_module
from soa_hitlcps.broker import (
    DiscoveryRequest,
    ServiceBroker,
    compile_request,
    parse_discovery_request,
    score,
)
from soa_hitlcps.errors import (
    CyclicSubclassError,
    DeclarationConflictError,
    EmptyCriteriaError,
    InputSignatureMismatchError,
    InvalidStateError,
    ParseError,
    RatingOutOfRangeError,
    SoaHitlcpsError,
    UnknownPrefixError,
    UnknownServiceError,
)
from soa_hitlcps.kb import (
    DEFAULT_PREFIX,
    JOURNAL_LIMIT,
    TYPE_PRED,
    Iri,
    ClassAxiom,
    Conjunction,
    MetaAnnotation,
    NamedClass,
    Pattern,
    SomeValues,
    iri,
    parse_document,
    serialize,
    string,
    term_sort_key,
)
from soa_hitlcps.query import And, Eq, InSet, Var, format_query, parse_query, query_equivalent
from soa_hitlcps.reasoner import materialize, refresh
from soa_hitlcps.registry import COMPLETED, FAILED, REJECTED, RUNNING, ServiceRegistry
from soa_hitlcps.schema import (
    AtomicType,
    PotentialService,
    PropertyBundle,
    QoS,
    ServiceProfile,
    UnlockRule,
    capability_node,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
)

DAVID_CAP = """\
SKILL Complex_Problem_Solving 6
KNOWLEDGE Medicine_and_Dentistry
CONTEXT siteB
"""

ERIN_CAP = """\
SKILL Monitoring 4
KNOWLEDGE Psychology
CONTEXT siteB
"""

CHAT_DOCTOR = """\
SERVICE chatDoctor
PROVIDER David
KIND processing
INPUT patient PhysicalThing
OUTPUT advice Output
PRECONDITION ?patient a PhysicalThing
EFFECT ADD ?patient advisedBy David
CONTEXT siteB
QOS reputation=4.5 cost=10 response_time=5
PARALLELISM 1
DECLARE advisedBy PhysicalThing PhysicalThing
"""

ERIN_WATCH = """\
SERVICE erinWatch
PROVIDER Erin
KIND sensing
OUTPUT reading Output
CONTEXT siteB
QOS reputation=4 cost=5 response_time=10
"""


def build_world():
    registry = ServiceRegistry()
    cap, contexts = parse_human_capability(DAVID_CAP)
    registry.register_human(iri("David"), cap, contexts)
    cap, contexts = parse_human_capability(ERIN_CAP)
    registry.register_human(iri("Erin"), cap, contexts)
    registry.register_human(iri("Adam"), parse_human_capability("")[0], (iri("siteQ"),))
    profile, provider = parse_service_profile(CHAT_DOCTOR)
    registry.publish_service(profile, provider)
    profile, provider = parse_service_profile(ERIN_WATCH)
    registry.publish_service(profile, provider)
    return registry, ServiceBroker(registry)


REFERENCE_REQUEST = DiscoveryRequest(
    required_skills=((iri("Complex_Problem_Solving"), None),),
    required_knowledge=(iri("Medicine_and_Dentistry"), iri("Therapy_and_Counseling")),
)


# -- request compilation ------------------------------------------------------------


def test_compile_matches_reference_query():
    compiled = compile_request(REFERENCE_REQUEST)
    assert query_equivalent(compiled, parse_query(DISCOVERY_QUERY))


def test_compile_context_variant():
    request = DiscoveryRequest(
        required_skills=((iri("Cardiac_output_CO_monitoring_units_or_accessories"), None),),
        context_constraints=(iri("siteA"),),
    )
    compiled = compile_request(request)
    predicates = [p.predicate for p in compiled.patterns]
    assert predicates == [
        iri("presents"),
        iri("hasProperty"),
        iri("includeCapability"),
        iri("includeContext"),
        iri("hasHumanSkill"),
    ]
    assert compiled.patterns[3] == Pattern(Var("property"), iri("includeContext"), Var("context"))
    assert compiled.filter == And((
        Eq("context", iri("siteA")),
        Eq("skill", iri("Cardiac_output_CO_monitoring_units_or_accessories")),
    ))


def test_compile_multi_skill_vars():
    request = DiscoveryRequest(
        required_skills=((iri("Monitoring"), None), (iri("Troubleshooting"), 3)),
    )
    compiled = compile_request(request)
    assert compiled.patterns[-2].object == Var("skill")
    assert compiled.patterns[-1].object == Var("skill2")
    assert compiled.filter == And((
        Eq("skill", iri("Monitoring")),
        Eq("skill2", iri("Troubleshooting")),
    ))


def test_compile_kind_pattern():
    compiled = compile_request(DiscoveryRequest(service_kind="composite", context_constraints=(iri("siteB"),)))
    assert compiled.patterns[-1] == Pattern(Var("service"), TYPE_PRED, iri("CompositeService"))
    assert compiled.filter == Eq("context", iri("siteB"))
    sensing = compile_request(DiscoveryRequest(service_kind="sensing"))
    assert sensing.patterns[3:] == (Pattern(Var("service"), TYPE_PRED, iri("SensingService")),)
    # an unknown kind matches no service, so there is no query to run
    assert compile_request(DiscoveryRequest(service_kind="Service")) is None
    _, broker = build_world()
    assert broker.discover(DiscoveryRequest(service_kind="Service")) == []


def test_parse_flat_request():
    request = parse_discovery_request(
        "DISCOVER skill=Complex_Problem_Solving:6 "
        "knowledge=Medicine_and_Dentistry,Therapy_and_Counseling "
        "context=siteA kind=processing qos.min_reputation=4"
    )
    assert request.required_skills == ((iri("Complex_Problem_Solving"), 6),)
    assert request.required_knowledge == (
        iri("Medicine_and_Dentistry"), iri("Therapy_and_Counseling"),
    )
    assert request.context_constraints == (iri("siteA"),)
    assert request.service_kind == "processing"
    assert request.qos_constraints == (("min_reputation", Decimal("4")),)


def test_parse_flat_request_rejects_junk():
    with pytest.raises(EmptyCriteriaError):
        parse_discovery_request("DISCOVER")
    with pytest.raises(EmptyCriteriaError):
        parse_discovery_request("DISCOVER banana")
    with pytest.raises(EmptyCriteriaError):
        parse_discovery_request("DISCOVER wavelength=3")
    with pytest.raises(EmptyCriteriaError):
        DiscoveryRequest()


# -- discovery and ranking -------------------------------------------------------------


def test_reference_discovery_finds_chat_doctor():
    _, broker = build_world()
    ranked = broker.discover(REFERENCE_REQUEST)
    assert [r.service for r in ranked] == [iri("chatDoctor")]
    assert ranked[0].provider == iri("David")
    assert ranked[0].score == Decimal("0.9042")


def test_score_oracle_values():
    assert score(Decimal("4.5"), Decimal("10"), Decimal("5")) == Decimal("0.9042")
    assert score(Decimal("5"), Decimal("0"), Decimal("0")) == Decimal("1.0000")
    assert score(Decimal("0"), Decimal("100"), Decimal("60")) == Decimal("0.0000")
    # saturation: beyond the caps the penalty stops growing
    assert score(Decimal("5"), Decimal("200"), Decimal("120")) == Decimal("0.5000")


def test_ranking_and_tiebreak():
    registry, broker = build_world()
    for name, reputation in (("aTwin", "4"), ("bTwin", "4"), ("cBest", "5")):
        profile, _ = parse_service_profile(
            f"SERVICE {name}\nKIND processing\nQOS reputation={reputation} cost=10 response_time=5\n"
        )
        registry.publish_service(profile, iri("David"))
    request = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), None),))
    ranked = broker.discover(request)
    names = [r.service for r in ranked]
    assert names.index(iri("cBest")) == 0
    assert names.index(iri("aTwin")) < names.index(iri("bTwin"))


def test_min_scale_filters_humans():
    _, broker = build_world()
    strict = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), 7),))
    assert broker.discover(strict) == []
    exact = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), 6),))
    assert [r.service for r in broker.discover(exact)] == [iri("chatDoctor")]


def test_kind_filter():
    _, broker = build_world()
    sensing = DiscoveryRequest(service_kind="sensing")
    assert [r.service for r in broker.discover(sensing)] == [iri("erinWatch")]
    processing = DiscoveryRequest(service_kind="processing")
    assert [r.service for r in broker.discover(processing)] == [iri("chatDoctor")]


def test_qos_constraint_filter():
    _, broker = build_world()
    request = DiscoveryRequest(
        required_skills=((iri("Complex_Problem_Solving"), None),),
        qos_constraints=(("min_reputation", Decimal("4.6")),),
    )
    assert broker.discover(request) == []
    request = DiscoveryRequest(
        required_skills=((iri("Complex_Problem_Solving"), None),),
        qos_constraints=(("max_cost", Decimal("5")),),
    )
    assert broker.discover(request) == []


def test_adding_criteria_never_grows_results():
    _, broker = build_world()
    loose = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), None),))
    tight = DiscoveryRequest(
        required_skills=((iri("Complex_Problem_Solving"), None),),
        required_knowledge=(iri("Therapy_and_Counseling"),),
    )
    loose_services = {r.service for r in broker.discover(loose)}
    tight_services = {r.service for r in broker.discover(tight)}
    assert tight_services <= loose_services


def test_time_window_limitation_in_discovery():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE nightShift\nKIND processing\nQOS reputation=4\nLIMITATION time_window 0 100\n"
    )
    registry.publish_service(profile, iri("David"))
    request = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), None),))
    found_any_time = {r.service for r in broker.discover(request)}
    assert iri("nightShift") in found_any_time  # no clock given, window not enforced
    found_late = {r.service for r in broker.discover(request, now=150)}
    assert iri("nightShift") not in found_late
    found_early = {r.service for r in broker.discover(request, now=50)}
    assert iri("nightShift") in found_early


def test_withdrawn_service_not_discovered():
    registry, broker = build_world()
    registry.withdraw_service(iri("chatDoctor"))
    assert broker.discover(REFERENCE_REQUEST) == []


# -- invocation -----------------------------------------------------------------------


def test_a_presented_service_the_registry_holds_no_record_for_is_skipped():
    # A .kb file may present a service with no provider, so from_kb reads no record for it.
    registry, _ = build_world()
    registry.kb.remove_statement(iri("erinWatch"), iri("providedBy"), iri("Erin"))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert iri("erinWatch") not in reloaded.services
    request = DiscoveryRequest(service_kind="sensing")
    assert materialize(reloaded.kb).match(Pattern(iri("erinWatch"), iri("presents"), Var("profile")))
    assert ServiceBroker(reloaded).discover(request) == []


def test_a_minimum_scale_passes_a_provider_that_is_not_a_human():
    # Scales describe human proficiency only: a machine whose capability the
    # graph links to a skill keeps its service under any minimum.
    registry, broker = build_world()
    registry.register_machine(iri("Robo"), parse_machine_capability("PROGRAMMED_SKILL Monitoring\n")[0])
    registry.kb.add_statement(capability_node(iri("Robo")), iri("hasHumanSkill"), iri("Complex_Problem_Solving"))
    registry.publish_service(*parse_service_profile("SERVICE roboTriage\nPROVIDER Robo\nKIND processing\n"))
    strict = DiscoveryRequest(required_skills=((iri("Complex_Problem_Solving"), 7),))
    assert [r.service for r in broker.discover(strict)] == [iri("roboTriage")]


def test_invoke_complete_applies_effects_and_rating():
    registry, broker = build_world()
    invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    assert invocation.status == RUNNING
    fact = Pattern(iri("Adam"), iri("advisedBy"), iri("David"))
    assert not registry.kb.match(fact)
    broker.complete_invocation(invocation, rating=Decimal("5"))
    assert invocation.status == COMPLETED
    assert registry.kb.match(fact)
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("5.00")


def test_invoke_failed_applies_no_effects():
    registry, broker = build_world()
    invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    broker.complete_invocation(invocation, outcome=FAILED, rating=Decimal("1"))
    assert invocation.status == FAILED
    assert not registry.kb.match(Pattern(iri("Adam"), iri("advisedBy"), iri("David")))
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("1.00")


def test_invoke_signature_checks():
    _, broker = build_world()
    with pytest.raises(UnknownServiceError):
        broker.invoke(iri("ghost"), iri("Cathy"), {})
    with pytest.raises(InputSignatureMismatchError):
        broker.invoke(iri("chatDoctor"), iri("Cathy"), {})
    with pytest.raises(InputSignatureMismatchError):
        broker.invoke(iri("chatDoctor"), iri("Cathy"),
                      {"patient": iri("Adam"), "extra": iri("Adam")})
    with pytest.raises(InputSignatureMismatchError):
        # a Context individual is not a PhysicalThing
        broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("siteQ")})


def test_invoke_capacity():
    _, broker = build_world()
    first = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    assert first.status == RUNNING
    second = broker.invoke(iri("chatDoctor"), iri("Erin"), {"patient": iri("Adam")})
    assert second.status == REJECTED
    assert second.reason == "at_capacity"
    broker.complete_invocation(first)
    third = broker.invoke(iri("chatDoctor"), iri("Erin"), {"patient": iri("Adam")})
    assert third.status == RUNNING


def test_invoke_location_limitation():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE localHelp\nKIND processing\nQOS reputation=4\nLIMITATION location siteB\n"
    )
    registry.publish_service(profile, iri("David"))
    rejected = broker.invoke(iri("localHelp"), iri("Adam"), {})  # Adam is at siteQ
    assert rejected.status == REJECTED
    assert rejected.reason == "limitation"
    accepted = broker.invoke(iri("localHelp"), iri("Erin"), {})  # Erin is at siteB
    assert accepted.status == RUNNING


def test_invoke_max_distance_limitation_by_co_location_with_its_anchor():
    registry, broker = build_world()
    registry.publish_service(*parse_service_profile(
        "SERVICE nearbyHelp\nPROVIDER David\nKIND processing\nLIMITATION max_distance 40 siteB\n"))
    rejected = broker.invoke(iri("nearbyHelp"), iri("Adam"), {})  # Adam is at siteQ
    assert (rejected.status, rejected.reason) == (REJECTED, "limitation")
    assert broker.invoke(iri("nearbyHelp"), iri("Erin"), {}).status == RUNNING  # Erin is at siteB


def test_invoke_time_window_limitation():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE dayShift\nKIND processing\nQOS reputation=4\nLIMITATION time_window 10 20\n"
    )
    registry.publish_service(profile, iri("David"))
    rejected = broker.invoke(iri("dayShift"), iri("Erin"), {}, now=30)
    assert (rejected.status, rejected.reason) == (REJECTED, "limitation")
    accepted = broker.invoke(iri("dayShift"), iri("Erin"), {}, now=15)
    assert accepted.status == RUNNING


def test_invoke_precondition_rejection_and_binding_capture():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE follower\nKIND processing\n"
        "INPUT patient PhysicalThing\n"
        "PRECONDITION ?patient advisedBy ?advisor\n"
        "EFFECT ADD ?advisor performs followUp\n"
        "QOS reputation=4\n"
        "DECLARE advisedBy PhysicalThing PhysicalThing\n"
    )
    registry.publish_service(profile, iri("David"))
    rejected = broker.invoke(iri("follower"), iri("Erin"), {"patient": iri("Adam")})
    assert (rejected.status, rejected.reason) == (REJECTED, "precondition")
    registry.kb.add_statement(iri("Adam"), iri("advisedBy"), iri("David"))
    invocation = broker.invoke(iri("follower"), iri("Erin"), {"patient": iri("Adam")})
    assert invocation.status == RUNNING
    assert invocation.bindings == {"advisor": iri("David")}
    broker.complete_invocation(invocation)
    assert registry.kb.match(Pattern(iri("David"), iri("performs"), iri("followUp")))


def test_preconditions_are_one_join_whatever_their_order():
    # The first precondition alone matches Ann first, whose site fails the
    # second; only the joint binding decides, so reordering them (as a
    # reload in term order does) cannot change the outcome.
    registry = ServiceRegistry()
    for name, site in (("Nia", "siteB"), ("Ann", "siteA"), ("Pat", "siteB")):
        registry.register_human(iri(name), parse_human_capability("")[0], (iri(site),))
    profile, provider = parse_service_profile(
        "SERVICE watch\nPROVIDER Nia\nKIND sensing\n"
        "PRECONDITION ?consumer hasContext ?site\nPRECONDITION ?a hasContext ?site\n"
    )
    registry.publish_service(profile, provider)
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    assert reloaded.services[iri("watch")].profile.preconditions == profile.preconditions[::-1]
    for each in (registry, reloaded):
        assert ServiceBroker(each).invoke(iri("watch"), iri("Adam")).reason == "precondition"
        invocation = ServiceBroker(each).invoke(iri("watch"), iri("Pat"))
        assert invocation.status == RUNNING
        assert invocation.bindings == {"site": iri("siteB"), "a": iri("Nia")}


def test_a_reload_books_what_the_live_registry_books():
    # Adam's two sites each hold a room, so the preconditions bind twice;
    # the reload reads them back in another order, yet the invocation must
    # capture, and its effect write, the same room.
    registry = ServiceRegistry()
    registry.register_human(iri("Nia"), parse_human_capability("")[0])
    registry.register_human(iri("Adam"), parse_human_capability("")[0], (iri("siteQ"), iri("siteR")))
    registry.publish_service(*parse_service_profile(
        "SERVICE booking\nPROVIDER Nia\nKIND processing\n"
        "PRECONDITION ?room inSite ?site\nPRECONDITION ?consumer hasContext ?site\n"
        "EFFECT ADD ?consumer bookedRoom ?room\n"
        "DECLARE inSite Thing Thing\nDECLARE bookedRoom Thing Thing\n"
    ))
    registry.kb.add_statement(iri("roomA"), iri("inSite"), iri("siteR"))
    registry.kb.add_statement(iri("roomB"), iri("inSite"), iri("siteQ"))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    for each in (registry, reloaded):
        broker = ServiceBroker(each)
        invocation = broker.invoke(iri("booking"), iri("Adam"))
        assert invocation.bindings == {"room": iri("roomA"), "site": iri("siteR")}
        broker.complete_invocation(invocation)
        assert each.kb.match(Pattern(iri("Adam"), iri("bookedRoom"), Var("room"))) == [{"room": iri("roomA")}]


def test_republishing_after_a_reload_compares_the_profile_the_graph_stores():
    # The reload reads the preconditions back in term order; publishing the
    # same file again must still find it the same profile.
    text = ("SERVICE watch\nPROVIDER Nia\nKIND sensing\n"
            "PRECONDITION ?consumer hasContext ?site\nPRECONDITION ?a hasContext ?site\n")
    registry = ServiceRegistry()
    for name, site in (("Nia", "siteB"), ("Pat", "siteB")):
        registry.register_human(iri(name), parse_human_capability("")[0], (iri(site),))
    registry.publish_service(*parse_service_profile(text))
    reloaded = ServiceRegistry.from_kb(parse_document(serialize(registry.kb)))
    for each in (registry, reloaded):
        each.withdraw_service(iri("watch"))
        each.publish_service(*parse_service_profile(text))
    assert reloaded.kb == registry.kb
    request = parse_discovery_request("DISCOVER kind=sensing")
    assert ServiceBroker(reloaded).discover(request) == ServiceBroker(registry).discover(request) != []


def test_an_effect_written_capability_fact_reaches_discovery_and_unlock_rules():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE study\nKIND processing\nEFFECT ADD davidCapability hasHumanKnowledge Psychology\n"
    )
    registry.publish_service(profile, iri("Erin"))
    template = ServiceProfile(iri("counseling"), AtomicType("communicating"),
                              PropertyBundle(qos=QoS(Decimal("4"), Decimal("5"), Decimal("10"))))
    rule = UnlockRule(required_knowledge=(iri("Psychology"),))
    registry.add_potential(iri("David"), PotentialService(template, rule))
    psychology = parse_discovery_request("DISCOVER knowledge=Psychology")
    assert iri("chatDoctor") not in [r.service for r in broker.discover(psychology)]
    assert registry.unlock_potential(iri("David")) == []
    broker.complete_invocation(broker.invoke(iri("study"), iri("Adam")))
    assert iri("chatDoctor") in [r.service for r in broker.discover(psychology)]
    assert registry.unlock_potential(iri("David")) == [iri("counseling")]


def test_effect_deleting_the_presents_link_withdraws_the_service():
    registry, broker = build_world()
    profile, _ = parse_service_profile(
        "SERVICE retire\nKIND processing\nEFFECT DEL chatDoctor presents chatDoctorProfile\n"
    )
    registry.publish_service(profile, iri("David"))
    broker.complete_invocation(broker.invoke(iri("retire"), iri("Erin")))
    assert not registry.is_published(iri("chatDoctor"))
    assert registry.published_services() == [iri("erinWatch"), iri("retire")]
    assert [r.service for r in broker.discover(REFERENCE_REQUEST)] == [iri("retire")]
    with pytest.raises(InvalidStateError):
        broker.invoke(iri("chatDoctor"), iri("Erin"), {"patient": iri("Adam")})
    with pytest.raises(InvalidStateError):
        registry.withdraw_service(iri("chatDoctor"))
    registry.publish_service(parse_service_profile(CHAT_DOCTOR)[0], iri("David"))
    assert [r.service for r in broker.discover(REFERENCE_REQUEST)] == [iri("chatDoctor"), iri("retire")]


def test_effect_removal():
    registry, broker = build_world()
    registry.kb.add_statement(iri("Adam"), iri("performs"), iri("waiting"))
    profile, _ = parse_service_profile(
        "SERVICE dequeue\nKIND processing\nINPUT patient PhysicalThing\n"
        "EFFECT DEL ?patient performs waiting\nQOS reputation=4\n"
    )
    registry.publish_service(profile, iri("David"))
    invocation = broker.invoke(iri("dequeue"), iri("Erin"), {"patient": iri("Adam")})
    broker.complete_invocation(invocation)
    assert not registry.kb.match(Pattern(iri("Adam"), iri("performs"), iri("waiting")))


def test_failed_effects_leave_the_graph_unchanged():
    registry, broker = build_world()
    registry.kb.add_statement(iri("Adam"), iri("consumes"), iri("oldService"))
    profile, _ = parse_service_profile(
        "SERVICE swap\nKIND processing\n"
        "EFFECT DEL ?consumer consumes oldService\n"
        "EFFECT ADD ?consumer undeclaredProp David\n"
        "QOS reputation=4\n"
    )
    registry.publish_service(profile, iri("David"))
    invocation = broker.invoke(iri("swap"), iri("Adam"))
    before = serialize(registry.kb)
    with pytest.raises(DeclarationConflictError):
        broker.complete_invocation(invocation)
    assert serialize(registry.kb) == before
    assert invocation.status == RUNNING
    broker.complete_invocation(invocation, outcome=FAILED)
    assert invocation.status == FAILED
    assert serialize(registry.kb) == before


def test_an_effect_bound_to_a_literal_subject_raises_before_any_write():
    # Once written, ``FACT "a note" knows David`` no longer parsed back.
    registry, broker = build_world()
    registry.publish_service(*parse_service_profile(
        "SERVICE noteTaker\nPROVIDER David\nKIND processing\n"
        "PRECONDITION ?consumer hasNote ?n\nEFFECT ADD ?n knows David\n"
        "EFFECT DEL Adam hasNote ?n\nDECLARE hasNote Thing Thing\nDECLARE knows Thing Thing\n"))
    registry.kb.add_statement(iri("Adam"), iri("hasNote"), string("a note"))
    invocation = broker.invoke(iri("noteTaker"), iri("Adam"))
    assert invocation.bindings == {"n": string("a note")}
    before = registry.kb.copy()
    with pytest.raises(DeclarationConflictError, match="not an Iri"):
        broker.complete_invocation(invocation)
    assert registry.kb == before
    assert invocation.status == RUNNING
    assert parse_document(serialize(registry.kb)) == registry.kb


def test_complete_requires_running():
    _, broker = build_world()
    invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    broker.complete_invocation(invocation)
    with pytest.raises(InvalidStateError):
        broker.complete_invocation(invocation)
    with pytest.raises(InvalidStateError):
        broker.complete_invocation(invocation, outcome="teleported")


def test_complete_rejects_an_unknown_outcome():
    registry, broker = build_world()
    invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    before = serialize(registry.kb)
    with pytest.raises(InvalidStateError, match="unknown outcome"):
        broker.complete_invocation(invocation, outcome="teleported")
    assert invocation.status == RUNNING
    assert serialize(registry.kb) == before


@pytest.mark.parametrize("outcome", [COMPLETED, FAILED])
@pytest.mark.parametrize("rating", ["7", "-1", "5.01"])
def test_a_rating_out_of_range_changes_nothing(outcome, rating):
    # The effects once applied and the status changed before the rating was refused.
    registry, broker = build_world()
    invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
    before = serialize(registry.kb)
    with pytest.raises(RatingOutOfRangeError):
        broker.complete_invocation(invocation, outcome=outcome, rating=Decimal(rating))
    assert (invocation.status, invocation.rating) == (RUNNING, None)
    assert serialize(registry.kb) == before
    broker.complete_invocation(invocation, outcome=outcome, rating=Decimal("5"))
    assert invocation.status == outcome
    assert registry.reputation_of(iri("chatDoctor")) == Decimal("5.00")


def test_an_unbound_effect_variable_raises_before_any_write():
    # Publishing rejects such a profile; from_kb does not validate the profiles it reads.
    registry, _ = build_world()
    registry.kb.add_statement(iri("Adam"), iri("consumes"), iri("oldService"))
    registry.publish_service(*parse_service_profile(
        "SERVICE swap\nPROVIDER David\nKIND processing\n"
        "EFFECT ADD ?consumer advisedBy David\nEFFECT DEL ?consumer consumes oldService\n"))
    text = serialize(registry.kb)
    assert text.count('"DEL ?consumer consumes oldService"') == 1
    reloaded = ServiceRegistry.from_kb(parse_document(text.replace("DEL ?consumer", "DEL ?nobody")))
    broker = ServiceBroker(reloaded)
    invocation = broker.invoke(iri("swap"), iri("Adam"))
    before = serialize(reloaded.kb)
    with pytest.raises(InvalidStateError, match=r"effect variable \?nobody is unbound"):
        broker.complete_invocation(invocation)
    assert serialize(reloaded.kb) == before
    assert invocation.status == RUNNING


def test_invocation_ledger_is_conserved():
    registry, broker = build_world()
    outcomes = []
    for index in range(6):
        invocation = broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": iri("Adam")})
        outcomes.append(invocation)
        if invocation.status == RUNNING and index % 2 == 0:
            broker.complete_invocation(invocation)
    ids = [inv.id for inv in registry.invocations]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    by_status = {}
    for invocation in registry.invocations:
        by_status[invocation.status] = by_status.get(invocation.status, 0) + 1
    assert sum(by_status.values()) == len(registry.invocations) == 6


def _random_write(rng, kb, step):
    """One call to one of the knowledge base's write methods, mostly effective."""
    classes = sorted(kb.class_decls)
    individuals = sorted(kb.individuals())
    props = sorted(kb.property_decls)
    fresh = iri(f"K{step}")
    method = rng.choice((
        "add_prefix", "add_class", "add_subclass", "add_property", "add_disjoint", "add_axiom",
        "add_annotation", "add_type", "remove_type", "add_statement", "remove_statement",
    ))
    if method == "add_prefix":
        kb.add_prefix(f"ex{step}", f"http://example.org/{step}#")
    elif method == "add_class":
        kb.add_class(fresh)
    elif method == "add_subclass":
        kb.add_subclass(fresh, rng.choice(classes))
    elif method == "add_property":
        kb.add_property(iri(f"p{step}"), rng.choice(classes), rng.choice(classes))
    elif method == "add_disjoint":
        kb.add_disjoint(fresh, rng.choice(classes))
    elif method == "add_axiom":
        body = NamedClass(rng.choice(classes))
        if rng.random() < 0.5:
            body = Conjunction((body, SomeValues(rng.choice(props), rng.choice(classes))))
        kb.add_axiom(ClassAxiom(body, rng.choice(classes + [fresh])))
    elif method == "add_annotation":
        kb.add_annotation(MetaAnnotation(fresh, rigidity="~R"))
    elif method == "add_type":
        kb.add_type(rng.choice(individuals), rng.choice(classes))
    elif method == "remove_type":
        kb.remove_type(*rng.choice(sorted(kb.type_assertions)))
    elif method == "add_statement":
        kb.add_statement(rng.choice(individuals), rng.choice(props), rng.choice(individuals))
    else:
        stmt = rng.choice(sorted(kb.statements, key=lambda s: (s.subject, s.predicate, term_sort_key(s.object))))
        kb.remove_statement(stmt.subject, stmt.predicate, stmt.object)


def test_closure_cache_matches_fresh_materialize_under_random_writes(monkeypatch):
    rebuilds = []
    monkeypatch.setattr(broker_module, "materialize", lambda kb: rebuilds.append(kb) or materialize(kb))
    rng = random.Random(4104)
    registry, broker = build_world()
    requests = [REFERENCE_REQUEST, parse_discovery_request("DISCOVER kind=processing"),
                parse_discovery_request("DISCOVER context=siteB")]
    for step in range(200):
        roll = rng.random()
        if roll < 0.5:
            _random_write(rng, registry.kb, step)
        elif roll < 0.65:
            broker.discover(rng.choice(requests), now=rng.randint(0, 20))
        elif roll < 0.85:
            with contextlib.suppress(SoaHitlcpsError):
                if rng.random() < 0.5:
                    patient = rng.choice((iri("Adam"), iri("Erin")))
                    broker.invoke(iri("chatDoctor"), iri("Cathy"), {"patient": patient}, now=rng.randint(0, 20))
                else:
                    broker.invoke(iri("erinWatch"), iri("Adam"), {}, now=rng.randint(0, 20))
        else:
            running = [inv for inv in registry.invocations if inv.status == RUNNING]
            if running:
                with contextlib.suppress(SoaHitlcpsError):
                    broker.complete_invocation(rng.choice(running), rng.choice((COMPLETED, FAILED)),
                                               rating=rng.choice((None, Decimal("3"))))
        assert broker._closure() == materialize(registry.kb)
        # reads with no write in between share the closure
        before = len(rebuilds)
        broker.discover(rng.choice(requests))
        with contextlib.suppress(SoaHitlcpsError):
            broker.invoke(iri("erinWatch"), iri("Adam"), {})
        assert len(rebuilds) == before


GRANT = """\
SERVICE grant
KIND processing
INPUT patient PhysicalThing
EFFECT DEL ?patient advisedBy David
EFFECT ADD ?patient hasCapability zedSkill
QOS reputation=4
DECLARE advisedBy PhysicalThing PhysicalThing
"""

REVOKE = """\
SERVICE revoke
KIND processing
INPUT patient PhysicalThing
EFFECT DEL ?patient hasCapability zedSkill
QOS reputation=4
"""


def _counting_rebuilds(monkeypatch) -> list:
    rebuilds = []
    monkeypatch.setattr(broker_module, "materialize", lambda kb: rebuilds.append(kb) or materialize(kb))
    return rebuilds


def test_closure_is_built_once_per_registry_and_kept_current_by_replay(monkeypatch):
    rebuilds = _counting_rebuilds(monkeypatch)
    replayed = set()
    monkeypatch.setattr(broker_module, "refresh", lambda closed, kb, edits: (
        replayed.update(added for added, _ in edits) or refresh(closed, kb, edits)))
    registry, broker = build_world()
    kb = registry.kb
    # Zed is Human only while it has a human capability, and zedDesk, which
    # Zed provides, is a HumanService only while Zed is Human
    kb.add_type(iri("Zed"), iri("PhysicalThing"))
    kb.add_type(iri("zedSkill"), iri("HumanCapability"))
    kb.add_type(iri("zedDesk"), iri("Service"))
    kb.add_statement(iri("zedDesk"), iri("providedBy"), iri("Zed"))
    for text in (GRANT, REVOKE):
        registry.publish_service(parse_service_profile(text)[0], iri("David"))
    human_service = set()
    for step in range(12):
        service = ("chatDoctor", "grant", "revoke")[step % 3]
        invocation = broker.invoke(iri(service), iri("Cathy"), {"patient": iri("Zed")}, now=step)
        assert invocation.status == RUNNING
        broker.complete_invocation(invocation, rating=Decimal(step % 5 + 1))
        # the plumbing properties are declared already: a rating declares
        # none, so the journal stays armed
        journal = kb.journal
        assert journal is broker._cache[0]
        closed = broker._closure()
        assert closed == materialize(kb) and kb.journal is journal
        human_service.add(iri("HumanService") in closed.types_of(iri("zedDesk")))
    assert human_service == {True, False}
    # effects add and delete facts
    assert replayed == {True, False}
    assert len(rebuilds) == 1

    # a declaration that succeeds costs one rebuild, held already or not;
    # one that raises, and a graph edit, cost none
    for write, rebuilt, error in (
        (lambda: kb.add_subclass(iri("Triage"), iri("Service")), True, None),
        (lambda: kb.add_subclass(iri("Urgent"), iri("Triage")), True, None),
        (lambda: kb.add_subclass(iri("Urgent"), iri("Service")), True, None),  # held already
        (lambda: kb.add_subclass(iri("Service"), iri("Urgent")), False, CyclicSubclassError),
        (lambda: kb.add_axiom(ClassAxiom(NamedClass(iri("Urgent")), iri("HumanService"))), True, None),
        (lambda: kb.add_axiom(ClassAxiom(NamedClass(iri("Urgent")), iri("HumanService"))), True, None),
        (lambda: kb.add_property(iri("note"), iri("PhysicalThing"), iri("Service")), True, None),
        (lambda: kb.add_property(iri("note"), iri("Service"), iri("Service")), False, DeclarationConflictError),
        (lambda: kb.add_type(iri("zedDesk"), iri("Urgent")), False, None),
    ):
        before = len(rebuilds)
        with pytest.raises(error) if error else contextlib.nullcontext():
            write()
        broker.discover(REFERENCE_REQUEST)
        broker.invoke(iri("erinWatch"), iri("Adam"), {})
        assert broker._closure() == materialize(kb)
        assert len(rebuilds) == before + rebuilt
    assert iri("HumanService") in broker._closure().types_of(iri("zedDesk"))


def test_a_rating_re_derives_only_its_new_experience_node(monkeypatch):
    # A rating writes one Experience type and facts no axiom quantifies, so
    # refreshing the closure re-derives that one node and nothing it reaches.
    rederived = []
    apply_axioms = reasoner_module._apply_axioms
    monkeypatch.setattr(reasoner_module, "_apply_axioms", lambda out, ancestors, candidates, quantified: (
        rederived.append(set(candidates)) or apply_axioms(out, ancestors, candidates, quantified)))
    registry, broker = build_world()
    kb = registry.kb
    experiences = lambda: {i for i, c in kb.type_assertions if c == iri("Experience")}
    invocation = broker.invoke(iri("erinWatch"), iri("Adam"), {})  # no effects
    assert invocation.status == RUNNING
    known = experiences()
    rederived.clear()
    broker.complete_invocation(invocation, rating=Decimal("4"))
    (node,) = experiences() - known
    closed = broker._closure()
    assert rederived == [{node}]
    assert closed == materialize(kb)


def test_a_journal_is_never_shared_between_followers(monkeypatch):
    rebuilds = _counting_rebuilds(monkeypatch)
    registry, first = build_world()
    second = ServiceBroker(registry)
    kb = registry.kb
    for step in range(6):
        kb.add_statement(iri("Adam"), iri("hasContext"), iri(f"site{step}"))
        for broker in (first, second):
            assert broker._closure() == materialize(kb)
            assert kb.journal is broker._cache[0]
    # each follower took the journal over from the other: a rebuild per read
    assert len(rebuilds) == 12
    kb.add_statement(iri("Adam"), iri("hasContext"), iri("siteZ"))
    assert second._closure() == materialize(kb)
    assert len(rebuilds) == 12


def test_a_journal_nobody_drains_is_disarmed(monkeypatch):
    rebuilds = _counting_rebuilds(monkeypatch)
    registry, broker = build_world()
    kb = registry.kb
    broker._closure()
    for step in range(JOURNAL_LIMIT + 1):
        kb.add_statement(iri("Adam"), iri("hasContext"), iri(f"site{step}"))
    assert kb.journal is None
    assert broker._closure() == materialize(kb)
    assert len(rebuilds) == 2
    assert len(kb.journal) == 0


# -- composition -------------------------------------------------------------------------


def test_compose_chains_io_types():
    registry, broker = build_world()
    steps = (
        ("stepSense", "", "raw Reading"),
        ("stepClean", "raw Reading", "clean Reading2"),
        ("stepJudge", "clean Reading2", "verdict Verdict"),
    )
    for name, inp, outp in steps:
        lines = [f"SERVICE {name}", "KIND processing", "QOS reputation=4"]
        if inp:
            lines.append(f"INPUT {inp}")
        lines.append(f"OUTPUT {outp}")
        profile, _ = parse_service_profile("\n".join(lines) + "\n")
        registry.publish_service(profile, iri("David"))
    plan = broker.compose((), (iri("Verdict"),))
    assert plan == [iri("stepSense"), iri("stepClean"), iri("stepJudge")]


def test_compose_unreachable_returns_none():
    _, broker = build_world()
    assert broker.compose((), (iri("Unobtainium"),)) is None


def test_compose_prefers_ascending_names_on_ties():
    registry, broker = build_world()
    for name in ("bMaker", "aMaker"):
        profile, _ = parse_service_profile(
            f"SERVICE {name}\nKIND processing\nOUTPUT thing Widget\nQOS reputation=4\n"
        )
        registry.publish_service(profile, iri("David"))
    assert broker.compose((), (iri("Widget"),)) == [iri("aMaker")]


# -- request criteria and effects that other tests do not reach ---------------------------


def test_parse_flat_request_reads_every_list_and_rejects_names_outside_the_rule():
    request = parse_discovery_request(
        "DISCOVER skill=Complex_Problem_Solving:6,Monitoring,zz:Judgment:2 ability=Reaction_Time "
        "input=PhysicalThing output=Output,zz:Report")
    assert request.required_skills == ((iri("Complex_Problem_Solving"), 6), (iri("Monitoring"), None),
                                       (Iri("zz", "Judgment"), 2))
    assert request.required_abilities == (iri("Reaction_Time"),)
    assert request.io_signature == ((iri("PhysicalThing"),), (iri("Output"), Iri("zz", "Report")))
    for word in ("skill=Monitoring:²", "skill=Monitoring:٣", "skill=:3", "knowledge=Head/Discomfort",
                 "context=a,,b", "output=9x", "qos.max_cost=1e2", "qos.max_cost=Infinity",
                 "qos.min_reputation=.5", "qos.max_response_time=+2", "=x"):
        with pytest.raises(EmptyCriteriaError, match="malformed criterion"):
            parse_discovery_request(f"DISCOVER {word}")


def test_discover_by_output_drops_a_candidate_without_it():
    registry, broker = build_world()
    profile, _ = parse_service_profile("SERVICE erinIdle\nKIND sensing\nCONTEXT siteB\nQOS reputation=5\n")
    registry.publish_service(profile, iri("Erin"))
    every = broker.discover(parse_discovery_request("DISCOVER context=siteB"))
    assert {r.service for r in every} == {iri("chatDoctor"), iri("erinIdle"), iri("erinWatch")}
    ranked = broker.discover(parse_discovery_request(
        "DISCOVER context=siteB input=PhysicalThing output=Output"))
    assert [r.service for r in ranked] == [iri("chatDoctor"), iri("erinWatch")]


def test_effect_deleting_a_type_assertion():
    registry, broker = build_world()
    registry.kb.add_type(iri("Adam"), iri("Waiting"))
    profile, _ = parse_service_profile(
        "SERVICE admit\nKIND processing\nINPUT patient PhysicalThing\n"
        "EFFECT DEL ?patient a Waiting\nQOS reputation=4\n"
    )
    registry.publish_service(profile, iri("David"))
    invocation = broker.invoke(iri("admit"), iri("Erin"), {"patient": iri("Adam")})
    assert invocation.status == RUNNING
    broker.complete_invocation(invocation)
    assert (iri("Adam"), iri("Waiting")) not in registry.kb.type_assertions
    assert (iri("Adam"), iri("PhysicalThing")) in registry.kb.type_assertions


# -- the errors a discover raises for the names of its request --------------------------


@pytest.mark.parametrize("criteria", ["skill=zz:Bar", "knowledge=zz:Bar", "context=zz:Bar",
                                      "knowledge=Psychology,zz:Bar", "skill=Monitoring context=siteB,zz:Bar"])
def test_discover_of_an_undeclared_prefix_raises(criteria):
    _, broker = build_world()
    with pytest.raises(UnknownPrefixError, match="unknown prefix: 'zz'"):
        broker.discover(parse_discovery_request(f"DISCOVER {criteria}"))


@pytest.mark.parametrize("criterion, value", [
    ("required_skills", ((Iri(DEFAULT_PREFIX, "Not a name"), None),)),
    ("required_knowledge", (iri("Psychology"), iri("Head/Discomfort"))),
    ("context_constraints", (iri("9x"),)),
    ("required_abilities", (iri(""),)),
])
def test_discover_of_a_request_built_around_a_name_that_is_not_one_raises(criterion, value):
    _, broker = build_world()
    with pytest.raises(ParseError, match="expected a name"):
        broker.discover(DiscoveryRequest(**{criterion: value}))
    parsed = parse_discovery_request("DISCOVER skill=Monitoring")
    with pytest.raises(ParseError, match="expected a name"):
        broker.discover(dataclasses.replace(parsed, **{criterion: value}))


def test_a_parsed_request_compiles_and_ranks_as_the_same_request_built_in_python():
    _, broker = build_world()
    parsed = parse_discovery_request(
        "DISCOVER skill=Complex_Problem_Solving:6,Monitoring knowledge=Medicine_and_Dentistry,Psychology "
        "context=siteA,siteB ability=Reaction_Time kind=processing")
    built = dataclasses.replace(parsed)
    assert built == parsed
    query = compile_request(parsed)
    assert query == compile_request(built)
    assert repr(query) == repr(compile_request(built))
    assert format_query(query) == format_query(compile_request(built))
    assert query.filter.parts[0].values == (iri("siteA"), iri("siteB"))
    for line in ("DISCOVER skill=Complex_Problem_Solving knowledge=Medicine_and_Dentistry,Psychology",
                 "DISCOVER context=siteB kind=sensing", "DISCOVER skill=Monitoring:3"):
        parsed = parse_discovery_request(line)
        assert broker.discover(parsed) == broker.discover(dataclasses.replace(parsed))


@pytest.mark.parametrize("prefix, error", [("zz:q", UnknownPrefixError("zz")), (f"{DEFAULT_PREFIX}:q", ParseError(1, 1, "a name"))])
def test_discover_of_a_prefix_holding_a_colon_raises_what_its_print_reads_as(prefix, error):
    # "zz:q:Bar" reads as prefix "zz" and local "q:Bar", as it did before names carried their Iris
    _, broker = build_world()
    with pytest.raises(type(error), match=re.escape(str(error))):
        broker.discover(DiscoveryRequest(required_knowledge=(Iri(prefix, "Bar"),)))

