"""Service registry: participants, published services, experience records.

The registry keeps typed records (capabilities, profiles, experience) next to
the knowledge base and keeps both in sync: every mutation is projected into
kb facts so that discovery queries, the reasoner, and the metrics all operate
on one graph.  ``ServiceRegistry.from_kb`` rebuilds the typed records from a
previously serialized graph.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Optional

from .errors import (
    DuplicateIndividualError,
    InvalidProfileError,
    InvalidStateError,
    NoCompletedInvocationError,
    RatingOutOfRangeError,
    UnknownProviderError,
    UnknownServiceError,
    UnknownTaxonomyTermError,
)
from .kb import Iri, KnowledgeBase, Literal, Pattern, Var, iri, parse_name, term_sort_key
from .kb import decimal as decimal_literal, string as string_literal
from .schema import (
    ATOMIC_KINDS,
    AtomicType,
    CompositeType,
    ExperienceRecord,
    HumanCapability,
    MachineCapability,
    PotentialService,
    PropertyBundle,
    QoS,
    SKILL_SCALE,
    ServiceProfile,
    TAXONOMY,
    TypedParameter,
    base_ontology,
    capability_node,
    ensure_plumbing,
    parse_flat_limitation,
    parse_flat_pattern,
    profile_nodes,
    project_human,
    project_machine,
    project_profile,
    retract_presentation,
    validate_profile,
)

PUBLISHED = "published"
WITHDRAWN = "withdrawn"

# invocation lifecycle
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
REJECTED = "rejected"
TERMINAL = (COMPLETED, FAILED)


@dataclass
class ServiceRecord:
    profile: ServiceProfile
    provider: Iri
    status: str = PUBLISHED
    reputation: Decimal = Decimal("0")


@dataclass
class Invocation:
    id: int
    service: Iri
    consumer: Iri
    inputs: dict
    status: str = PENDING
    reason: Optional[str] = None
    rating: Optional[Decimal] = None
    bindings: dict = field(default_factory=dict)
    started_at: Optional[int] = None


def _mean_rating(records) -> Decimal:
    total = sum((r.rating for r in records), Decimal("0"))
    return (total / Decimal(len(records))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


class ServiceRegistry:
    def __init__(self, kb: Optional[KnowledgeBase] = None):
        self.kb = kb if kb is not None else base_ontology()
        self.humans: dict = {}
        self.machines: dict = {}
        self.services: dict = {}
        self.experience: dict = {}  # service -> [ExperienceRecord]
        self.potentials: dict = {}  # person -> [PotentialService]
        self.invocations: list = []
        self._next_invocation_id = 1

    # -- participants --------------------------------------------------------

    def register_human(self, person: Iri, cap: HumanCapability, contexts=()) -> Iri:
        if person in self.humans or person in self.machines:
            raise DuplicateIndividualError(f"{person} is already registered")
        node = project_human(self.kb, person, cap, contexts)
        self.humans[person] = cap
        return node

    def register_machine(self, machine: Iri, cap: MachineCapability, contexts=()) -> Iri:
        if machine in self.humans or machine in self.machines:
            raise DuplicateIndividualError(f"{machine} is already registered")
        node = project_machine(self.kb, machine, cap, contexts)
        self.machines[machine] = cap
        return node

    def set_skill_scale(self, person: Iri, skill: Iri, scale: int) -> None:
        cap = self.humans.get(person)
        if cap is None:
            raise UnknownProviderError(str(person))
        if skill not in TAXONOMY.skills:
            raise UnknownTaxonomyTermError(skill)
        if not SKILL_SCALE[0] <= scale <= SKILL_SCALE[1]:
            raise InvalidProfileError(f"skill scale {scale} outside {SKILL_SCALE}")
        node = capability_node(person)
        old = cap.skills.get(skill)
        if old is not None:
            self.kb.remove_statement(node, iri("hasSkillLevel"), string_literal(f"{skill}:{old}"))
        cap.skills[skill] = scale
        self.kb.add_statement(node, iri("hasHumanSkill"), skill)
        self.kb.add_statement(node, iri("hasSkillLevel"), string_literal(f"{skill}:{scale}"))

    def add_learned_knowledge(self, machine: Iri, topic: Iri) -> None:
        cap = self.machines.get(machine)
        if cap is None:
            raise UnknownProviderError(str(machine))
        node = capability_node(machine)
        if topic not in cap.learned_knowledge:
            cap.learned_knowledge.append(topic)
        self.kb.add_type(topic, iri("Knowledge"))
        self.kb.add_statement(node, iri("hasLearnedKnowledge"), topic)

    # -- services --------------------------------------------------------------

    def publish_service(self, profile: ServiceProfile, provider: Iri) -> None:
        if provider not in self.humans and provider not in self.machines:
            raise UnknownProviderError(str(provider))
        validate_profile(profile)
        if profile.properties.capability_ref is None:
            bundle = dataclasses.replace(profile.properties, capability_ref=capability_node(provider))
            profile = dataclasses.replace(profile, properties=bundle)
        existing = self.services.get(profile.service_id)
        if existing is not None:
            if existing.status == PUBLISHED:
                raise DuplicateIndividualError(f"{profile.service_id} is already published")
            if existing.profile != profile:
                raise DuplicateIndividualError(
                    f"{profile.service_id} was withdrawn with a different profile"
                )
            self.kb.add_statement(profile.service_id, iri("presents"), profile_nodes(profile.service_id)[0])
            existing.status = PUBLISHED
            return
        if isinstance(profile.service_type, CompositeType):
            for part in profile.service_type.parts:
                if part not in self.services:
                    raise UnknownServiceError(str(part))
        project_profile(self.kb, profile, provider)
        if provider in self.machines:
            self.kb.add_type(profile.service_id, iri("MachineService"))
        self.services[profile.service_id] = ServiceRecord(
            profile=profile,
            provider=provider,
            reputation=profile.properties.qos.reputation,
        )
        self.experience.setdefault(profile.service_id, [])

    def withdraw_service(self, service: Iri) -> None:
        record = self.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        if record.status == WITHDRAWN:
            raise InvalidStateError(f"{service} is already withdrawn")
        retract_presentation(self.kb, service)
        record.status = WITHDRAWN

    def published_services(self):
        return [s for s, record in sorted(self.services.items()) if record.status == PUBLISHED]

    # -- invocations -----------------------------------------------------------

    def new_invocation(self, service: Iri, consumer: Iri, inputs: dict) -> Invocation:
        invocation = Invocation(self._next_invocation_id, service, consumer, dict(inputs))
        self._next_invocation_id += 1
        self.invocations.append(invocation)
        return invocation

    def running_count(self, service: Iri) -> int:
        return sum(1 for inv in self.invocations if inv.service == service and inv.status == RUNNING)

    # -- experience and reputation ----------------------------------------------

    def record_experience(self, service: Iri, requester: Iri, rating: Decimal,
                          criteria=(), timestamp: int = 0) -> ExperienceRecord:
        """Rate the most recent unrated terminal invocation of ``service``."""
        candidates = [inv for inv in self.invocations
                      if inv.service == service and inv.consumer == requester
                      and inv.status in TERMINAL and inv.rating is None]
        if not candidates:
            raise NoCompletedInvocationError(f"{requester} has no unrated terminal invocation of {service}")
        invocation = candidates[-1]
        record = self.record_experience_for(invocation, rating, criteria, timestamp)
        return record

    def record_experience_for(self, invocation: Invocation, rating: Decimal,
                              criteria=(), timestamp: int = 0) -> ExperienceRecord:
        service = invocation.service
        record_entry = self.services.get(service)
        if record_entry is None:
            raise UnknownServiceError(str(service))
        if invocation.status not in TERMINAL:
            raise InvalidStateError(f"invocation {invocation.id} is {invocation.status}, not terminal")
        rating = Decimal(rating)
        if not Decimal("0") <= rating <= Decimal("5"):
            raise RatingOutOfRangeError(str(rating))
        invocation.rating = rating
        record = ExperienceRecord(
            service=service,
            requester=invocation.consumer,
            rating=rating,
            criteria=tuple(criteria),
            timestamp=timestamp,
        )
        records = self.experience.setdefault(service, [])
        records.append(record)
        self._project_experience(record, record_entry.provider, len(records))
        record_entry.reputation = _mean_rating(records)
        self._update_reputation_fact(service, record_entry.reputation)
        return record

    def _project_experience(self, record: ExperienceRecord, provider: Iri, index: int) -> None:
        ensure_plumbing(self.kb)
        node = Iri(record.service.prefix, f"{record.service.local}Exp{index}")
        while self.kb.statements_about(node):
            index += 1
            node = Iri(record.service.prefix, f"{record.service.local}Exp{index}")
        self.kb.add_type(node, iri("Experience"))
        self.kb.add_statement(node, iri("experienceOf"), record.service)
        self.kb.add_statement(node, iri("ratedBy"), record.requester)
        self.kb.add_statement(node, iri("ratingValue"), decimal_literal(record.rating))
        if record.criteria:
            rendered = ";".join(f"{name}={value}" for name, value in record.criteria)
            self.kb.add_statement(node, iri("hasCriteria"), string_literal(rendered))
        self.kb.add_statement(capability_node(provider), iri("hasExperience"), node)

    def _update_reputation_fact(self, service: Iri, reputation: Decimal) -> None:
        qos_node = profile_nodes(service)[2]
        for binding in self.kb.match(Pattern(qos_node, iri("reputationValue"), Var("v"))):
            self.kb.remove_statement(qos_node, iri("reputationValue"), binding["v"])
        self.kb.add_statement(qos_node, iri("reputationValue"), decimal_literal(reputation))

    def reputation_of(self, service: Iri) -> Decimal:
        record = self.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        return record.reputation

    def provider_experience_count(self, provider: Iri) -> int:
        return sum(
            len(records)
            for service, records in self.experience.items()
            if service in self.services and self.services[service].provider == provider
        )

    # -- potential services -------------------------------------------------------

    def add_potential(self, person: Iri, potential: PotentialService) -> None:
        if person not in self.humans:
            raise UnknownProviderError(str(person))
        self.potentials.setdefault(person, []).append(potential)
        node = Iri(person.prefix, capability_node(person).local.replace("Capability", "Potential"))
        self.kb.add_type(node, iri("Potential"))
        self.kb.add_statement(capability_node(person), iri("hasPotential"), node)
        self.kb.add_type(potential.template.service_id, iri("PotentialService"))
        self.kb.add_statement(node, iri("hasPotentialService"), potential.template.service_id)

    def _rule_satisfied(self, person: Iri, rule) -> bool:
        cap = self.humans[person]
        if rule.required_skill is not None:
            skill, minimum = rule.required_skill
            if cap.skills.get(skill, 0) < minimum:
                return False
        for topic in rule.required_knowledge:
            if topic not in cap.knowledge:
                return False
        if rule.min_experience_count is not None:
            if self.provider_experience_count(person) < rule.min_experience_count:
                return False
        return True

    def unlock_potential(self, person: Iri):
        """Publish every potential service whose unlock rule now holds."""
        if person not in self.humans:
            raise UnknownProviderError(str(person))
        unlocked = []
        remaining = []
        for potential in self.potentials.get(person, []):
            if self._rule_satisfied(person, potential.unlock_rule):
                self.publish_service(potential.template, person)
                unlocked.append(potential.template.service_id)
            else:
                remaining.append(potential)
        self.potentials[person] = remaining
        return unlocked

    # -- rehydration -----------------------------------------------------------

    @classmethod
    def from_kb(cls, kb: KnowledgeBase) -> "ServiceRegistry":
        registry = cls(kb)
        cap_owner = {}
        for binding in kb.match(Pattern(Var("owner"), iri("hasCapability"), Var("cap"))):
            cap_owner[binding["cap"]] = binding["owner"]
        for node, owner in sorted(cap_owner.items()):
            types = kb.types_of(node)
            if iri("HumanCapability") in types:
                registry.humans[owner] = _read_human_capability(kb, node)
            elif iri("MachineCapability") in types:
                registry.machines[owner] = _read_machine_capability(kb, node)
        for binding in sorted(kb.match(Pattern(Var("s"), iri("presents"), Var("p"))),
                              key=lambda b: b["s"]):
            service = binding["s"]
            record = _read_service(kb, service)
            if record is not None:
                registry.services[service] = record
                registry.experience.setdefault(service, [])
        _read_experience(kb, registry)
        return registry


_LEVEL_RE = re.compile(r"^(?P<term>.*):(?P<value>-?\d+)$")


def _objects(kb, node, predicate, kinds=None) -> list:
    """Objects of ``node predicate ?o`` in term order.

    Without ``kinds``, the Iri objects; with ``kinds``, the values of the
    literal objects of those kinds.
    """
    objects = sorted((s.object for s in kb.statements_about(node) if s.predicate == predicate),
                     key=term_sort_key)
    if kinds is None:
        return [o for o in objects if isinstance(o, Iri)]
    return [o.value for o in objects if isinstance(o, Literal) and o.kind in kinds]


_STRING = ("string",)
_NUMBER = ("decimal", "integer")


def _read_levels(kb, node, predicate) -> dict:
    levels = {}
    for rendered in _objects(kb, node, predicate, _STRING):
        match = _LEVEL_RE.match(rendered)
        if match:
            levels[parse_name(match.group("term"))] = int(match.group("value"))
    return levels


def _read_human_capability(kb, node) -> HumanCapability:
    cap = HumanCapability()
    skill_levels = _read_levels(kb, node, iri("hasSkillLevel"))
    cap.skills = {
        skill: skill_levels.get(skill, SKILL_SCALE[0])
        for skill in _objects(kb, node, iri("hasHumanSkill"))
    }
    cap.knowledge = _objects(kb, node, iri("hasHumanKnowledge"))
    ability_levels = _read_levels(kb, node, iri("hasAbilityLevel"))
    cap.abilities = {a: ability_levels.get(a, 1) for a in _objects(kb, node, iri("hasAbility"))}
    perf_levels = _read_levels(kb, node, iri("hasPerformanceLevel"))
    cap.performance_factors = {
        p: perf_levels.get(p, 1) for p in _objects(kb, node, iri("hasPerformanceFactor"))
    }
    education = _objects(kb, node, iri("hasEducation"))
    cap.education = education[0] if education else None
    for rendered in _objects(kb, node, iri("hasPreferenceValue"), _STRING):
        dim, _, value = rendered.partition(":")
        cap.preferences[dim] = value
    return cap


def _read_machine_capability(kb, node) -> MachineCapability:
    spec_nodes = _objects(kb, node, iri("hasSpecification"))
    hardware = software = ()
    if spec_nodes:
        hardware = tuple(_objects(kb, spec_nodes[0], iri("hasHardware")))
        software = tuple(_objects(kb, spec_nodes[0], iri("hasSoftware")))
    return MachineCapability(
        hardware=hardware,
        software=software,
        programmed_skills=frozenset(_objects(kb, node, iri("hasProgrammedSkill"))),
        learned_knowledge=_objects(kb, node, iri("hasLearnedKnowledge")),
    )


_KIND_BY_CLASS = {iri(cls): kind for kind, cls in ATOMIC_KINDS.items()}


def _read_service(kb, service) -> Optional[ServiceRecord]:
    profile_node, props_node, qos_node = profile_nodes(service)
    providers = _objects(kb, service, iri("providedBy"))
    if not providers:
        return None
    type_classes = _objects(kb, profile_node, iri("hasServiceType"))
    if not type_classes:
        return None
    type_class = type_classes[0]
    if type_class == iri("CompositeService"):
        service_type = CompositeType(tuple(_objects(kb, service, iri("composedOf"))))
    else:
        kind = _KIND_BY_CLASS.get(type_class)
        if kind is None:
            return None
        service_type = AtomicType(kind)
    dops = _objects(kb, profile_node, iri("degreeOfParallelism"), ("integer",))
    inputs = tuple(_read_parameter(text) for text in _objects(kb, profile_node, iri("hasInput"), _STRING))
    outputs = tuple(_read_parameter(text) for text in _objects(kb, profile_node, iri("hasOutput"), _STRING))
    preconditions = tuple(
        parse_flat_pattern(text) for text in _objects(kb, profile_node, iri("hasPrecondition"), _STRING)
    )
    effects_add, effects_remove = [], []
    for text in _objects(kb, profile_node, iri("hasEffect"), _STRING):
        verb, _, body = text.partition(" ")
        pattern = parse_flat_pattern(body)
        (effects_add if verb == "ADD" else effects_remove).append(pattern)
    limitations = tuple(
        parse_flat_limitation(text) for text in _objects(kb, profile_node, iri("hasLimitation"), _STRING)
    )
    contexts = tuple(_objects(kb, props_node, iri("includeContext")))
    capability_refs = _objects(kb, props_node, iri("includeCapability"))
    qos = QoS(
        reputation=_read_decimal(kb, qos_node, iri("reputationValue")),
        cost=_read_decimal(kb, qos_node, iri("costValue")),
        response_time=_read_decimal(kb, qos_node, iri("responseTimeValue")),
    )
    profile = ServiceProfile(
        service_id=service,
        service_type=service_type,
        properties=PropertyBundle(
            qos=qos,
            contexts=contexts,
            capability_ref=capability_refs[0] if capability_refs else None,
        ),
        inputs=inputs,
        outputs=outputs,
        preconditions=preconditions,
        effects_add=tuple(effects_add),
        effects_remove=tuple(effects_remove),
        degree_of_parallelism=dops[-1] if dops else 1,
        limitations=limitations,
    )
    return ServiceRecord(profile=profile, provider=providers[0], reputation=qos.reputation)


def _read_parameter(text: str) -> TypedParameter:
    name, _, type_text = text.partition(":")
    return TypedParameter(name, parse_name(type_text))


def _read_decimal(kb, node, predicate) -> Decimal:
    values = _objects(kb, node, predicate, _NUMBER)
    return Decimal(values[0]) if values else Decimal("0")


def _read_experience(kb, registry: ServiceRegistry) -> None:
    nodes = sorted(ind for ind in registry.kb.individuals()
                   if iri("Experience") in registry.kb.types_of(ind))
    for node in nodes:
        services = _objects(kb, node, iri("experienceOf"))
        raters = _objects(kb, node, iri("ratedBy"))
        if not services or not raters or services[0] not in registry.services:
            continue
        rating = _read_decimal(kb, node, iri("ratingValue"))
        criteria = []
        for rendered in _objects(kb, node, iri("hasCriteria"), _STRING):
            for part in rendered.split(";"):
                name, _, value = part.partition("=")
                if name:
                    criteria.append((name, Decimal(value)))
        record = ExperienceRecord(
            service=services[0], requester=raters[0], rating=rating, criteria=tuple(criteria)
        )
        records = registry.experience.setdefault(services[0], [])
        records.append(record)
    for service, records in registry.experience.items():
        if records:
            registry.services[service].reputation = _mean_rating(records)
