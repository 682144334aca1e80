"""Service registry: participants, published services, experience records.

The registry validates each change and keeps typed records (capabilities,
profiles, experience) for fast reads.  It stores every change as kb facts
through the writers in ``schema``, which also reads the records back
(``ServiceRegistry.from_kb``), so discovery queries, the reasoner and the
metrics all run on one graph.  A service is published exactly when its
``presents`` link is in the graph: ``withdraw_service`` retracts the link,
publishing again restores it, and an effect that deletes it withdraws the
service as well.
"""

from __future__ import annotations

import dataclasses
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
from .kb import Iri, KnowledgeBase
from .schema import (
    CompositeType,
    ExperienceRecord,
    HumanCapability,
    MachineCapability,
    PotentialService,
    SKILL_SCALE,
    ServiceProfile,
    TAXONOMY,
    base_ontology,
    capability_node,
    is_presented,
    present,
    presented_services,
    project_experience,
    project_human,
    project_learned_knowledge,
    project_machine,
    project_potential,
    project_profile,
    project_reputation,
    read_capabilities,
    read_experiences,
    read_profile,
    retract_presentation,
    validate_profile,
    write_level,
)

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
        old = cap.skills.get(skill)
        cap.skills[skill] = scale
        write_level(self.kb, person, "skills", skill, scale, old)

    def add_learned_knowledge(self, machine: Iri, topic: Iri) -> None:
        cap = self.machines.get(machine)
        if cap is None:
            raise UnknownProviderError(str(machine))
        if topic not in cap.learned_knowledge:
            cap.learned_knowledge.append(topic)
        project_learned_knowledge(self.kb, machine, topic)

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
            if self.is_published(profile.service_id):
                raise DuplicateIndividualError(f"{profile.service_id} is already published")
            if existing.profile != profile:
                raise DuplicateIndividualError(
                    f"{profile.service_id} was withdrawn with a different profile"
                )
            present(self.kb, profile.service_id)
            return
        if isinstance(profile.service_type, CompositeType):
            for part in profile.service_type.parts:
                if part not in self.services:
                    raise UnknownServiceError(str(part))
        project_profile(self.kb, profile, provider)
        self.services[profile.service_id] = ServiceRecord(profile, provider, profile.properties.qos.reputation)
        self.experience.setdefault(profile.service_id, [])

    def withdraw_service(self, service: Iri) -> None:
        record = self.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        if not self.is_published(service):
            raise InvalidStateError(f"{service} is already withdrawn")
        retract_presentation(self.kb, service)

    def is_published(self, service: Iri) -> bool:
        return is_presented(self.kb, service)

    def published_services(self):
        return [s for s in sorted(self.services) if self.is_published(s)]

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
        return self.record_experience_for(candidates[-1], rating, criteria, timestamp)

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
        record = ExperienceRecord(service, invocation.consumer, rating, tuple(criteria), timestamp)
        records = self.experience.setdefault(service, [])
        records.append(record)
        project_experience(self.kb, record, record_entry.provider, len(records))
        record_entry.reputation = _mean_rating(records)
        project_reputation(self.kb, service, record_entry.reputation)
        return record

    def reputation_of(self, service: Iri) -> Decimal:
        record = self.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        return record.reputation

    def provider_experience_count(self, provider: Iri) -> int:
        return sum(len(self.experience[service]) for service, record in self.services.items()
                   if record.provider == provider)

    # -- potential services -------------------------------------------------------

    def add_potential(self, person: Iri, potential: PotentialService) -> None:
        if person not in self.humans:
            raise UnknownProviderError(str(person))
        self.potentials.setdefault(person, []).append(potential)
        project_potential(self.kb, person, potential.template.service_id)

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
        registry.humans, registry.machines = read_capabilities(kb)
        for service in presented_services(kb):
            stored = read_profile(kb, service)
            if stored is not None:
                profile, provider = stored
                registry.services[service] = ServiceRecord(profile, provider, profile.properties.qos.reputation)
                registry.experience[service] = []
        for record in read_experiences(kb):
            if record.service in registry.services:
                registry.experience[record.service].append(record)
        for service, records in registry.experience.items():
            if records:
                registry.services[service].reputation = _mean_rating(records)
        return registry
