"""Service registry: participants, published services, ratings, invocations.

The graph is the only store of capabilities and ratings: each change is
validated here and written, and each read made, through the codec in
``schema``, so a fact an effect writes counts at once.  The registry keeps
only each service's profile (read for every discovery candidate), provider
and reputation (derived from the graph's ratings when published, rated or
loaded), the potential services, whose unlock rules are not facts, and the
invocations.  A service is published when its ``presents`` link is in the graph.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Optional

from .errors import (
    DuplicateIndividualError,
    InvalidStateError,
    NoCompletedInvocationError,
    RatingOutOfRangeError,
    UnknownProviderError,
    UnknownServiceError,
)
from .kb import Iri, KnowledgeBase
from .schema import (
    CompositeType,
    HumanCapability,
    MachineCapability,
    PotentialService,
    ServiceProfile,
    base_ontology,
    capability_node,
    holds_profile,
    is_human,
    is_machine,
    is_presented,
    knows,
    present,
    profiled_services,
    project_experience,
    project_human,
    project_learned_knowledge,
    project_machine,
    project_potential,
    project_profile,
    project_reputation,
    provider_rating_count,
    read_profile,
    retract_presentation,
    service_ratings,
    set_skill,
    skill_level,
    stored_profile,
    validate_profile,
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


_LOWEST_RATING, _HIGHEST_RATING = Decimal("0"), Decimal("5")


def check_rating(rating) -> Decimal:
    """``rating`` as a Decimal from 0 to 5; any other is a :class:`RatingOutOfRangeError`."""
    rating = Decimal(rating)
    if not _LOWEST_RATING <= rating <= _HIGHEST_RATING:
        raise RatingOutOfRangeError(str(rating))
    return rating


def _reputation(ratings, profile: ServiceProfile) -> Decimal:
    """The mean rating, rounded half up to cents; while there is none, the one ``profile`` declares."""
    if not ratings:
        return profile.properties.qos.reputation
    return (sum(ratings) / len(ratings)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


class ServiceRegistry:
    def __init__(self, kb: Optional[KnowledgeBase] = None):
        self.kb = kb if kb is not None else base_ontology()
        self.services: dict = {}
        self.potentials: dict = {}  # person -> [PotentialService]
        self.invocations: list = []  # in id order; never shrinks

    # -- participants --------------------------------------------------------

    def _is_registered(self, owner: Iri) -> bool:
        return is_human(self.kb, owner) or is_machine(self.kb, owner)

    def _require_human(self, person: Iri) -> None:
        if not is_human(self.kb, person):
            raise UnknownProviderError(str(person))

    def register_human(self, person: Iri, cap: HumanCapability, contexts=()) -> Iri:
        if self._is_registered(person):
            raise DuplicateIndividualError(f"{person} is already registered")
        return project_human(self.kb, person, cap, contexts)

    def register_machine(self, machine: Iri, cap: MachineCapability, contexts=()) -> Iri:
        if self._is_registered(machine):
            raise DuplicateIndividualError(f"{machine} is already registered")
        return project_machine(self.kb, machine, cap, contexts)

    def set_skill_scale(self, person: Iri, skill: Iri, scale: int) -> None:
        self._require_human(person)
        set_skill(self.kb, person, skill, scale)

    def add_learned_knowledge(self, machine: Iri, topic: Iri) -> None:
        if not is_machine(self.kb, machine):
            raise UnknownProviderError(str(machine))
        project_learned_knowledge(self.kb, machine, topic)

    # -- services --------------------------------------------------------------

    def publish_service(self, profile: ServiceProfile, provider: Iri) -> None:
        if not self._is_registered(provider):
            raise UnknownProviderError(str(provider))
        validate_profile(profile)
        if profile.properties.capability_ref is None:
            bundle = dataclasses.replace(profile.properties, capability_ref=capability_node(provider))
            profile = dataclasses.replace(profile, properties=bundle)
        service = profile.service_id
        if holds_profile(self.kb, service):  # published before: present it again if unchanged, by its provider
            if self.is_published(service):
                raise DuplicateIndividualError(f"{service} is already published")
            held = self._read_record(service)
            # once rated, the graph's reputation is not the declared one: compare the rest
            rated = held is not None and service_ratings(self.kb, service)
            kept = held.profile.properties.qos.reputation if rated else None
            if held is None or held.profile != stored_profile(self.kb, profile, provider, kept):
                raise DuplicateIndividualError(f"{service} was withdrawn with a different profile")
            if held.provider != provider:
                raise DuplicateIndividualError(f"{service} was withdrawn by {held.provider}")
            present(self.kb, service)
            self.services[service] = held
            return
        if isinstance(profile.service_type, CompositeType):
            for part in profile.service_type.parts:
                if not holds_profile(self.kb, part):
                    raise UnknownServiceError(str(part))
        project_profile(self.kb, profile, provider)
        self.services[service] = ServiceRecord(profile, provider, profile.properties.qos.reputation)

    def _read_record(self, service: Iri) -> Optional[ServiceRecord]:
        held = read_profile(self.kb, service)
        if held is None:
            return None
        return ServiceRecord(*held, _reputation(service_ratings(self.kb, service), held[0]))

    def withdraw_service(self, service: Iri) -> None:
        if not holds_profile(self.kb, service):
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
        invocation = Invocation(len(self.invocations) + 1, service, consumer, dict(inputs))
        self.invocations.append(invocation)
        return invocation

    def running_count(self, service: Iri) -> int:
        return sum(1 for inv in self.invocations if inv.service == service and inv.status == RUNNING)

    # -- experience and reputation ----------------------------------------------

    def record_experience(self, service: Iri, requester: Iri, rating: Decimal, criteria=()) -> None:
        """Rate the most recent unrated terminal invocation of ``service``."""
        candidates = [inv for inv in self.invocations
                      if inv.service == service and inv.consumer == requester
                      and inv.status in TERMINAL and inv.rating is None]
        if not candidates:
            raise NoCompletedInvocationError(f"{requester} has no unrated terminal invocation of {service}")
        self.record_experience_for(candidates[-1], rating, criteria)

    def record_experience_for(self, invocation: Invocation, rating: Decimal, criteria=()) -> None:
        service = invocation.service
        record_entry = self.services.get(service)
        if record_entry is None:
            raise UnknownServiceError(str(service))
        if invocation.status not in TERMINAL:
            raise InvalidStateError(f"invocation {invocation.id} is {invocation.status}, not terminal")
        rating = check_rating(rating)
        invocation.rating = rating
        ratings = service_ratings(self.kb, service) + [rating]
        project_experience(self.kb, service, invocation.consumer, rating, criteria,
                           record_entry.provider, len(ratings))
        record_entry.reputation = _reputation(ratings, record_entry.profile)
        project_reputation(self.kb, service, record_entry.reputation)

    def reputation_of(self, service: Iri) -> Decimal:
        record = self.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        return record.reputation

    def provider_experience_count(self, provider: Iri) -> int:
        return provider_rating_count(self.kb, provider)

    # -- potential services -------------------------------------------------------

    def add_potential(self, person: Iri, potential: PotentialService) -> None:
        self._require_human(person)
        self.potentials.setdefault(person, []).append(potential)
        project_potential(self.kb, person, potential.template.service_id)

    def _rule_satisfied(self, person: Iri, rule) -> bool:
        skill, minimum = rule.required_skill or (None, 0)
        return ((skill is None or skill_level(self.kb, person, skill) >= minimum)
                and all(knows(self.kb, person, topic) for topic in rule.required_knowledge)
                and (rule.min_experience_count is None
                     or self.provider_experience_count(person) >= rule.min_experience_count))

    def unlock_potential(self, person: Iri):
        """Publish every potential service whose unlock rule now holds."""
        self._require_human(person)
        unlocked, remaining = [], []
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
        records = ((service, registry._read_record(service)) for service in profiled_services(kb))
        registry.services = {service: record for service, record in records if record is not None}
        return registry
