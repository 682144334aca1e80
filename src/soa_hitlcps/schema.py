"""Typed views over the service/capability vocabulary and the base ontology.

The base ontology declares 46 classes, 45 object properties, 10 subclass
links, the Human/Machine disjointness, two restricted class axioms (anything
physical with a human capability is a Human; any service provided by a Human
is a HumanService), one OntoClean annotation per class, and the taxonomy
individuals (skills, knowledge domains, abilities, performance factors,
education levels).

This module also defines the capability (.cap) and service-profile (.srv)
file formats and the projection of typed records into kb facts.  Scales and
parameter signatures are projected through a handful of instance-level
plumbing properties (``hasSkillLevel`` and friends) that are declared on
demand and are deliberately not part of the base ontology's 45.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Optional, Union

from .errors import InvalidProfileError, ParseError, UnknownTaxonomyTermError
from .kb import (
    ClassAxiom,
    Conjunction,
    Iri,
    KnowledgeBase,
    NamedClass,
    Pattern,
    SomeValues,
    TYPE_PRED,
    Var,
    _Token,
    _parse_term,
    annotation_from_flags,
    content_lines,
    decimal as decimal_literal,
    integer as integer_literal,
    iri,
    parse_name,
    string as string_literal,
)

# --------------------------------------------------------------------------
# Base ontology vocabulary

CLASS_NAMES = (
    "PhysicalThing", "Human", "Machine", "Organization", "Task", "Context",
    "Capability", "HumanCapability", "MachineCapability",
    "Service", "HumanService", "MachineService",
    "ServiceProvider", "ServiceConsumer",
    "ServiceProfile", "ProcessModel", "ServiceGrounding",
    "ServiceType", "AtomicService", "CompositeService",
    "SensingService", "ActuatingService", "CommunicatingService",
    "ProcessingService", "AdaptationService",
    "Input", "Output", "Precondition", "Effect", "Property", "Limitation",
    "QoS", "Characteristic", "Preference", "Ability", "PerformanceFactor",
    "Qualification", "Skill", "Knowledge", "Education", "Experience",
    "Potential", "PotentialService",
    "MachineSpecification", "Hardware", "Software",
)

PROPERTY_DEFS = (
    # OWL-S style service triad and provision
    ("presents", "Service", "ServiceProfile"),
    ("describedBy", "Service", "ProcessModel"),
    ("supports", "Service", "ServiceGrounding"),
    ("providedBy", "Service", "PhysicalThing"),
    ("provides", "PhysicalThing", "Service"),
    ("consumes", "PhysicalThing", "Service"),
    # top-level world structure
    ("memberOf", "PhysicalThing", "Organization"),
    ("performs", "PhysicalThing", "Task"),
    ("hasContext", "PhysicalThing", "Context"),
    ("requiresCapability", "Task", "Capability"),
    ("hasCapability", "PhysicalThing", "Capability"),
    # service profile structure
    ("hasServiceType", "ServiceProfile", "ServiceType"),
    ("hasInput", "ServiceProfile", "Input"),
    ("hasOutput", "ServiceProfile", "Output"),
    ("hasPrecondition", "ServiceProfile", "Precondition"),
    ("hasEffect", "ServiceProfile", "Effect"),
    ("hasProperty", "ServiceProfile", "Property"),
    ("hasLimitation", "ServiceProfile", "Limitation"),
    ("degreeOfParallelism", "ServiceProfile", "Property"),
    ("includeCapability", "Property", "Capability"),
    ("includeContext", "Property", "Context"),
    ("includeQoS", "Property", "QoS"),
    ("reputationValue", "QoS", "Property"),
    ("costValue", "QoS", "Property"),
    ("responseTimeValue", "QoS", "Property"),
    ("composedOf", "CompositeService", "Service"),
    # human capability model
    ("hasCharacteristic", "HumanCapability", "Characteristic"),
    ("hasQualification", "HumanCapability", "Qualification"),
    ("hasPotential", "HumanCapability", "Potential"),
    ("hasPreference", "Characteristic", "Preference"),
    ("hasAbility", "Capability", "Ability"),
    ("hasPerformanceFactor", "Capability", "PerformanceFactor"),
    ("hasHumanSkill", "HumanCapability", "Skill"),
    ("hasHumanKnowledge", "HumanCapability", "Knowledge"),
    ("hasEducation", "HumanCapability", "Education"),
    ("hasExperience", "HumanCapability", "Experience"),
    ("hasPotentialService", "Potential", "PotentialService"),
    ("experienceOf", "Experience", "Service"),
    ("ratedBy", "Experience", "PhysicalThing"),
    ("ratingValue", "Experience", "Property"),
    # machine capability model
    ("hasSpecification", "MachineCapability", "MachineSpecification"),
    ("hasHardware", "MachineSpecification", "Hardware"),
    ("hasSoftware", "MachineSpecification", "Software"),
    ("hasLearnedKnowledge", "MachineCapability", "Knowledge"),
    ("hasProgrammedSkill", "MachineCapability", "Skill"),
)

SUBCLASS_LINKS = (
    ("Human", "PhysicalThing"),
    ("Machine", "PhysicalThing"),
    ("HumanService", "Service"),
    ("MachineService", "Service"),
    ("AtomicService", "ServiceType"),
    ("CompositeService", "ServiceType"),
    ("SensingService", "AtomicService"),
    ("ActuatingService", "AtomicService"),
    ("CommunicatingService", "AtomicService"),
    ("AdaptationService", "CompositeService"),
)

_RIGID_SORTALS = (
    "PhysicalThing", "Human", "Machine", "Organization",
    "Hardware", "Software", "MachineSpecification",
)
_ANTI_RIGID = (
    "Service", "HumanService", "MachineService", "ServiceProvider",
    "ServiceConsumer", "ServiceType", "AtomicService", "CompositeService",
    "SensingService", "ActuatingService", "CommunicatingService",
    "ProcessingService", "AdaptationService", "Task", "Context",
    "Capability", "HumanCapability", "MachineCapability",
    "Potential", "PotentialService",
)

ATOMIC_KINDS = {
    "sensing": "SensingService",
    "actuating": "ActuatingService",
    "communicating": "CommunicatingService",
    "processing": "ProcessingService",
}


@dataclass(frozen=True)
class Taxonomy:
    """Shipped subsets of an occupational vocabulary, plus education order."""

    skills: tuple
    knowledge: tuple
    abilities: tuple
    performance_factors: tuple
    education_levels: tuple  # ordered low -> high
    preference_dimensions: tuple


TAXONOMY = Taxonomy(
    skills=tuple(iri(t) for t in (
        "Active_Listening", "Cardiac_output_CO_monitoring_units_or_accessories",
        "Complex_Problem_Solving", "Conversational_Response", "Critical_Thinking",
        "Equipment_Maintenance", "Judgment_and_Decision_Making", "Monitoring",
        "Service_Orientation", "Troubleshooting",
    )),
    knowledge=tuple(iri(t) for t in (
        "Biology", "Customer_and_Personal_Service", "English_Language",
        "Medicine_and_Dentistry", "Psychology", "Therapy_and_Counseling",
    )),
    abilities=tuple(iri(t) for t in (
        "Arm_Hand_Steadiness", "Deductive_Reasoning", "Oral_Comprehension",
        "Oral_Expression", "Problem_Sensitivity", "Reaction_Time",
    )),
    performance_factors=tuple(iri(t) for t in (
        "Adaptability_Flexibility", "Attention_to_Detail", "Dependability",
        "Initiative", "Integrity", "Stress_Tolerance",
    )),
    education_levels=tuple(iri(t) for t in (
        "High_School_Diploma", "Associate_Degree", "Bachelor_Degree",
        "Master_Degree", "Doctoral_Degree",
    )),
    preference_dimensions=("time", "location", "price"),
)


SKILL_SCALE = (1, 7)


def base_ontology() -> KnowledgeBase:
    kb = KnowledgeBase()
    for name in CLASS_NAMES:
        kb.add_class(iri(name))
    for child, parent in SUBCLASS_LINKS:
        kb.add_subclass(iri(child), iri(parent))
    for prop, domain, range_ in PROPERTY_DEFS:
        kb.add_property(iri(prop), iri(domain), iri(range_))
    kb.add_disjoint(iri("Human"), iri("Machine"))
    kb.add_axiom(ClassAxiom(
        Conjunction((NamedClass(iri("PhysicalThing")), SomeValues(iri("hasCapability"), iri("HumanCapability")))),
        iri("Human"),
    ))
    kb.add_axiom(ClassAxiom(
        Conjunction((NamedClass(iri("Service")), SomeValues(iri("providedBy"), iri("Human")))),
        iri("HumanService"),
    ))
    for name in CLASS_NAMES:
        if name in _RIGID_SORTALS:
            flags = ["+R", "+I", "+U"]
        elif name in _ANTI_RIGID:
            flags = ["~R"]
        else:
            flags = ["+R", "+I"]
        kb.add_annotation(annotation_from_flags(iri(name), flags))
    for term in TAXONOMY.skills:
        kb.add_type(term, iri("Skill"))
    for term in TAXONOMY.knowledge:
        kb.add_type(term, iri("Knowledge"))
    for term in TAXONOMY.abilities:
        kb.add_type(term, iri("Ability"))
    for term in TAXONOMY.performance_factors:
        kb.add_type(term, iri("PerformanceFactor"))
    for term in TAXONOMY.education_levels:
        kb.add_type(term, iri("Education"))
    return kb


# Instance-level plumbing properties used by projections (not in the base 45).
PLUMBING_PROPERTIES = (
    ("hasSkillLevel", "HumanCapability", "Skill"),
    ("hasAbilityLevel", "HumanCapability", "Ability"),
    ("hasPerformanceLevel", "HumanCapability", "PerformanceFactor"),
    ("hasPreferenceValue", "HumanCapability", "Preference"),
    ("hasCriteria", "Experience", "Property"),
)


def ensure_plumbing(kb: KnowledgeBase) -> None:
    for prop, domain, range_ in PLUMBING_PROPERTIES:
        kb.add_property(iri(prop), iri(domain), iri(range_))


# --------------------------------------------------------------------------
# Typed records


@dataclass(frozen=True)
class TypedParameter:
    name: str
    type: Iri

    def render(self) -> str:
        return f"{self.name}:{self.type}"


@dataclass(frozen=True)
class QoS:
    reputation: Decimal
    cost: Decimal
    response_time: Decimal


@dataclass(frozen=True)
class TimeWindow:
    start: int
    end: int

    def render(self) -> str:
        return f"time_window {self.start} {self.end}"


@dataclass(frozen=True)
class MaxDistance:
    meters: Decimal
    anchor: Iri

    def render(self) -> str:
        return f"max_distance {self.meters} {self.anchor}"


@dataclass(frozen=True)
class LocationAt:
    location: Iri

    def render(self) -> str:
        return f"location {self.location}"


@dataclass(frozen=True)
class Condition:
    pattern: Pattern

    def render(self) -> str:
        return f"condition {render_pattern(self.pattern)}"


Limitation = Union[TimeWindow, MaxDistance, LocationAt, Condition]


@dataclass(frozen=True)
class PropertyBundle:
    qos: QoS
    contexts: tuple = ()
    capability_ref: Optional[Iri] = None


@dataclass(frozen=True)
class AtomicType:
    kind: str  # sensing | actuating | communicating | processing


@dataclass(frozen=True)
class CompositeType:
    parts: tuple


@dataclass(frozen=True)
class ServiceProfile:
    service_id: Iri
    service_type: Union[AtomicType, CompositeType]
    properties: PropertyBundle
    inputs: tuple = ()
    outputs: tuple = ()
    preconditions: tuple = ()
    effects_add: tuple = ()
    effects_remove: tuple = ()
    degree_of_parallelism: int = 1
    limitations: tuple = ()
    declarations: tuple = ()  # extra (property, domain, range) for effects


@dataclass(frozen=True)
class ExperienceRecord:
    service: Iri
    requester: Iri
    rating: Decimal
    criteria: tuple = ()  # ((name, Decimal), ...)
    timestamp: int = 0


@dataclass(frozen=True)
class UnlockRule:
    required_skill: Optional[tuple] = None  # (Iri, min scale)
    required_knowledge: tuple = ()
    min_experience_count: Optional[int] = None

    def __post_init__(self):
        if self.required_skill is None and not self.required_knowledge and self.min_experience_count is None:
            raise InvalidProfileError("unlock rule must name at least one requirement")


@dataclass(frozen=True)
class PotentialService:
    template: ServiceProfile  # provider-free template
    unlock_rule: UnlockRule


@dataclass
class HumanCapability:
    skills: dict = field(default_factory=dict)  # Iri -> scale 1..7
    knowledge: list = field(default_factory=list)
    abilities: dict = field(default_factory=dict)
    performance_factors: dict = field(default_factory=dict)
    preferences: dict = field(default_factory=dict)  # dimension -> value
    education: Optional[Iri] = None


@dataclass
class MachineCapability:
    hardware: tuple = ()
    software: tuple = ()
    programmed_skills: frozenset = frozenset()
    learned_knowledge: list = field(default_factory=list)


def validate_human_capability(cap: HumanCapability) -> None:
    for skill, scale in cap.skills.items():
        if skill not in TAXONOMY.skills:
            raise UnknownTaxonomyTermError(skill)
        if not SKILL_SCALE[0] <= scale <= SKILL_SCALE[1]:
            raise InvalidProfileError(f"skill scale {scale} for {skill} outside {SKILL_SCALE}")
    for term in cap.knowledge:
        if term not in TAXONOMY.knowledge:
            raise UnknownTaxonomyTermError(term)
    for term in cap.abilities:
        if term not in TAXONOMY.abilities:
            raise UnknownTaxonomyTermError(term)
    for term in cap.performance_factors:
        if term not in TAXONOMY.performance_factors:
            raise UnknownTaxonomyTermError(term)
    if cap.education is not None and cap.education not in TAXONOMY.education_levels:
        raise UnknownTaxonomyTermError(cap.education)
    for dim in cap.preferences:
        if dim not in TAXONOMY.preference_dimensions:
            raise UnknownTaxonomyTermError(dim)


def validate_machine_capability(cap: MachineCapability) -> None:
    for term in cap.programmed_skills:
        if term not in TAXONOMY.skills:
            raise UnknownTaxonomyTermError(term)


def capability_node(owner: Iri) -> Iri:
    local = owner.local[0].lower() + owner.local[1:]
    return Iri(owner.prefix, f"{local}Capability")


# --------------------------------------------------------------------------
# Flat pattern text (used in profile files and kb literal projections)

_WORD = re.compile(r'"(?:[^"\\]|\\.)*"|\S+')


def render_pattern(pattern: Pattern) -> str:
    def term(t):
        if t == TYPE_PRED:
            return "a"
        return str(t)

    return f"{term(pattern.subject)} {term(pattern.predicate)} {term(pattern.object)}"


def _parse_flat_term(text: str, lineno: int, column: int, prefixes: dict):
    if text.startswith("?"):
        return Var(text[1:])
    if text == "a":
        return TYPE_PRED
    return _parse_term(_Token(text, lineno, column), prefixes)


def parse_flat_pattern(text: str, lineno: int = 1, prefixes: Optional[dict] = None) -> Pattern:
    prefixes = prefixes or {"soa-hitlcps": "builtin"}
    words = _WORD.findall(text)
    if len(words) != 3:
        raise ParseError(lineno, 1, "a three-term pattern")
    s, p, o = (_parse_flat_term(w, lineno, 1, prefixes) for w in words)
    return Pattern(s, p, o)


# --------------------------------------------------------------------------
# Capability files (.cap)


def _term_name(word: str, lineno: int) -> Iri:
    if ":" not in word and not re.match(r"^[A-Za-z_][\w.-]*$", word):
        raise ParseError(lineno, 1, "a name")
    return parse_name(word)


def _int(word: str, lineno: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ParseError(lineno, 1, "an integer")


def _decimal(word: str, lineno: int) -> Decimal:
    try:
        value = Decimal(word)
    except InvalidOperation:
        value = None
    if value is None or value.is_nan():  # NaN cannot be compared with a bound
        raise ParseError(lineno, 1, "a decimal")
    return value


def parse_human_capability(text: str):
    """Parse a human .cap document; returns (HumanCapability, contexts)."""
    cap = HumanCapability()
    contexts = []
    for lineno, words in content_lines(text):
        keyword = words[0]
        if keyword == "SKILL" and len(words) == 3:
            cap.skills[_term_name(words[1], lineno)] = _int(words[2], lineno)
        elif keyword == "KNOWLEDGE" and len(words) == 2:
            cap.knowledge.append(_term_name(words[1], lineno))
        elif keyword == "ABILITY" and len(words) == 3:
            cap.abilities[_term_name(words[1], lineno)] = _int(words[2], lineno)
        elif keyword == "PERFORMANCE" and len(words) == 3:
            cap.performance_factors[_term_name(words[1], lineno)] = _int(words[2], lineno)
        elif keyword == "EDUCATION" and len(words) == 2:
            cap.education = _term_name(words[1], lineno)
        elif keyword == "PREFERENCE" and len(words) == 3:
            cap.preferences[words[1]] = words[2]
        elif keyword == "CONTEXT" and len(words) == 2:
            contexts.append(_term_name(words[1], lineno))
        else:
            raise ParseError(lineno, 1, "SKILL/KNOWLEDGE/ABILITY/PERFORMANCE/EDUCATION/PREFERENCE/CONTEXT")
    validate_human_capability(cap)
    return cap, tuple(contexts)


def parse_machine_capability(text: str):
    """Parse a machine .cap document; returns (MachineCapability, contexts)."""
    hardware, software, programmed, learned, contexts = [], [], [], [], []
    for lineno, words in content_lines(text):
        keyword = words[0]
        if keyword == "HARDWARE" and len(words) == 2:
            hardware.append(_term_name(words[1], lineno))
        elif keyword == "SOFTWARE" and len(words) == 2:
            software.append(_term_name(words[1], lineno))
        elif keyword == "PROGRAMMED_SKILL" and len(words) == 2:
            programmed.append(_term_name(words[1], lineno))
        elif keyword == "LEARNED" and len(words) == 2:
            learned.append(_term_name(words[1], lineno))
        elif keyword == "CONTEXT" and len(words) == 2:
            contexts.append(_term_name(words[1], lineno))
        else:
            raise ParseError(lineno, 1, "HARDWARE/SOFTWARE/PROGRAMMED_SKILL/LEARNED/CONTEXT")
    cap = MachineCapability(
        hardware=tuple(hardware),
        software=tuple(software),
        programmed_skills=frozenset(programmed),
        learned_knowledge=list(learned),
    )
    validate_machine_capability(cap)
    return cap, tuple(contexts)


# --------------------------------------------------------------------------
# Service profile files (.srv)


def _parse_kv(words, lineno):
    out = {}
    for word in words:
        if "=" not in word:
            raise ParseError(lineno, 1, "key=value")
        key, _, value = word.partition("=")
        out[key] = value
    return out


def parse_service_profile(text: str):
    """Parse a .srv document; returns (ServiceProfile, provider Iri or None)."""
    service_id = provider = None
    service_type = None
    qos = QoS(Decimal("0"), Decimal("0"), Decimal("0"))
    contexts, inputs, outputs = [], [], []
    preconditions, effects_add, effects_remove, limitations, declarations = [], [], [], [], []
    capability_ref = None
    dop = 1
    prefixes = {"soa-hitlcps": "builtin"}
    for lineno, words in content_lines(text):
        keyword, rest = words[0], words[1:]
        if keyword == "SERVICE" and len(rest) == 1:
            service_id = _term_name(rest[0], lineno)
        elif keyword == "PROVIDER" and len(rest) == 1:
            provider = _term_name(rest[0], lineno)
        elif keyword == "KIND" and len(rest) == 1:
            if rest[0] not in ATOMIC_KINDS:
                raise ParseError(lineno, 1, "one of " + "/".join(sorted(ATOMIC_KINDS)))
            service_type = AtomicType(rest[0])
        elif keyword == "COMPOSITE" and rest:
            service_type = CompositeType(tuple(_term_name(w, lineno) for w in rest))
        elif keyword == "INPUT" and len(rest) == 2:
            inputs.append(TypedParameter(rest[0], _term_name(rest[1], lineno)))
        elif keyword == "OUTPUT" and len(rest) == 2:
            outputs.append(TypedParameter(rest[0], _term_name(rest[1], lineno)))
        elif keyword == "PRECONDITION" and len(rest) >= 3:
            preconditions.append(parse_flat_pattern(" ".join(rest), lineno, prefixes))
        elif keyword == "EFFECT" and len(rest) >= 4 and rest[0] in ("ADD", "DEL"):
            pattern = parse_flat_pattern(" ".join(rest[1:]), lineno, prefixes)
            (effects_add if rest[0] == "ADD" else effects_remove).append(pattern)
        elif keyword == "CONTEXT" and len(rest) == 1:
            contexts.append(_term_name(rest[0], lineno))
        elif keyword == "CAPABILITY" and len(rest) == 1:
            capability_ref = _term_name(rest[0], lineno)
        elif keyword == "QOS":
            kv = _parse_kv(rest, lineno)
            qos = QoS(
                reputation=_decimal(kv.get("reputation", "0"), lineno),
                cost=_decimal(kv.get("cost", "0"), lineno),
                response_time=_decimal(kv.get("response_time", "0"), lineno),
            )
        elif keyword == "PARALLELISM" and len(rest) == 1:
            dop = _int(rest[0], lineno)
        elif keyword == "LIMITATION" and rest:
            limitations.append(parse_flat_limitation(" ".join(rest), lineno))
        elif keyword == "DECLARE" and len(rest) == 3:
            declarations.append(tuple(_term_name(w, lineno) for w in rest))
        else:
            raise ParseError(lineno, 1, "a profile directive")
    if service_id is None:
        raise ParseError(1, 1, "a SERVICE line")
    if service_type is None:
        raise ParseError(1, 1, "a KIND or COMPOSITE line")
    profile = ServiceProfile(
        service_id=service_id,
        service_type=service_type,
        properties=PropertyBundle(qos=qos, contexts=tuple(contexts), capability_ref=capability_ref),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        preconditions=tuple(preconditions),
        effects_add=tuple(effects_add),
        effects_remove=tuple(effects_remove),
        degree_of_parallelism=dop,
        limitations=tuple(limitations),
        declarations=tuple(declarations),
    )
    return profile, provider


def parse_flat_limitation(text: str, lineno: int = 1) -> Limitation:
    words = text.split()
    kind = words[0]
    if kind == "time_window" and len(words) == 3:
        start, end = _int(words[1], lineno), _int(words[2], lineno)
        if start > end:
            raise ParseError(lineno, 1, "an ordered time window")
        return TimeWindow(start, end)
    if kind == "max_distance" and len(words) == 3:
        meters = _decimal(words[1], lineno)
        if meters <= 0:
            raise ParseError(lineno, 1, "a positive distance")
        return MaxDistance(meters, _term_name(words[2], lineno))
    if kind == "location" and len(words) == 2:
        return LocationAt(_term_name(words[1], lineno))
    if kind == "condition" and len(words) >= 4:
        return Condition(parse_flat_pattern(" ".join(words[1:]), lineno))
    raise ParseError(lineno, 1, "time_window/max_distance/location/condition")


def validate_profile(profile: ServiceProfile) -> None:
    if profile.degree_of_parallelism < 1:
        raise InvalidProfileError("degree of parallelism must be >= 1")
    qos = profile.properties.qos
    if not Decimal("0") <= qos.reputation <= Decimal("5"):
        raise InvalidProfileError("reputation must be within 0..5")
    if qos.cost < 0 or qos.response_time < 0:
        raise InvalidProfileError("cost and response time must be non-negative")
    input_names = {p.name for p in profile.inputs} | {"consumer"}
    bound = set(input_names)
    for pattern in profile.preconditions:
        bound |= set(pattern.variables())
    for pattern in profile.effects_add + profile.effects_remove:
        for var in pattern.variables():
            if var not in bound:
                raise InvalidProfileError(f"effect variable ?{var} is not bound by inputs or preconditions")


# --------------------------------------------------------------------------
# Projections into the kb


def project_human(kb: KnowledgeBase, person: Iri, cap: HumanCapability, contexts=()) -> Iri:
    validate_human_capability(cap)
    ensure_plumbing(kb)
    node = capability_node(person)
    kb.add_type(person, iri("PhysicalThing"))
    kb.add_type(node, iri("HumanCapability"))
    kb.add_statement(person, iri("hasCapability"), node)
    for skill in sorted(cap.skills, key=str):
        kb.add_statement(node, iri("hasHumanSkill"), skill)
        kb.add_statement(node, iri("hasSkillLevel"), string_literal(f"{skill}:{cap.skills[skill]}"))
    for term in sorted(set(cap.knowledge), key=str):
        kb.add_statement(node, iri("hasHumanKnowledge"), term)
    for ability in sorted(cap.abilities, key=str):
        kb.add_statement(node, iri("hasAbility"), ability)
        kb.add_statement(node, iri("hasAbilityLevel"), string_literal(f"{ability}:{cap.abilities[ability]}"))
    for factor in sorted(cap.performance_factors, key=str):
        kb.add_statement(node, iri("hasPerformanceFactor"), factor)
        kb.add_statement(node, iri("hasPerformanceLevel"), string_literal(f"{factor}:{cap.performance_factors[factor]}"))
    if cap.education is not None:
        kb.add_statement(node, iri("hasEducation"), cap.education)
    for dim in sorted(cap.preferences):
        kb.add_statement(node, iri("hasPreferenceValue"), string_literal(f"{dim}:{cap.preferences[dim]}"))
    for ctx in contexts:
        kb.add_type(ctx, iri("Context"))
        kb.add_statement(person, iri("hasContext"), ctx)
    return node


def project_machine(kb: KnowledgeBase, machine: Iri, cap: MachineCapability, contexts=()) -> Iri:
    validate_machine_capability(cap)
    node = capability_node(machine)
    spec_node = Iri(machine.prefix, node.local.replace("Capability", "Specification"))
    kb.add_type(machine, iri("Machine"))
    kb.add_type(node, iri("MachineCapability"))
    kb.add_statement(machine, iri("hasCapability"), node)
    kb.add_type(spec_node, iri("MachineSpecification"))
    kb.add_statement(node, iri("hasSpecification"), spec_node)
    for hw in cap.hardware:
        kb.add_type(hw, iri("Hardware"))
        kb.add_statement(spec_node, iri("hasHardware"), hw)
    for sw in cap.software:
        kb.add_type(sw, iri("Software"))
        kb.add_statement(spec_node, iri("hasSoftware"), sw)
    for skill in sorted(cap.programmed_skills, key=str):
        kb.add_statement(node, iri("hasProgrammedSkill"), skill)
    for topic in cap.learned_knowledge:
        kb.add_type(topic, iri("Knowledge"))
        kb.add_statement(node, iri("hasLearnedKnowledge"), topic)
    for ctx in contexts:
        kb.add_type(ctx, iri("Context"))
        kb.add_statement(machine, iri("hasContext"), ctx)
    return node


def profile_nodes(service: Iri):
    """Deterministic (profile, property bundle, qos) node names for a service."""
    return (
        Iri(service.prefix, service.local + "Profile"),
        Iri(service.prefix, service.local + "Properties"),
        Iri(service.prefix, service.local + "Qos"),
    )


def project_profile(kb: KnowledgeBase, profile: ServiceProfile, provider: Iri) -> None:
    service = profile.service_id
    profile_node, props_node, qos_node = profile_nodes(service)
    for prop, domain, range_ in profile.declarations:
        kb.add_property(prop, domain, range_)
    kb.add_type(service, iri("Service"))
    if isinstance(profile.service_type, AtomicType):
        kb.add_type(service, iri(ATOMIC_KINDS[profile.service_type.kind]))
    else:
        kb.add_type(service, iri("CompositeService"))
        for part in profile.service_type.parts:
            kb.add_statement(service, iri("composedOf"), part)
    kb.add_statement(service, iri("providedBy"), provider)
    kb.add_statement(provider, iri("provides"), service)
    kb.add_statement(service, iri("presents"), profile_node)
    kb.add_type(profile_node, iri("ServiceProfile"))
    type_class = (
        ATOMIC_KINDS[profile.service_type.kind]
        if isinstance(profile.service_type, AtomicType)
        else "CompositeService"
    )
    kb.add_statement(profile_node, iri("hasServiceType"), iri(type_class))
    kb.add_statement(profile_node, iri("degreeOfParallelism"), integer_literal(profile.degree_of_parallelism))
    for param in profile.inputs:
        kb.add_statement(profile_node, iri("hasInput"), string_literal(param.render()))
    for param in profile.outputs:
        kb.add_statement(profile_node, iri("hasOutput"), string_literal(param.render()))
    for pattern in profile.preconditions:
        kb.add_statement(profile_node, iri("hasPrecondition"), string_literal(render_pattern(pattern)))
    for pattern in profile.effects_add:
        kb.add_statement(profile_node, iri("hasEffect"), string_literal("ADD " + render_pattern(pattern)))
    for pattern in profile.effects_remove:
        kb.add_statement(profile_node, iri("hasEffect"), string_literal("DEL " + render_pattern(pattern)))
    for limitation in profile.limitations:
        kb.add_statement(profile_node, iri("hasLimitation"), string_literal(limitation.render()))
    kb.add_statement(profile_node, iri("hasProperty"), props_node)
    kb.add_type(props_node, iri("Property"))
    if profile.properties.capability_ref is not None:
        kb.add_statement(props_node, iri("includeCapability"), profile.properties.capability_ref)
    for ctx in profile.properties.contexts:
        kb.add_type(ctx, iri("Context"))
        kb.add_statement(props_node, iri("includeContext"), ctx)
    kb.add_statement(props_node, iri("includeQoS"), qos_node)
    kb.add_type(qos_node, iri("QoS"))
    kb.add_statement(qos_node, iri("reputationValue"), decimal_literal(profile.properties.qos.reputation))
    kb.add_statement(qos_node, iri("costValue"), decimal_literal(profile.properties.qos.cost))
    kb.add_statement(qos_node, iri("responseTimeValue"), decimal_literal(profile.properties.qos.response_time))


def retract_presentation(kb: KnowledgeBase, service: Iri) -> None:
    """Withdraw a service from discovery by retracting its presents link."""
    profile_node, _, _ = profile_nodes(service)
    kb.remove_statement(service, iri("presents"), profile_node)
