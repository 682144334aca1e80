"""Typed views over the service/capability vocabulary and the base ontology.

The base ontology is ``data/base.kb``, the one definition of the vocabulary:
46 classes, 45 object properties, 10 subclass links, the Human/Machine
disjointness, two restricted class axioms (anything physical with a human
capability is a Human; any service provided by a Human is a HumanService),
one OntoClean annotation per class, and the taxonomy individuals (skills,
knowledge domains, abilities, performance factors, education levels).  It
is parsed once, at import; ``base_ontology()`` hands out copies and
``TAXONOMY`` lists its individuals.

This module also defines the capability (.cap) and service-profile (.srv)
file formats, whose names follow the .kb rule, and the graph codec: the one
place that knows how registry facts are encoded.  One field table per record
type drives the writers, and a rating is written from its values; the
readers return a profile or one answer (a skill's level, a known topic, a
service's ratings).  Scales, preferences, parameter signatures and rating
criteria are string literals on a handful of instance-level plumbing
properties (``hasSkillLevel`` and friends) that are declared on demand and
are deliberately not part of the base ontology's 45.
A service is published exactly when its ``presents`` link is in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, NamedTuple, Optional, Union

from .datafiles import base_kb_text
from .errors import InvalidProfileError, ParseError, UnknownTaxonomyTermError
from .kb import (
    BUILTIN_PREFIXES,
    Iri,
    KnowledgeBase,
    Literal,
    Pattern,
    Statement,
    TYPE_PRED,
    Var,
    _parse_term,
    content_lines,
    line_words,
    decimal as decimal_literal,
    integer as integer_literal,
    iri,
    parse_decimal,
    parse_document,
    parse_integer,
    parse_name,
    parse_pair,
    string as string_literal,
    term_sort_key,
)

# --------------------------------------------------------------------------
# Base ontology: ``data/base.kb``, parsed once

_BASE = parse_document(base_kb_text())


def base_ontology() -> KnowledgeBase:
    """A fresh copy of the base ontology, for the caller to change."""
    return _BASE.copy()


def _individuals(cls: str) -> tuple:
    """The base ontology's individuals of ``cls``, in term order."""
    return tuple(sorted((ind for ind, c in _BASE.type_assertions if c == iri(cls)), key=term_sort_key))


ATOMIC_KINDS = {
    "sensing": "SensingService",
    "actuating": "ActuatingService",
    "communicating": "CommunicatingService",
    "processing": "ProcessingService",
}


@dataclass(frozen=True)
class Taxonomy:
    """The base ontology's taxonomy individuals, plus education order."""

    skills: tuple
    knowledge: tuple
    abilities: tuple
    performance_factors: tuple
    education_levels: tuple  # ordered low -> high
    preference_dimensions: tuple


TAXONOMY = Taxonomy(
    skills=_individuals("Skill"),
    knowledge=_individuals("Knowledge"),
    abilities=_individuals("Ability"),
    performance_factors=_individuals("PerformanceFactor"),
    education_levels=tuple(iri(t) for t in (
        "High_School_Diploma", "Associate_Degree", "Bachelor_Degree",
        "Master_Degree", "Doctoral_Degree",
    )),
    preference_dimensions=("time", "location", "price"),
)


SKILL_SCALE = (1, 7)


# Instance-level plumbing properties used by projections (not in the base 45).
PLUMBING_PROPERTIES = (
    ("hasSkillLevel", "HumanCapability", "Skill"),
    ("hasAbilityLevel", "HumanCapability", "Ability"),
    ("hasPerformanceLevel", "HumanCapability", "PerformanceFactor"),
    ("hasPreferenceValue", "HumanCapability", "Preference"),
    ("hasCriteria", "Experience", "Property"),
)


# (property, (domain, range)) of each plumbing property, built once
_PLUMBING_SIGNATURES = tuple((iri(name), (iri(domain), iri(range_))) for name, domain, range_ in PLUMBING_PROPERTIES)


def ensure_plumbing(kb: KnowledgeBase) -> None:
    """Declare each plumbing property that ``kb`` does not declare with its signature yet.

    Every projection calls this; skipping the declared ones keeps a rating
    from disarming the write journal with a no-op declaration, which would
    make a follower of the graph (the broker's closure) rebuild.
    """
    for prop, signature in _PLUMBING_SIGNATURES:
        if kb.property_decls.get(prop) != signature:
            kb.add_property(prop, *signature)


# --------------------------------------------------------------------------
# Typed records


@dataclass(frozen=True)
class TypedParameter:
    name: str
    type: Iri


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
    for used, known in ((cap.knowledge, TAXONOMY.knowledge), (cap.abilities, TAXONOMY.abilities),
                        (cap.performance_factors, TAXONOMY.performance_factors),
                        (_one(cap.education), TAXONOMY.education_levels),
                        (cap.preferences, TAXONOMY.preference_dimensions)):
        for term in used:
            if term not in known:
                raise UnknownTaxonomyTermError(term)


def validate_machine_capability(cap: MachineCapability) -> None:
    for term in cap.programmed_skills:
        if term not in TAXONOMY.skills:
            raise UnknownTaxonomyTermError(term)


# --------------------------------------------------------------------------
# Flat pattern text (used in profile files and kb literal projections)

def render_pattern(pattern: Pattern) -> str:
    def term(t):
        if t == TYPE_PRED:
            return "a"
        return str(t)

    return f"{term(pattern.subject)} {term(pattern.predicate)} {term(pattern.object)}"


def graph_name(text: str, lineno: int = 1) -> Iri:
    """A name a .cap, .srv or .scn file writes into the graph: the built-in prefix only,
    so that the graph serializes to a document that parses back."""
    return parse_name(text, BUILTIN_PREFIXES, lineno)


def _parse_flat_term(text: str, lineno: int):
    if text.startswith("?"):
        return Var(text[1:])
    if text == "a":
        return TYPE_PRED
    return _parse_term(text, BUILTIN_PREFIXES, lineno)


def parse_flat_pattern(text: str, lineno: int = 1) -> Pattern:
    words = line_words(text)
    if len(words) != 3:
        raise ParseError(lineno, 1, "a three-term pattern")
    return Pattern(*(_parse_flat_term(w, lineno) for w in words))


# --------------------------------------------------------------------------
# Capability files (.cap)


_LEVEL_KEYWORDS = {"SKILL": "skills", "ABILITY": "abilities", "PERFORMANCE": "performance_factors"}


def parse_human_capability(text: str):
    """Parse a human .cap document; returns (HumanCapability, contexts)."""
    cap = HumanCapability()
    contexts = []
    for lineno, words in content_lines(text):
        keyword = words[0]
        if keyword in _LEVEL_KEYWORDS and len(words) == 3:
            getattr(cap, _LEVEL_KEYWORDS[keyword])[graph_name(words[1], lineno)] = parse_integer(words[2], lineno)
        elif keyword == "KNOWLEDGE" and len(words) == 2:
            cap.knowledge.append(graph_name(words[1], lineno))
        elif keyword == "EDUCATION" and len(words) == 2:
            cap.education = graph_name(words[1], lineno)
        elif keyword == "PREFERENCE" and len(words) == 3:
            cap.preferences[words[1]] = words[2]
        elif keyword == "CONTEXT" and len(words) == 2:
            contexts.append(graph_name(words[1], lineno))
        else:
            raise ParseError(lineno, 1, "SKILL/KNOWLEDGE/ABILITY/PERFORMANCE/EDUCATION/PREFERENCE/CONTEXT")
    validate_human_capability(cap)
    return cap, tuple(contexts)


def parse_machine_capability(text: str):
    """Parse a machine .cap document; returns (MachineCapability, contexts)."""
    names = {"HARDWARE": [], "SOFTWARE": [], "PROGRAMMED_SKILL": [], "LEARNED": [], "CONTEXT": []}
    for lineno, words in content_lines(text):
        if words[0] not in names or len(words) != 2:
            raise ParseError(lineno, 1, "/".join(names))
        names[words[0]].append(graph_name(words[1], lineno))
    cap = MachineCapability(tuple(names["HARDWARE"]), tuple(names["SOFTWARE"]),
                            frozenset(names["PROGRAMMED_SKILL"]), names["LEARNED"])
    validate_machine_capability(cap)
    return cap, tuple(names["CONTEXT"])


# --------------------------------------------------------------------------
# Service profile files (.srv)


_QOS_KEYS = ("reputation", "cost", "response_time")


def parse_service_profile(text: str):
    """Parse a .srv document; returns (ServiceProfile, provider Iri or None)."""
    service_id = provider = None
    service_type = qos = None
    contexts, inputs, outputs = [], [], []
    preconditions, effects_add, effects_remove, limitations, declarations = [], [], [], [], []
    capability_ref = None
    dop = 1
    for lineno, words in content_lines(text):
        keyword, rest = words[0], words[1:]
        if keyword == "SERVICE" and len(rest) == 1:
            service_id = graph_name(rest[0], lineno)
        elif keyword == "PROVIDER" and len(rest) == 1:
            provider = graph_name(rest[0], lineno)
        elif keyword == "KIND" and len(rest) == 1:
            if rest[0] not in ATOMIC_KINDS:
                raise ParseError(lineno, 1, "one of " + "/".join(sorted(ATOMIC_KINDS)))
            service_type = AtomicType(rest[0])
        elif keyword == "COMPOSITE" and rest:
            service_type = CompositeType(tuple(graph_name(w, lineno) for w in rest))
        elif keyword == "INPUT" and len(rest) == 2:
            inputs.append(TypedParameter(rest[0], graph_name(rest[1], lineno)))
        elif keyword == "OUTPUT" and len(rest) == 2:
            outputs.append(TypedParameter(rest[0], graph_name(rest[1], lineno)))
        elif keyword == "PRECONDITION" and len(rest) >= 3:
            preconditions.append(parse_flat_pattern(" ".join(rest), lineno))
        elif keyword == "EFFECT" and len(rest) >= 4 and rest[0] in ("ADD", "DEL"):
            pattern = parse_flat_pattern(" ".join(rest[1:]), lineno)
            (effects_add if rest[0] == "ADD" else effects_remove).append(pattern)
        elif keyword == "CONTEXT" and len(rest) == 1:
            contexts.append(graph_name(rest[0], lineno))
        elif keyword == "CAPABILITY" and len(rest) == 1:
            capability_ref = graph_name(rest[0], lineno)
        elif keyword == "QOS":
            pairs = [parse_pair(word, lineno) for word in rest]
            kv = dict(pairs)
            if qos is not None or not kv.keys() <= set(_QOS_KEYS) or len(kv) < len(pairs):
                raise ParseError(lineno, 1, "one QOS line, each of " + "/".join(_QOS_KEYS) + " at most once")
            qos = QoS(*(parse_decimal(kv.get(key, "0"), lineno) for key in _QOS_KEYS))
        elif keyword == "PARALLELISM" and len(rest) == 1:
            dop = parse_integer(rest[0], lineno)
        elif keyword == "LIMITATION" and rest:
            limitations.append(parse_flat_limitation(" ".join(rest), lineno))
        elif keyword == "DECLARE" and len(rest) == 3:
            declarations.append(tuple(graph_name(w, lineno) for w in rest))
        else:
            raise ParseError(lineno, 1, "a profile directive")
    if service_id is None:
        raise ParseError(1, 1, "a SERVICE line")
    if service_type is None:
        raise ParseError(1, 1, "a KIND or COMPOSITE line")
    profile = ServiceProfile(
        service_id=service_id,
        service_type=service_type,
        properties=PropertyBundle(qos=qos or QoS(Decimal("0"), Decimal("0"), Decimal("0")),
                                  contexts=tuple(contexts), capability_ref=capability_ref),
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
    words = line_words(text)
    kind = words[0] if words else None
    if kind == "time_window" and len(words) == 3:
        start, end = parse_integer(words[1], lineno), parse_integer(words[2], lineno)
        if start > end:
            raise ParseError(lineno, 1, "an ordered time window")
        return TimeWindow(start, end)
    if kind == "max_distance" and len(words) == 3:
        meters = parse_decimal(words[1], lineno)
        if meters <= 0:
            raise ParseError(lineno, 1, "a positive distance")
        return MaxDistance(meters, graph_name(words[2], lineno))
    if kind == "location" and len(words) == 2:
        return LocationAt(graph_name(words[1], lineno))
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
        if isinstance(pattern.subject, Literal):
            raise InvalidProfileError(f"effect subject {pattern.subject} is a literal, not a name")
        for var in pattern.variables():
            if var not in bound:
                raise InvalidProfileError(f"effect variable ?{var} is not bound by inputs or preconditions")


# --------------------------------------------------------------------------
# Graph codec: how each record is stored as facts, written and read here only
#
# A record's fields are facts on its node.  Each field table row names the
# record attribute, the predicate holding it and the codec between a value
# and an object term; the writer adds one fact per value and the profile
# reader decodes the objects in term order.  Each literal format
# (``term:level``, ``dim:value``, ``name:type``, ``ADD``/``DEL`` patterns,
# ``name=value;...``) is rendered, and parsed where it is read, by one codec.


def _owned_node(owner: Iri, suffix: str) -> Iri:
    """``owner``'s ``Capability``, ``Specification`` or ``Potential`` node."""
    return Iri(owner.prefix, owner.local[:1].lower() + owner.local[1:] + suffix)


def capability_node(owner: Iri) -> Iri:
    return _owned_node(owner, "Capability")


def profile_nodes(service: Iri):
    """Deterministic (profile, property bundle, qos) node names for a service."""
    return tuple(Iri(service.prefix, service.local + part) for part in ("Profile", "Properties", "Qos"))


class _Codec(NamedTuple):
    encode: Callable  # value -> object term
    decode: Optional[Callable]  # object term -> value or None; None itself when never read back


def _literal(kinds, encode, parse) -> _Codec:
    return _Codec(encode, lambda term: parse(term.value)
                  if isinstance(term, Literal) and term.kind in kinds else None)


def _text(render, parse) -> _Codec:
    """Values stored as string literals that ``render`` writes and ``parse`` reads."""
    return _literal(("string",), lambda value: string_literal(render(value)), parse)


_IRI = _Codec(lambda value: value, lambda term: term if isinstance(term, Iri) else None)
_DECIMAL = _literal(("decimal", "integer"), decimal_literal, Decimal)
_INTEGER = _literal(("integer",), integer_literal, int)

def _parse_level(text: str):
    term, _, level = text.rpartition(":")
    try:
        return parse_name(term), parse_integer(level)
    except ParseError:  # not a term:level literal: skipped, like a literal of another form
        return None


def _parse_parameter(text: str) -> TypedParameter:
    name, _, type_text = text.partition(":")
    return TypedParameter(name, parse_name(type_text))


def _effect(verb: str) -> _Codec:
    """``ADD <pattern>`` or ``DEL <pattern>``."""
    head = verb + " "
    return _text(lambda pattern: head + render_pattern(pattern),
                 lambda text: parse_flat_pattern(text[len(head):]) if text.startswith(head) else None)


_LEVEL = _text(lambda pair: f"{pair[0]}:{pair[1]}", _parse_level)  # term:level
_PARAMETER = _text(lambda param: f"{param.name}:{param.type}", _parse_parameter)
_PREFERENCE = _Codec(lambda pair: string_literal(f"{pair[0]}:{pair[1]}"), None)


def _one(value) -> tuple:
    return () if value is None else (value,)


class _Field(NamedTuple):
    attr: str
    predicate: str
    codec: _Codec = _IRI
    build: Callable = tuple  # the values read, in term order -> the attribute
    values: Callable = iter  # the attribute -> the values written, one fact each
    cls: Optional[str] = None  # class asserted on each value written


def _single(attr: str, predicate: str, codec: _Codec = _IRI, default=None) -> _Field:
    """A field of at most one value; of several stored, the first in term order."""
    return _Field(attr, predicate, codec, lambda values: values[0] if values else default, _one)


# HumanCapability's leveled maps: attribute -> (term predicate, level
# predicate, the level of a term stored without one).
_LEVELED = {
    "skills": ("hasHumanSkill", "hasSkillLevel", SKILL_SCALE[0]),
    "abilities": ("hasAbility", "hasAbilityLevel", 1),
    "performance_factors": ("hasPerformanceFactor", "hasPerformanceLevel", 1),
}
_SKILL_LINK, _SKILL_LEVEL = map(iri, _LEVELED["skills"][:2])
_HUMAN = (
    _Field("knowledge", "hasHumanKnowledge"),
    _single("education", "hasEducation"),
    _Field("preferences", "hasPreferenceValue", _PREFERENCE, values=dict.items),
)
_LEARNED = _Field("learned_knowledge", "hasLearnedKnowledge", cls="Knowledge")
_MACHINE = (_Field("programmed_skills", "hasProgrammedSkill"), _LEARNED)
_SPECIFICATION = (
    _Field("hardware", "hasHardware", cls="Hardware"),
    _Field("software", "hasSoftware", cls="Software"),
)
_CONTEXT = _Field("contexts", "hasContext", cls="Context")  # on the capability's owner
_PROFILE = (
    _Field("degree_of_parallelism", "degreeOfParallelism", _INTEGER,
           build=lambda values: values[-1] if values else 1, values=_one),
    _Field("inputs", "hasInput", _PARAMETER),
    _Field("outputs", "hasOutput", _PARAMETER),
    _Field("preconditions", "hasPrecondition", _text(render_pattern, parse_flat_pattern)),
    _Field("effects_add", "hasEffect", _effect("ADD")),
    _Field("effects_remove", "hasEffect", _effect("DEL")),
    _Field("limitations", "hasLimitation", _text(lambda limitation: limitation.render(), parse_flat_limitation)),
)
_BUNDLE = (
    _Field("contexts", "includeContext", cls="Context"),
    _single("capability_ref", "includeCapability"),
)
_REPUTATION = _single("reputation", "reputationValue", _DECIMAL, Decimal("0"))
_QOS = (
    _REPUTATION,
    _single("cost", "costValue", _DECIMAL, Decimal("0")),
    _single("response_time", "responseTimeValue", _DECIMAL, Decimal("0")),
)

_PRESENTS = iri("presents")


def _add(kb: KnowledgeBase, node: Iri, field: _Field, values) -> None:
    for value in values:
        if field.cls is not None:
            kb.add_type(value, iri(field.cls))
        kb.add_statement(node, iri(field.predicate), field.codec.encode(value))


def _write(kb: KnowledgeBase, node: Iri, record, fields) -> None:
    for field in fields:
        _add(kb, node, field, field.values(getattr(record, field.attr)))


def _objects(kb: KnowledgeBase, node: Iri) -> dict:
    """Predicate -> the objects of ``node``'s facts with it, in term order."""
    objects: dict = {}
    for stmt in sorted(kb.statements_about(node), key=lambda s: term_sort_key(s.object)):
        objects.setdefault(stmt.predicate, []).append(stmt.object)
    return objects


def _decoded(objects: dict, predicate: str, codec: _Codec = _IRI) -> list:
    return [v for v in map(codec.decode, objects.get(iri(predicate), ())) if v is not None]


def _read(objects: dict, fields) -> dict:
    """Attribute -> value for each of ``fields``, from :func:`_objects`."""
    return {field.attr: field.build(_decoded(objects, field.predicate, field.codec)) for field in fields}


def _project_owner(kb: KnowledgeBase, owner: Iri, owner_class: str, node_class: str, contexts) -> Iri:
    node = capability_node(owner)
    kb.add_type(owner, iri(owner_class))
    kb.add_type(node, iri(node_class))
    kb.add_statement(owner, iri("hasCapability"), node)
    _add(kb, owner, _CONTEXT, contexts)
    return node


def _write_level(kb: KnowledgeBase, person: Iri, attr: str, term: Iri, level: int) -> None:
    node = capability_node(person)
    link, level_predicate, _ = _LEVELED[attr]
    kb.add_statement(node, iri(link), term)
    kb.add_statement(node, iri(level_predicate), _LEVEL.encode((term, level)))


def _skill_levels(kb: KnowledgeBase, node: Iri, skill: Iri) -> dict:
    """Each ``term:level`` literal of ``skill`` on ``node`` -> its level; no other literal is decoded."""
    head = f"{skill}:"
    texts = [stmt.object for stmt in kb.statements_about(node) if stmt.predicate == _SKILL_LEVEL
             and isinstance(stmt.object, Literal) and str(stmt.object.value).startswith(head)]
    return {text: pair[1] for text, pair in zip(texts, map(_LEVEL.decode, texts)) if pair and pair[0] == skill}


def skill_level(kb: KnowledgeBase, person: Iri, skill: Iri) -> Optional[int]:
    """``person``'s level of ``skill`` (the highest of several), 0 without it; None unless a human."""
    node = capability_node(person)
    if (node, iri("HumanCapability")) not in kb.type_assertions:
        return None
    if Statement(node, _SKILL_LINK, skill) not in kb.statements:
        return 0
    return max(_skill_levels(kb, node, skill).values(), default=_LEVELED["skills"][2])


def set_skill(kb: KnowledgeBase, person: Iri, skill: Iri, scale: int) -> None:
    """``person``'s ``skill`` at ``scale``, in place of every level stored for it."""
    validate_human_capability(HumanCapability(skills={skill: scale}))
    node = capability_node(person)
    for text in _skill_levels(kb, node, skill):
        kb.remove_statement(node, _SKILL_LEVEL, text)
    _write_level(kb, person, "skills", skill, scale)


def project_human(kb: KnowledgeBase, person: Iri, cap: HumanCapability, contexts=()) -> Iri:
    validate_human_capability(cap)
    ensure_plumbing(kb)
    node = _project_owner(kb, person, "PhysicalThing", "HumanCapability", contexts)
    for attr in _LEVELED:
        for term, level in getattr(cap, attr).items():
            _write_level(kb, person, attr, term, level)
    _write(kb, node, cap, _HUMAN)
    return node


_HUMAN_KNOWLEDGE, _LEARNED_KNOWLEDGE = iri("hasHumanKnowledge"), iri("hasLearnedKnowledge")


def knows(kb: KnowledgeBase, owner: Iri, topic: Iri) -> bool:
    """Whether ``owner``'s capability holds ``topic`` as human or learned knowledge."""
    node, statements = capability_node(owner), kb.statements
    return (node, _HUMAN_KNOWLEDGE, topic) in statements or (node, _LEARNED_KNOWLEDGE, topic) in statements


def is_human(kb: KnowledgeBase, owner: Iri) -> bool:
    """Whether ``owner`` registered as a human: a set lookup, with no index read."""
    return (capability_node(owner), iri("HumanCapability")) in kb.type_assertions


def is_machine(kb: KnowledgeBase, owner: Iri) -> bool:
    return (capability_node(owner), iri("MachineCapability")) in kb.type_assertions


def project_machine(kb: KnowledgeBase, machine: Iri, cap: MachineCapability, contexts=()) -> Iri:
    validate_machine_capability(cap)
    node = _project_owner(kb, machine, "Machine", "MachineCapability", contexts)
    spec = _owned_node(machine, "Specification")
    kb.add_type(spec, iri("MachineSpecification"))
    kb.add_statement(node, iri("hasSpecification"), spec)
    _write(kb, spec, cap, _SPECIFICATION)
    _write(kb, node, cap, _MACHINE)
    return node


def project_learned_knowledge(kb: KnowledgeBase, machine: Iri, topic: Iri) -> None:
    _add(kb, capability_node(machine), _LEARNED, (topic,))


def project_profile(kb: KnowledgeBase, profile: ServiceProfile, provider: Iri) -> None:
    """Store ``profile`` as published by ``provider`` (a Machine's is a MachineService)."""
    service = profile.service_id
    profile_node, props_node, qos_node = profile_nodes(service)
    for prop, domain, range_ in profile.declarations:
        kb.add_property(prop, domain, range_)
    composite = isinstance(profile.service_type, CompositeType)
    type_class = iri("CompositeService" if composite else ATOMIC_KINDS[profile.service_type.kind])
    kb.add_type(service, iri("Service"))
    kb.add_type(service, type_class)
    if (provider, iri("Machine")) in kb.type_assertions:
        kb.add_type(service, iri("MachineService"))
    if composite:
        for part in profile.service_type.parts:
            kb.add_statement(service, iri("composedOf"), part)
    kb.add_statement(service, iri("providedBy"), provider)
    kb.add_statement(provider, iri("provides"), service)
    present(kb, service)
    kb.add_type(profile_node, iri("ServiceProfile"))
    kb.add_statement(profile_node, iri("hasServiceType"), type_class)
    _write(kb, profile_node, profile, _PROFILE)
    kb.add_statement(profile_node, iri("hasProperty"), props_node)
    kb.add_type(props_node, iri("Property"))
    _write(kb, props_node, profile.properties, _BUNDLE)
    kb.add_statement(props_node, iri("includeQoS"), qos_node)
    kb.add_type(qos_node, iri("QoS"))
    _write(kb, qos_node, profile.properties.qos, _QOS)


def read_profile(kb: KnowledgeBase, service: Iri):
    """``(profile, provider)`` stored for ``service``; None without a provider or a service type."""
    profile_node, props_node, qos_node = profile_nodes(service)
    own, objects = _objects(kb, service), _objects(kb, profile_node)
    providers = _decoded(own, "providedBy")
    type_class = (_decoded(objects, "hasServiceType") or [None])[0]
    if type_class == iri("CompositeService"):
        service_type = CompositeType(tuple(_decoded(own, "composedOf")))
    else:
        kinds = [kind for kind, cls in ATOMIC_KINDS.items() if iri(cls) == type_class]
        service_type = AtomicType(kinds[0]) if kinds else None
    if not providers or service_type is None:
        return None
    bundle = PropertyBundle(qos=QoS(**_read(_objects(kb, qos_node), _QOS)),
                            **_read(_objects(kb, props_node), _BUNDLE))
    profile = ServiceProfile(service_id=service, service_type=service_type, properties=bundle,
                             **_read(objects, _PROFILE))
    return profile, providers[0]


def stored_profile(kb: KnowledgeBase, profile: ServiceProfile, provider: Iri,
                   reputation: Optional[Decimal] = None) -> ServiceProfile:
    """``profile`` as ``kb`` would store it, with ``reputation`` in place of the declared one."""
    scratch = KnowledgeBase(property_decls=dict(kb.property_decls))
    project_profile(scratch, profile, provider)
    if reputation is not None:
        project_reputation(scratch, profile.service_id, reputation)
    return read_profile(scratch, profile.service_id)[0]


def holds_profile(kb: KnowledgeBase, service: Iri) -> bool:
    """Whether ``kb`` holds a profile of ``service``, published or not (no index read)."""
    return (profile_nodes(service)[0], iri("ServiceProfile")) in kb.type_assertions


def present(kb: KnowledgeBase, service: Iri) -> None:
    """Make ``service`` discoverable: link it to its profile with ``presents``."""
    kb.add_statement(service, _PRESENTS, profile_nodes(service)[0])


def retract_presentation(kb: KnowledgeBase, service: Iri) -> None:
    """Withdraw a service from discovery by retracting its presents link."""
    kb.remove_statement(service, _PRESENTS, profile_nodes(service)[0])


def is_presented(kb: KnowledgeBase, service: Iri) -> bool:
    return Statement(service, _PRESENTS, profile_nodes(service)[0]) in kb.statements


def profiled_services(kb: KnowledgeBase) -> list:
    """The services with a provider in ``kb``, published or withdrawn, in order."""
    return sorted({b["s"] for b in kb.match(Pattern(Var("s"), iri("providedBy"), Var("p")))})


def project_reputation(kb: KnowledgeBase, service: Iri, reputation: Decimal) -> None:
    """Replace the reputation value on ``service``'s QoS node."""
    qos_node = profile_nodes(service)[2]
    predicate = iri(_REPUTATION.predicate)
    for stmt in [s for s in kb.statements_about(qos_node) if s.predicate == predicate]:
        kb.remove_statement(qos_node, predicate, stmt.object)
    _add(kb, qos_node, _REPUTATION, (reputation,))


def project_experience(kb: KnowledgeBase, service: Iri, requester: Iri, rating: Decimal, criteria,
                       provider: Iri, index: int) -> None:
    """Store a rating, with its ``(name, value)`` criteria, on the first unused experience node from ``index`` on."""
    ensure_plumbing(kb)
    while kb.statements_about(Iri(service.prefix, f"{service.local}Exp{index}")):
        index += 1
    node = Iri(service.prefix, f"{service.local}Exp{index}")
    kb.add_type(node, iri("Experience"))
    kb.add_statement(node, iri("experienceOf"), service)
    kb.add_statement(node, iri("ratedBy"), requester)
    kb.add_statement(node, iri("ratingValue"), decimal_literal(rating))
    if criteria:
        kb.add_statement(node, iri("hasCriteria"),
                         string_literal(";".join(f"{name}={value}" for name, value in criteria)))
    kb.add_statement(capability_node(provider), iri("hasExperience"), node)


def service_ratings(kb: KnowledgeBase, service: Iri) -> list:
    """Every rating on an experience of ``service``, in ascending order."""
    experience_of, rating = iri("experienceOf"), iri("ratingValue")
    terms = [fact.object for stmt in kb.statements_to(service) if stmt.predicate == experience_of
             for fact in kb.statements_about(stmt.subject) if fact.predicate == rating]
    return sorted(value for value in map(_DECIMAL.decode, terms) if value is not None)


def provider_rating_count(kb: KnowledgeBase, provider: Iri) -> int:
    """The ratings of every service ``provider`` provides, withdrawn ones included."""
    return sum(len(service_ratings(kb, stmt.object)) for stmt in kb.statements_about(provider)
               if stmt.predicate == iri("provides"))


def project_potential(kb: KnowledgeBase, person: Iri, service: Iri) -> None:
    """Record that ``person`` may come to provide ``service``."""
    node = _owned_node(person, "Potential")
    kb.add_type(node, iri("Potential"))
    kb.add_statement(capability_node(person), iri("hasPotential"), node)
    kb.add_type(service, iri("PotentialService"))
    kb.add_statement(node, iri("hasPotentialService"), service)
