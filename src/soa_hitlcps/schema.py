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
type gives each field's line keyword, predicate and codec, and drives both
the text readers and the graph writers; a rating is written from its values.
The graph readers return a profile or one answer (a skill's level, a known
topic, a service's ratings).  A ``ServiceProfile`` is one flat record:
``SERVICE_KINDS`` alone maps its kind to a class, and only the codec nests its
QoS, contexts and capability under a Property node (the OWL-S profile shape).
Scales, preferences, parameter signatures and rating criteria are string
literals on a handful of instance-level plumbing properties
(``hasSkillLevel`` and friends) that are declared on demand and are
deliberately not part of the base ontology's 45.  A service is published
exactly when its ``presents`` link is in the graph.
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


SERVICE_KINDS = {
    "sensing": iri("SensingService"),
    "actuating": iri("ActuatingService"),
    "communicating": iri("CommunicatingService"),
    "processing": iri("ProcessingService"),
    "composite": iri("CompositeService"),
}
_ATOMIC = sorted(kind for kind in SERVICE_KINDS if kind != "composite")  # the kinds a KIND line names


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


@dataclass(frozen=True)
class MaxDistance:
    meters: Decimal
    anchor: Iri


@dataclass(frozen=True)
class LocationAt:
    location: Iri


@dataclass(frozen=True)
class Condition:
    pattern: Pattern


Limitation = Union[TimeWindow, MaxDistance, LocationAt, Condition]


@dataclass(frozen=True)
class ServiceProfile:
    service_id: Iri
    kind: str  # a key of SERVICE_KINDS
    qos: QoS
    parts: tuple = ()  # the services a composite is composed of; empty for any other kind
    contexts: tuple = ()
    capability_ref: Optional[Iri] = None
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
    terms = (pattern.subject, pattern.predicate, pattern.object)
    return " ".join("a" if term == TYPE_PRED else str(term) for term in terms)


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


def validate_profile(profile: ServiceProfile) -> None:
    if profile.kind not in SERVICE_KINDS:
        raise InvalidProfileError(f"service kind {profile.kind!r} is not one of " + "/".join(sorted(SERVICE_KINDS)))
    if profile.parts and profile.kind != "composite":
        raise InvalidProfileError("only a composite service has parts")
    if profile.degree_of_parallelism < 1:
        raise InvalidProfileError("degree of parallelism must be >= 1")
    qos = profile.qos
    if not Decimal("0") <= qos.reputation <= Decimal("5"):
        raise InvalidProfileError("reputation must be within 0..5")
    if qos.cost < 0 or qos.response_time < 0:
        raise InvalidProfileError("cost and response time must be non-negative")
    bound = {p.name for p in profile.inputs} | {"consumer"}
    for pattern in profile.preconditions:
        bound |= set(pattern.variables())
    for pattern in profile.effects_add + profile.effects_remove:
        if isinstance(pattern.subject, Literal):
            raise InvalidProfileError(f"effect subject {pattern.subject} is a literal, not a name")
        for var in pattern.variables():
            if var not in bound:
                raise InvalidProfileError(f"effect variable ?{var} is not bound by inputs or preconditions")


# --------------------------------------------------------------------------
# Field tables: one row per record field, which the text readers, the graph
# writer and the profile reader all loop over.  Each value format (a name,
# ``term:level``, ``name:type``, ``ADD``/``DEL`` patterns, ...) is read from a
# line, written as an object term and decoded from one by its codec.


def _words(count: int, read: Callable) -> Callable:
    """A line of ``count`` words, which ``read(*words, lineno)`` reads."""
    return lambda words, lineno: read(*words, lineno) if len(words) == count else None


def _joined(parse: Callable, fewest: int) -> Callable:
    """A line of at least ``fewest`` words, which ``parse`` reads as one text."""
    return lambda words, lineno: parse(" ".join(words), lineno) if len(words) >= fewest else None


def _each(*readers) -> Callable:
    """A line of one word per reader, each read by its reader ``(word, lineno)``: the values in a tuple."""
    return lambda words, lineno: (tuple(read(word, lineno) for read, word in zip(readers, words))
                                  if len(words) == len(readers) else None)


# record -> (its LIMITATION keyword, the reader of the words after it, the range of the values read or None,
# the text expected out of that range); a condition reads the rest of the line as one pattern
_LIMITATIONS = {
    TimeWindow: ("time_window", _each(parse_integer, parse_integer), lambda start, end: start <= end,
                 "an ordered time window"),
    MaxDistance: ("max_distance", _each(parse_decimal, graph_name), lambda meters, anchor: meters > 0,
                  "a positive distance"),
    LocationAt: ("location", _each(graph_name), None, None),
    Condition: ("condition", _joined(lambda text, lineno: (parse_flat_pattern(text, lineno),), 3), None, None),
}


def parse_flat_limitation(text: str, lineno: int = 1) -> Limitation:
    keyword, *rest = line_words(text) or [None]
    for record, (name, read, in_range, expected) in _LIMITATIONS.items():
        values = read(rest, lineno) if keyword == name else None
        if values is not None:
            if in_range and not in_range(*values):
                raise ParseError(lineno, 1, expected)
            return record(*values)
    raise ParseError(lineno, 1, "/".join(row[0] for row in _LIMITATIONS.values()))


def _render_limitation(limitation: Limitation) -> str:
    """The words :func:`parse_flat_limitation` reads ``limitation`` from."""
    values = (render_pattern(v) if isinstance(v, Pattern) else str(v) for v in vars(limitation).values())
    return " ".join((_LIMITATIONS[type(limitation)][0], *values))


class _Codec(NamedTuple):
    encode: Callable  # value -> object term
    decode: Optional[Callable]  # object term -> value or None; None itself when never read back
    line: Optional[Callable] = None  # (words after a line's keyword, lineno) -> value; None if they do not fit


def _literal(kinds, encode, parse, line=None) -> _Codec:
    return _Codec(encode, lambda term: parse(term.value)
                  if isinstance(term, Literal) and term.kind in kinds else None, line)


def _text(render, parse, line=None) -> _Codec:
    """Values stored as string literals that ``render`` writes and ``parse`` reads."""
    return _literal(("string",), lambda value: string_literal(render(value)), parse, line)


_IRI = _Codec(lambda value: value, lambda term: term if isinstance(term, Iri) else None, _words(1, graph_name))
_DECIMAL = _literal(("decimal", "integer"), decimal_literal, Decimal)
_INTEGER = _literal(("integer",), integer_literal, int, _words(1, parse_integer))

def _parse_level(text: str):
    term, _, level = text.rpartition(":")
    try:
        return parse_name(term), parse_integer(level)
    except ParseError:  # not a term:level literal: skipped, like a literal of another form
        return None


def _name_and_level(name: str, level: str, lineno: int) -> tuple:
    value = parse_integer(level, lineno)  # read first: ``SKILL zz:Foo x`` wants an integer
    return graph_name(name, lineno), value


def _parse_parameter(text: str) -> TypedParameter:
    name, _, type_text = text.partition(":")
    return TypedParameter(name, parse_name(type_text))


_LEVEL = _text(lambda pair: f"{pair[0]}:{pair[1]}", _parse_level, _words(2, _name_and_level))  # term:level
_PARAMETER = _text(lambda param: f"{param.name}:{param.type}", _parse_parameter,
                   _words(2, lambda name, type_name, lineno: TypedParameter(name, graph_name(type_name, lineno))))
_PREFERENCE = _Codec(lambda pair: string_literal(f"{pair[0]}:{pair[1]}"), None,
                     _words(2, lambda dimension, value, lineno: (dimension, value)))
_PATTERN = _text(render_pattern, parse_flat_pattern, _joined(parse_flat_pattern, 3))
_LIMITATION = _text(_render_limitation, parse_flat_limitation, _joined(parse_flat_limitation, 1))


def _one(value) -> tuple:
    return () if value is None else (value,)


class _Field(NamedTuple):
    keyword: Optional[str]  # the .cap/.srv line that fills it; None for a QoS value
    attr: str
    predicate: str
    codec: _Codec = _IRI
    build: Callable = tuple  # the values read, in term or line order -> the attribute
    values: Callable = iter  # the attribute -> the values written, one fact each
    cls: Optional[str] = None  # class asserted on each value written
    link: Optional[str] = None  # predicate to each value's term, written before its fact


def _single(keyword: Optional[str], attr: str, predicate: str, codec: _Codec = _IRI, default=None) -> _Field:
    """A field of at most one value: of several lines the last counts, of several facts the first in term order."""
    return _Field(keyword, attr, predicate, codec, lambda values: values[0] if values else default, _one)


def _leveled(keyword: str, attr: str, link: str, predicate: str) -> _Field:
    """A term -> level map: a ``link`` to each term and a ``term:level`` literal with ``predicate``."""
    return _Field(keyword, attr, predicate, _LEVEL, dict, dict.items, link=link)


def _effect(attr: str, verb: str) -> _Field:
    """``EFFECT ADD <pattern>`` or ``EFFECT DEL <pattern>``, stored as the literal after ``EFFECT``."""
    head = verb + " "

    def parse(text: str, lineno: int = 1):
        return parse_flat_pattern(text[len(head):], lineno) if text.startswith(head) else None

    return _Field("EFFECT", attr, "hasEffect", _text(lambda pattern: head + render_pattern(pattern), parse,
                                                     _joined(parse, 4)))


_SKILLS = _leveled("SKILL", "skills", "hasHumanSkill", "hasSkillLevel")
_HUMAN = (
    _SKILLS,
    _Field("KNOWLEDGE", "knowledge", "hasHumanKnowledge", build=list),
    _leveled("ABILITY", "abilities", "hasAbility", "hasAbilityLevel"),
    _leveled("PERFORMANCE", "performance_factors", "hasPerformanceFactor", "hasPerformanceLevel"),
    _single("EDUCATION", "education", "hasEducation"),
    _Field("PREFERENCE", "preferences", "hasPreferenceValue", _PREFERENCE, dict, dict.items),
)
_LEARNED = _Field("LEARNED", "learned_knowledge", "hasLearnedKnowledge", build=list, cls="Knowledge")
_MACHINE = (_Field("PROGRAMMED_SKILL", "programmed_skills", "hasProgrammedSkill", build=frozenset), _LEARNED)
_SPECIFICATION = (
    _Field("HARDWARE", "hardware", "hasHardware", cls="Hardware"),
    _Field("SOFTWARE", "software", "hasSoftware", cls="Software"),
)
_CONTEXT = _Field("CONTEXT", "contexts", "hasContext", cls="Context")  # on the capability's owner
_PROFILE = (
    _Field("PARALLELISM", "degree_of_parallelism", "degreeOfParallelism", _INTEGER,
           build=lambda values: values[-1] if values else 1, values=_one),
    _Field("INPUT", "inputs", "hasInput", _PARAMETER),
    _Field("OUTPUT", "outputs", "hasOutput", _PARAMETER),
    _Field("PRECONDITION", "preconditions", "hasPrecondition", _PATTERN),
    _effect("effects_add", "ADD"),
    _effect("effects_remove", "DEL"),
    _Field("LIMITATION", "limitations", "hasLimitation", _LIMITATION),
)
_PROPERTY = (
    _CONTEXT._replace(predicate="includeContext"),
    _single("CAPABILITY", "capability_ref", "includeCapability"),
)
_REPUTATION = _single(None, "reputation", "reputationValue", _DECIMAL, Decimal("0"))
_QOS = (
    _REPUTATION,
    _single(None, "cost", "costValue", _DECIMAL, Decimal("0")),
    _single(None, "response_time", "responseTimeValue", _DECIMAL, Decimal("0")),
)


# --------------------------------------------------------------------------
# Capability (.cap) and service profile (.srv) files: one line per value


def _keywords(fields: tuple) -> dict:
    """Keyword -> (line reader, attribute, one value?, build) of each field it may fill, in the order tried."""
    lines: dict = {}
    for field in fields:
        lines.setdefault(field.keyword, []).append((field.codec.line, field.attr, field.values is _one, field.build))
    return lines


_HUMAN_LINES = _keywords(_HUMAN + (_CONTEXT,))
_MACHINE_LINES = _keywords(_SPECIFICATION + _MACHINE + (_CONTEXT,))
_PROFILE_LINES = _keywords(_PROFILE + _PROPERTY)


def _read_lines(text: str, lines: dict, other: Optional[Callable] = None) -> dict:
    """Attribute -> value of each field the lines of ``text`` fill; a field no line fills is left out.

    ``other(keyword, words, lineno)`` reads a line that fits no field, or raises; without it the line is an error.
    """
    found: dict = {}
    for lineno, words in content_lines(text):
        rest = words[1:]
        for line, attr, single, build in lines.get(words[0], ()):
            value = line(rest, lineno)
            if value is not None:
                if single or attr not in found:  # of a field of one value, the last line counts
                    found[attr] = build, [value]
                else:
                    found[attr][1].append(value)
                break
        else:
            if other is None:
                raise ParseError(lineno, 1, "/".join(lines))
            other(words[0], rest, lineno)
    return {attr: build(values) for attr, (build, values) in found.items()}


def _read_capability(text: str, lines: dict, record: type, validate: Callable):
    """``(record, contexts)`` from a .cap document, the record validated once every line is read."""
    values = _read_lines(text, lines)
    contexts = values.pop("contexts", ())
    cap = record(**values)
    validate(cap)
    return cap, contexts


def parse_human_capability(text: str):
    """Parse a human .cap document; returns (HumanCapability, contexts)."""
    return _read_capability(text, _HUMAN_LINES, HumanCapability, validate_human_capability)


def parse_machine_capability(text: str):
    """Parse a machine .cap document; returns (MachineCapability, contexts)."""
    return _read_capability(text, _MACHINE_LINES, MachineCapability, validate_machine_capability)


def parse_service_profile(text: str):
    """Parse a .srv document; returns (ServiceProfile, provider Iri or None)."""
    service_id = provider = kind = qos = None
    parts, declarations = (), []

    def other(keyword: str, rest: list, lineno: int) -> None:  # the six lines outside the field tables
        nonlocal service_id, provider, kind, parts, qos
        if keyword == "SERVICE" and len(rest) == 1:
            service_id = graph_name(rest[0], lineno)
        elif keyword == "PROVIDER" and len(rest) == 1:
            provider = graph_name(rest[0], lineno)
        elif keyword == "KIND" and len(rest) == 1:
            if rest[0] not in _ATOMIC:
                raise ParseError(lineno, 1, "one of " + "/".join(_ATOMIC))
            kind, parts = rest[0], ()
        elif keyword == "COMPOSITE" and rest:
            kind, parts = "composite", tuple(graph_name(w, lineno) for w in rest)
        elif keyword == "QOS":
            pairs = [parse_pair(word, lineno) for word in rest]
            keys, given = [field.attr for field in _QOS], dict(pairs)
            if qos is not None or not given.keys() <= set(keys) or len(given) < len(pairs):
                raise ParseError(lineno, 1, "one QOS line, each of " + "/".join(keys) + " at most once")
            qos = QoS(**{key: parse_decimal(given.get(key, "0"), lineno) for key in keys})
        elif keyword == "DECLARE" and len(rest) == 3:
            declarations.append(tuple(graph_name(w, lineno) for w in rest))
        else:
            raise ParseError(lineno, 1, "a profile directive")

    values = _read_lines(text, _PROFILE_LINES, other)
    if service_id is None:
        raise ParseError(1, 1, "a SERVICE line")
    if kind is None:
        raise ParseError(1, 1, "a KIND or COMPOSITE line")
    qos = qos or QoS(Decimal("0"), Decimal("0"), Decimal("0"))
    return ServiceProfile(service_id, kind, qos, parts, declarations=tuple(declarations), **values), provider


# --------------------------------------------------------------------------
# Graph codec: how each record is stored as facts, written and read here only


def _owned_node(owner: Iri, suffix: str) -> Iri:
    """``owner``'s ``Capability``, ``Specification`` or ``Potential`` node."""
    return Iri(owner.prefix, owner.local[:1].lower() + owner.local[1:] + suffix)


def capability_node(owner: Iri) -> Iri:
    return _owned_node(owner, "Capability")


def profile_nodes(service: Iri):
    """Deterministic (profile, property, qos) node names for a service."""
    return tuple(Iri(service.prefix, service.local + part) for part in ("Profile", "Properties", "Qos"))


_PRESENTS = iri("presents")


def _add(kb: KnowledgeBase, node: Iri, field: _Field, values) -> None:
    for value in values:
        if field.cls is not None:
            kb.add_type(value, iri(field.cls))
        if field.link is not None:
            kb.add_statement(node, iri(field.link), value[0])
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


_SKILL_LINK, _SKILL_LEVEL = iri(_SKILLS.link), iri(_SKILLS.predicate)


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
    return max(_skill_levels(kb, node, skill).values(), default=SKILL_SCALE[0])  # a level-less skill: the lowest


def set_skill(kb: KnowledgeBase, person: Iri, skill: Iri, scale: int) -> None:
    """``person``'s ``skill`` at ``scale``, in place of every level stored for it."""
    validate_human_capability(HumanCapability(skills={skill: scale}))
    node = capability_node(person)
    for text in _skill_levels(kb, node, skill):
        kb.remove_statement(node, _SKILL_LEVEL, text)
    _add(kb, node, _SKILLS, ((skill, scale),))


def project_human(kb: KnowledgeBase, person: Iri, cap: HumanCapability, contexts=()) -> Iri:
    validate_human_capability(cap)
    ensure_plumbing(kb)
    node = _project_owner(kb, person, "PhysicalThing", "HumanCapability", contexts)
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
    service, type_class = profile.service_id, SERVICE_KINDS[profile.kind]
    profile_node, props_node, qos_node = profile_nodes(service)
    # the declarations are made on a scratch copy first, so one that conflicts raises before kb changes
    for target in (KnowledgeBase(property_decls=dict(kb.property_decls)), kb) if profile.declarations else ():
        for declaration in profile.declarations:
            target.add_property(*declaration)
    kb.add_type(service, iri("Service"))
    kb.add_type(service, type_class)
    if (provider, iri("Machine")) in kb.type_assertions:
        kb.add_type(service, iri("MachineService"))
    for part in profile.parts:
        kb.add_statement(service, iri("composedOf"), part)
    kb.add_statement(service, iri("providedBy"), provider)
    kb.add_statement(provider, iri("provides"), service)
    present(kb, service)
    kb.add_type(profile_node, iri("ServiceProfile"))
    kb.add_statement(profile_node, iri("hasServiceType"), type_class)
    _write(kb, profile_node, profile, _PROFILE)
    kb.add_statement(profile_node, iri("hasProperty"), props_node)
    kb.add_type(props_node, iri("Property"))
    _write(kb, props_node, profile, _PROPERTY)
    kb.add_statement(props_node, iri("includeQoS"), qos_node)
    kb.add_type(qos_node, iri("QoS"))
    _write(kb, qos_node, profile.qos, _QOS)


def read_profile(kb: KnowledgeBase, service: Iri):
    """``(profile, provider)`` stored for ``service``; None without a provider or a service type."""
    profile_node, props_node, qos_node = profile_nodes(service)
    own, objects = _objects(kb, service), _objects(kb, profile_node)
    providers = _decoded(own, "providedBy")
    type_class = (_decoded(objects, "hasServiceType") or [None])[0]
    kinds = [kind for kind, cls in SERVICE_KINDS.items() if cls == type_class]
    if not providers or not kinds:
        return None
    parts = tuple(_decoded(own, "composedOf")) if kinds[0] == "composite" else ()
    profile = ServiceProfile(service_id=service, kind=kinds[0], qos=QoS(**_read(_objects(kb, qos_node), _QOS)),
                             parts=parts, **_read(_objects(kb, props_node), _PROPERTY), **_read(objects, _PROFILE))
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
    node = Iri(service.prefix, f"{service.local}Exp{index}")
    # a node with a fact, or typed Experience, is in use; the graph's type
    # index is not read, since a closure of the graph may have taken it
    while kb.statements_about(node) or (node, iri("Experience")) in kb.type_assertions:
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
