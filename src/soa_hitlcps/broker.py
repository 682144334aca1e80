"""QoS-ranked discovery, invocation with contract checks, and composition.

The broker turns a structured discovery request into a query over the
materialized graph, post-filters candidates on kind, scale, limitations, and
QoS bounds, and ranks them with a weighted utility over reputation, cost, and
response time.  Invocations move ``pending -> running -> completed|failed``;
a pending invocation can be ``rejected`` with a reason (``at_capacity``,
``limitation``, ``precondition``).  Effects apply atomically on completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Optional

from .errors import (
    EmptyCriteriaError,
    InputSignatureMismatchError,
    InvalidStateError,
    ParseError,
    UnknownServiceError,
)
from .kb import DEFAULT_PREFIX, Iri, KnowledgeBase, Pattern, TYPE_PRED, Var, iri, parse_name
from .query import And, Eq, InSet, QueryAst, QueryName, QueryPattern, evaluate
from .reasoner import materialize
from .registry import (
    COMPLETED,
    FAILED,
    Invocation,
    PUBLISHED,
    REJECTED,
    RUNNING,
    ServiceRegistry,
)
from .schema import (
    ATOMIC_KINDS,
    _decimal,
    Condition,
    LocationAt,
    TimeWindow,
)


@dataclass(frozen=True)
class ScoringConfig:
    reputation_weight: Decimal = Decimal("0.5")
    cost_weight: Decimal = Decimal("0.25")
    response_time_weight: Decimal = Decimal("0.25")
    reputation_scale: Decimal = Decimal("5")
    cost_cap: Decimal = Decimal("100")
    response_time_cap: Decimal = Decimal("60")

    def score(self, reputation: Decimal, cost: Decimal, response_time: Decimal) -> Decimal:
        reputation_term = self.reputation_weight * (reputation / self.reputation_scale)
        cost_term = self.cost_weight * (1 - min(cost, self.cost_cap) / self.cost_cap)
        response_term = self.response_time_weight * (
            1 - min(response_time, self.response_time_cap) / self.response_time_cap
        )
        total = reputation_term + cost_term + response_term
        return total.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class DiscoveryRequest:
    required_skills: tuple = ()      # (skill Iri, minimum scale or None)
    required_knowledge: tuple = ()   # knowledge Iris, any-of
    required_abilities: tuple = ()   # ability Iris, all required
    service_kind: Optional[str] = None
    context_constraints: tuple = ()  # context Iris, any-of
    io_signature: Optional[tuple] = None  # (input type Iris, output type Iris)
    qos_constraints: tuple = ()      # (name, Decimal) pairs

    def __post_init__(self):
        if not (self.required_skills or self.required_knowledge or self.required_abilities
                or self.service_kind or self.context_constraints or self.io_signature
                or self.qos_constraints):
            raise EmptyCriteriaError("a discovery request needs at least one criterion")


_QOS_KEYS = ("min_reputation", "max_cost", "max_response_time")


def parse_discovery_request(text: str) -> DiscoveryRequest:
    """Parse the flat one-line request form.

    Example::

        DISCOVER skill=Complex_Problem_Solving:6 knowledge=Medicine_and_Dentistry
                 context=siteA kind=processing qos.min_reputation=4
    """
    words = text.split()
    if not words or words[0] != "DISCOVER":
        raise EmptyCriteriaError("expected a DISCOVER line")
    skills, knowledge, abilities, contexts = [], [], [], []
    inputs, outputs, qos = [], [], []
    kind = None
    for word in words[1:]:
        key, eq, value = word.partition("=")
        if not eq or not value:
            raise EmptyCriteriaError(f"malformed criterion {word!r}")
        if key == "skill":
            skills.append(parse_skill(value))
        elif key == "knowledge":
            knowledge.extend(parse_name(v) for v in value.split(","))
        elif key == "ability":
            abilities.extend(parse_name(v) for v in value.split(","))
        elif key == "context":
            contexts.extend(parse_name(v) for v in value.split(","))
        elif key == "kind":
            kind = value
        elif key == "input":
            inputs.extend(parse_name(v) for v in value.split(","))
        elif key == "output":
            outputs.extend(parse_name(v) for v in value.split(","))
        elif key.startswith("qos.") and key[4:] in _QOS_KEYS:
            try:
                qos.append((key[4:], _decimal(value, 1)))
            except ParseError:
                raise EmptyCriteriaError(f"malformed criterion {word!r}") from None
        else:
            raise EmptyCriteriaError(f"unknown criterion {key!r}")
    io_signature = (tuple(inputs), tuple(outputs)) if inputs or outputs else None
    return DiscoveryRequest(
        required_skills=tuple(skills),
        required_knowledge=tuple(knowledge),
        required_abilities=tuple(abilities),
        service_kind=kind,
        context_constraints=tuple(contexts),
        io_signature=io_signature,
        qos_constraints=tuple(qos),
    )


def parse_skill(text: str) -> tuple:
    """``name[:scale]`` as (skill Iri, minimum scale or None)."""
    name, _, scale = text.rpartition(":")
    if name and scale.isdigit():
        return parse_name(name), int(scale)
    return parse_name(text), None


def _query_name(term: Iri) -> QueryName:
    return QueryName(f"{term.prefix}:{term.local}")


def compile_request(request: DiscoveryRequest) -> QueryAst:
    """Build the discovery query for the graph-matching part of a request."""
    prefix = DEFAULT_PREFIX
    patterns = [
        QueryPattern(Var("service"), QueryName(f"{prefix}:presents"), Var("serviceprofile")),
        QueryPattern(Var("serviceprofile"), QueryName(f"{prefix}:hasProperty"), Var("property")),
        QueryPattern(Var("property"), QueryName(f"{prefix}:includeCapability"), Var("capability")),
    ]
    conjuncts = []
    if request.context_constraints:
        patterns.append(QueryPattern(Var("property"), QueryName(f"{prefix}:includeContext"), Var("context")))
        if len(request.context_constraints) == 1:
            conjuncts.append(Eq("context", _query_name(request.context_constraints[0])))
        else:
            conjuncts.append(InSet("context", tuple(_query_name(c) for c in request.context_constraints)))
    skill_conjuncts = []
    for index, (skill, _minimum) in enumerate(request.required_skills):
        var = "skill" if index == 0 else f"skill{index + 1}"
        patterns.append(QueryPattern(Var("capability"), QueryName(f"{prefix}:hasHumanSkill"), Var(var)))
        skill_conjuncts.append(Eq(var, _query_name(skill)))
    conjuncts.extend(skill_conjuncts)
    if request.required_knowledge:
        patterns.append(QueryPattern(Var("capability"), QueryName(f"{prefix}:hasHumanKnowledge"), Var("knowledge")))
        if len(request.required_knowledge) == 1:
            conjuncts.append(Eq("knowledge", _query_name(request.required_knowledge[0])))
        else:
            conjuncts.append(InSet("knowledge", tuple(_query_name(k) for k in request.required_knowledge)))
    for index, ability in enumerate(request.required_abilities):
        var = "ability" if index == 0 else f"ability{index + 1}"
        patterns.append(QueryPattern(Var("capability"), QueryName(f"{prefix}:hasAbility"), Var(var)))
        conjuncts.append(Eq(var, _query_name(ability)))
    if not conjuncts:
        filter_expr = None
    elif len(conjuncts) == 1:
        filter_expr = conjuncts[0]
    else:
        filter_expr = And(tuple(conjuncts))
    return QueryAst(projected=("service",), patterns=tuple(patterns), filter=filter_expr)


@dataclass(frozen=True)
class RankedService:
    service: Iri
    provider: Iri
    score: Decimal


@dataclass
class ServiceBroker:
    registry: ServiceRegistry
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    # (kb, kb.version, closure) of the last rebuild.  Every read until the
    # graph changes shares that closure, so nothing may mutate it.
    _cache: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    def _closure(self) -> KnowledgeBase:
        """The materialized registry graph, rebuilt only when the graph changed."""
        kb = self.registry.kb
        cached_kb, version, closed = self._cache
        if cached_kb is not kb or version != kb.version:
            closed = materialize(kb)
            self._cache = (kb, kb.version, closed)
        return closed

    # -- discovery -------------------------------------------------------------

    def discover(self, request: DiscoveryRequest, now: Optional[int] = None):
        closed = self._closure()
        table = evaluate(closed, compile_request(request))
        candidates = sorted({row[0] for row in table.rows if isinstance(row[0], Iri)})
        ranked = []
        for service in candidates:
            record = self.registry.services.get(service)
            if record is None or record.status != PUBLISHED:
                continue
            if not self._kind_matches(closed, service, request.service_kind):
                continue
            if not self._scales_match(record, request.required_skills):
                continue
            if not self._io_matches(record, request.io_signature):
                continue
            if not self._limitations_hold(closed, record, now):
                continue
            if not self._qos_holds(record, request.qos_constraints):
                continue
            score = self.scoring.score(
                record.reputation,
                record.profile.properties.qos.cost,
                record.profile.properties.qos.response_time,
            )
            ranked.append(RankedService(service, record.provider, score))
        ranked.sort(key=lambda r: (-r.score, r.service))
        return ranked

    def _kind_matches(self, closed: KnowledgeBase, service: Iri, kind: Optional[str]) -> bool:
        if kind is None:
            return True
        if kind == "composite":
            return iri("CompositeService") in closed.types_of(service)
        cls = ATOMIC_KINDS.get(kind)
        return cls is not None and iri(cls) in closed.types_of(service)

    def _scales_match(self, record, required_skills) -> bool:
        cap = self.registry.humans.get(record.provider)
        if cap is None:
            return True  # scales describe human proficiency only
        for skill, minimum in required_skills:
            if minimum is not None and cap.skills.get(skill, 0) < minimum:
                return False
        return True

    def _io_matches(self, record, io_signature) -> bool:
        if io_signature is None:
            return True
        available_inputs, wanted_outputs = io_signature
        profile = record.profile
        if not {p.type for p in profile.inputs} <= set(available_inputs):
            return False
        return set(wanted_outputs) <= {p.type for p in profile.outputs}

    def _limitations_hold(self, closed: KnowledgeBase, record, now: Optional[int],
                          consumer: Optional[Iri] = None) -> bool:
        for limitation in record.profile.limitations:
            if isinstance(limitation, TimeWindow):
                if now is not None and not limitation.start <= now <= limitation.end:
                    return False
                continue
            if isinstance(limitation, Condition):
                pattern = limitation.pattern
            elif consumer is None:
                continue  # LocationAt/MaxDistance need a consumer position; checked at invoke
            elif isinstance(limitation, LocationAt):
                pattern = Pattern(consumer, iri("hasContext"), limitation.location)
            else:
                # MaxDistance, by co-location proxy: the consumer shares the anchor context
                pattern = Pattern(consumer, iri("hasContext"), limitation.anchor)
            if not closed.match(pattern):
                return False
        return True

    def _qos_holds(self, record, qos_constraints) -> bool:
        qos = record.profile.properties.qos
        for name, bound in qos_constraints:
            if name == "min_reputation" and record.reputation < bound:
                return False
            if name == "max_cost" and qos.cost > bound:
                return False
            if name == "max_response_time" and qos.response_time > bound:
                return False
        return True

    # -- invocation --------------------------------------------------------------

    def invoke(self, service: Iri, consumer: Iri, inputs: Optional[dict] = None,
               now: Optional[int] = None) -> Invocation:
        record = self.registry.services.get(service)
        if record is None:
            raise UnknownServiceError(str(service))
        if record.status != PUBLISHED:
            raise InvalidStateError(f"{service} is withdrawn")
        inputs = dict(inputs or {})
        profile = record.profile
        expected = {p.name for p in profile.inputs}
        if set(inputs) != expected:
            raise InputSignatureMismatchError(
                f"expected inputs {sorted(expected)}, got {sorted(inputs)}"
            )
        closed = self._closure()
        for parameter in profile.inputs:
            value = inputs[parameter.name]
            if isinstance(value, Iri) and parameter.type not in closed.types_of(value):
                raise InputSignatureMismatchError(
                    f"input {parameter.name} is not a {parameter.type}"
                )
        invocation = self.registry.new_invocation(service, consumer, inputs)
        invocation.started_at = now
        if self.registry.running_count(service) >= profile.degree_of_parallelism:
            return self._reject(invocation, "at_capacity")
        if not self._limitations_hold(closed, record, now, consumer):
            return self._reject(invocation, "limitation")
        env = {"consumer": consumer}
        env.update(inputs)
        bindings = {}
        for precondition in profile.preconditions:
            pattern = precondition.substitute(env)
            matches = closed.match(pattern)
            if not matches:
                return self._reject(invocation, "precondition")
            first = matches[0]
            bindings.update(first)
            env.update(first)
        invocation.bindings = bindings
        invocation.status = RUNNING
        return invocation

    def _reject(self, invocation: Invocation, reason: str) -> Invocation:
        invocation.status = REJECTED
        invocation.reason = reason
        return invocation

    def complete_invocation(self, invocation: Invocation, outcome: str = COMPLETED,
                            rating: Optional[Decimal] = None, timestamp: int = 0) -> None:
        if invocation.status != RUNNING:
            raise InvalidStateError(f"invocation {invocation.id} is {invocation.status}, not running")
        if outcome not in (COMPLETED, FAILED):
            raise InvalidStateError(f"unknown outcome {outcome!r}")
        if outcome == COMPLETED:
            self._apply_effects(invocation)
        invocation.status = outcome
        if rating is not None:
            self.registry.record_experience_for(invocation, rating, timestamp=timestamp)

    def _apply_effects(self, invocation: Invocation) -> None:
        record = self.registry.services[invocation.service]
        env = {"consumer": invocation.consumer}
        env.update(invocation.inputs)
        env.update(invocation.bindings)
        additions = [p.substitute(env) for p in record.profile.effects_add]
        removals = [p.substitute(env) for p in record.profile.effects_remove]
        for pattern in additions + removals:  # validate all before the first change
            unbound = pattern.variables()
            if unbound:
                raise InvalidStateError(f"effect variable ?{unbound[0]} is unbound")
        kb = self.registry.kb
        for pattern in additions:
            kb.check_statement(pattern.predicate, pattern.object)
        for pattern in removals:
            if pattern.predicate == TYPE_PRED:
                kb.remove_type(pattern.subject, pattern.object)
            else:
                kb.remove_statement(pattern.subject, pattern.predicate, pattern.object)
        for pattern in additions:
            kb.add_statement(pattern.subject, pattern.predicate, pattern.object)

    # -- composition ----------------------------------------------------------------

    def compose(self, available_types, required_outputs):
        """Forward-chain published services on IO types; None when uncoverable.

        Chains to the fixpoint in ascending service order, then prunes steps
        whose outputs feed neither the goal nor a later kept step.
        """
        available = set(available_types)
        required = set(required_outputs)
        chain = []
        progress = True
        while progress:
            progress = False
            for service in self.registry.published_services():
                if service in chain:
                    continue
                profile = self.registry.services[service].profile
                in_types = {p.type for p in profile.inputs}
                out_types = {p.type for p in profile.outputs}
                if in_types <= available and not out_types <= available:
                    chain.append(service)
                    available |= out_types
                    progress = True
                    break
        if not required <= available:
            return None
        needed = set(required)
        kept = []
        for service in reversed(chain):
            profile = self.registry.services[service].profile
            out_types = {p.type for p in profile.outputs}
            if out_types & needed:
                kept.append(service)
                needed = (needed - out_types) | {p.type for p in profile.inputs}
        kept.reverse()
        return kept
