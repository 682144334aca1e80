"""QoS-ranked discovery, invocation with contract checks, and composition.

The broker turns a structured discovery request into a query over the
materialized graph (built once, then kept current by replaying into it each
graph edit made to the registry graph, re-deriving only the individuals
whose inferred types an edit can change, and rebuilt on the next read after
a declaration), which also matches the service kind.  It
post-filters candidates on skill scale, IO signature, limitations, and QoS
bounds, and ranks them with :func:`score`, a fixed weighted utility over
reputation, cost, and response time.  Invocations move
``pending -> running -> completed|failed``; a pending invocation can be
``rejected`` with a reason (``at_capacity``, ``limitation``,
``precondition``).  Effects apply atomically on completion.
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
from .kb import (Iri, KnowledgeBase, Pattern, TYPE_PRED, Var, iri, parse_decimal,
                 parse_integer, parse_name, parse_pair, term_sort_key)
from .query import And, Eq, InSet, QueryAst, evaluate, join
from .reasoner import materialize, refresh
from .registry import (
    COMPLETED,
    FAILED,
    Invocation,
    REJECTED,
    RUNNING,
    ServiceRegistry,
    check_rating,
)
from .schema import (
    ATOMIC_KINDS,
    Condition,
    LocationAt,
    TimeWindow,
    skill_level,
)

_KIND_CLASSES = dict(ATOMIC_KINDS, composite="CompositeService")  # kind= value -> class
_COST_CAP, _RESPONSE_TIME_CAP = Decimal("100"), Decimal("60")


def score(reputation: Decimal, cost: Decimal, response_time: Decimal) -> Decimal:
    """The ranking utility: 0.5 reputation/5 + 0.25 (1 - cost/100) + 0.25 (1 - response time/60).

    Cost and response time are capped at 100 and 60, so beyond them the
    penalty stops growing; the total is rounded half up to 4 places.
    """
    reputation_term = Decimal("0.5") * (reputation / 5)
    cost_term = Decimal("0.25") * (1 - min(cost, _COST_CAP) / _COST_CAP)
    response_term = Decimal("0.25") * (1 - min(response_time, _RESPONSE_TIME_CAP) / _RESPONSE_TIME_CAP)
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


def parse_skill(text: str) -> tuple:
    """``name[:scale]`` as (skill Iri, minimum scale or None); a scale is a .kb integer."""
    name, _, scale = text.rpartition(":")
    try:
        minimum = parse_integer(scale)
    except ParseError:
        return parse_name(text), None
    return parse_name(name), minimum


# criterion key -> the reader of each of its comma-separated values; the
# names are matched against the graph, so they keep any prefix
_LISTS = {"skill": parse_skill, "knowledge": parse_name, "ability": parse_name,
          "context": parse_name, "input": parse_name, "output": parse_name}


def parse_discovery_request(text: str) -> DiscoveryRequest:
    """Parse the flat one-line request form.

    Example::

        DISCOVER skill=Complex_Problem_Solving:6 knowledge=Medicine_and_Dentistry
                 context=siteA kind=processing qos.min_reputation=4

    A value that does not parse is an :class:`EmptyCriteriaError` naming
    its criterion.
    """
    words = text.split()
    if not words or words[0] != "DISCOVER":
        raise EmptyCriteriaError("expected a DISCOVER line")
    lists = {key: [] for key in _LISTS}
    qos = []
    kind = None
    for word in words[1:]:
        try:
            key, value = parse_pair(word)
            if key in _LISTS:
                lists[key].extend(map(_LISTS[key], value.split(",")))
            elif key == "kind":
                kind = value
            elif key.startswith("qos.") and key[4:] in _QOS_KEYS:
                qos.append((key[4:], parse_decimal(value)))
            else:
                raise EmptyCriteriaError(f"unknown criterion {key!r}")
        except ParseError:
            raise EmptyCriteriaError(f"malformed criterion {word!r}") from None
    inputs, outputs = lists["input"], lists["output"]
    return DiscoveryRequest(
        required_skills=tuple(lists["skill"]),
        required_knowledge=tuple(lists["knowledge"]),
        required_abilities=tuple(lists["ability"]),
        service_kind=kind,
        context_constraints=tuple(lists["context"]),
        io_signature=(tuple(inputs), tuple(outputs)) if inputs or outputs else None,
        qos_constraints=tuple(qos),
    )


# The patterns every discovery query starts with, and those a criterion adds.
_SERVICE_PATTERNS = (
    Pattern(Var("service"), iri("presents"), Var("serviceprofile")),
    Pattern(Var("serviceprofile"), iri("hasProperty"), Var("property")),
    Pattern(Var("property"), iri("includeCapability"), Var("capability")),
)
_CONTEXT_PATTERN = Pattern(Var("property"), iri("includeContext"), Var("context"))
_KNOWLEDGE_PATTERN = Pattern(Var("capability"), iri("hasHumanKnowledge"), Var("knowledge"))
_HAS_SKILL, _HAS_ABILITY = iri("hasHumanSkill"), iri("hasAbility")
_KIND_PATTERNS = {kind: Pattern(Var("service"), TYPE_PRED, iri(cls)) for kind, cls in _KIND_CLASSES.items()}


def compile_request(request: DiscoveryRequest) -> Optional[QueryAst]:
    """Build the discovery query for the graph-matching part of a request; None when nothing can match."""
    patterns = list(_SERVICE_PATTERNS)
    conjuncts = []
    if request.context_constraints:
        patterns.append(_CONTEXT_PATTERN)
        if len(request.context_constraints) == 1:
            conjuncts.append(Eq("context", request.context_constraints[0]))
        else:
            conjuncts.append(InSet("context", tuple(request.context_constraints)))
    for index, (skill, _minimum) in enumerate(request.required_skills):
        var = "skill" if index == 0 else f"skill{index + 1}"
        patterns.append(Pattern(Var("capability"), _HAS_SKILL, Var(var)))
        conjuncts.append(Eq(var, skill))
    if request.required_knowledge:
        patterns.append(_KNOWLEDGE_PATTERN)
        if len(request.required_knowledge) == 1:
            conjuncts.append(Eq("knowledge", request.required_knowledge[0]))
        else:
            conjuncts.append(InSet("knowledge", tuple(request.required_knowledge)))
    for index, ability in enumerate(request.required_abilities):
        var = "ability" if index == 0 else f"ability{index + 1}"
        patterns.append(Pattern(Var("capability"), _HAS_ABILITY, Var(var)))
        conjuncts.append(Eq(var, ability))
    if request.service_kind is not None:
        if request.service_kind not in _KIND_PATTERNS:
            return None  # no service is of an unknown kind
        patterns.append(_KIND_PATTERNS[request.service_kind])
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
    # (the journal this broker armed, closure); only the kb the closure was
    # built from can hold that journal.  Each read shares the one closure and
    # only ``refresh`` mutates it: do not hold it across a write.
    _cache: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def _closure(self) -> KnowledgeBase:
        """The materialized registry graph, kept current by replaying the graph's edits.

        A read after graph edits replays them all, but re-derives only the
        subjects of type edits and of facts whose predicate an axiom
        quantifies, with what reaches them through such facts: a rating
        re-derives just its new Experience node.  The closure is built
        from scratch on first use, for a new ``registry.kb``, when another
        follower took the journal over, and after a declaration, which
        disarms the journal (see :func:`refresh`).
        """
        kb = self.registry.kb
        journal, closed = self._cache
        if journal is not None and kb.journal is journal:
            if journal:
                refresh(closed, kb, journal)
                journal.clear()
            return closed
        kb.journal = journal = []
        closed = materialize(kb)
        self._cache = (journal, closed)
        return closed

    # -- discovery -------------------------------------------------------------

    def discover(self, request: DiscoveryRequest, now: Optional[int] = None):
        query = compile_request(request)
        if query is None:
            return []
        closed = self._closure()
        table = evaluate(closed, query)
        candidates = {row[0] for row in table.rows if isinstance(row[0], Iri)}
        ranked = []
        for service in candidates:  # in any order: the sort below orders them alone
            record = self.registry.services.get(service)
            if record is None:  # presented, but not a service the registry holds
                continue
            if not self._scales_match(closed, record.provider, request.required_skills):
                continue
            if not self._io_matches(record, request.io_signature):
                continue
            if not self._limitations_hold(closed, record, now):
                continue
            if not self._qos_holds(record, request.qos_constraints):
                continue
            qos = record.profile.properties.qos
            ranked.append(RankedService(service, record.provider,
                                        score(record.reputation, qos.cost, qos.response_time)))
        ranked.sort(key=lambda r: (-r.score, r.service))
        return ranked

    def _scales_match(self, closed: KnowledgeBase, provider: Iri, required_skills) -> bool:
        for skill, minimum in required_skills:
            if minimum is not None:
                level = skill_level(closed, provider, skill)
                if level is None:
                    return True  # scales describe human proficiency only
                if level < minimum:
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
        if not self.registry.is_published(service):
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
        if self.registry.running_count(service) >= profile.degree_of_parallelism:
            return self._reject(invocation, "at_capacity")
        if not self._limitations_hold(closed, record, now, consumer):
            return self._reject(invocation, "limitation")
        env = {"consumer": consumer}
        env.update(inputs)
        joint = join(closed, profile.preconditions, env)
        if not joint:
            return self._reject(invocation, "precondition")
        # the least joint binding, so no precondition order (a reload reads them in term order) shows
        least = min(joint, key=lambda b: [term_sort_key(b[var]) for var in sorted(b) if var not in env])
        invocation.bindings = {var: value for var, value in least.items() if var not in env}
        invocation.status = RUNNING
        return invocation

    def _reject(self, invocation: Invocation, reason: str) -> Invocation:
        invocation.status = REJECTED
        invocation.reason = reason
        return invocation

    def complete_invocation(self, invocation: Invocation, outcome: str = COMPLETED,
                            rating: Optional[Decimal] = None, timestamp: int = 0) -> None:
        """End a running invocation, apply its effects if it completed, and record ``rating``.

        ``timestamp`` is accepted for existing callers and ignored: no rating
        stores the time it was given.
        """
        if invocation.status != RUNNING:
            raise InvalidStateError(f"invocation {invocation.id} is {invocation.status}, not running")
        if outcome not in (COMPLETED, FAILED):
            raise InvalidStateError(f"unknown outcome {outcome!r}")
        if rating is not None:
            check_rating(rating)  # before the first write, so that a rejected rating changes nothing
        if outcome == COMPLETED:
            self._apply_effects(invocation)
        invocation.status = outcome
        if rating is not None:
            self.registry.record_experience_for(invocation, rating)

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
            kb.check_statement(pattern.subject, pattern.predicate, pattern.object)
        for pattern in removals:
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
