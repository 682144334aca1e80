"""Deterministic discrete-event simulation of cooperating service nodes.

A scenario file declares participant nodes (with capability files), published
services (profile files), per-node reaction rules, a scripted event timeline,
and expectations over the resulting trace.  Time is a logical integer clock.
At every distinct event time the pending events are delivered to node inboxes
and each node with mail runs one monitor/analyze/plan/execute loop, in
ascending node order.  All state lives in one shared registry/knowledge base,
so discovery, invocation, effects, ratings, and knowledge acquisition during a
run are visible to every later step.  A session is an invocation that ran,
with its provider and the node it serves; it is open while its invocation
runs.  Traces are plain TSV and byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple, Optional

from .broker import DiscoveryRequest, ServiceBroker, parse_discovery_request
from .errors import (EmptyCriteriaError, NoCompletedInvocationError, ParseError, RatingOutOfRangeError,
                     UnknownNodeError, UnknownServiceError)
from .kb import Iri, content_lines, parse_decimal, parse_integer, parse_name, parse_pair, read_document
from .registry import RUNNING, Invocation, ServiceRegistry, check_rating
from .schema import (
    graph_name,
    knows,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
)

HUMAN = "HUMAN"
MACHINE = "MACHINE"

MONITOR = "monitor"
ANALYZE = "analyze"
PLAN = "plan"
EXECUTE = "execute"


class _kept:
    """A value computed on its first read and kept in the instance's ``__dict__``.

    ``functools.cached_property`` does the same, but on Python 3.10 and 3.11 it
    takes a lock on every first read.  This is a non-data descriptor, so once
    the value is stored every later read finds it before reaching this class.
    """

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class SimEvent:
    """A scripted event.  Its field map and monitor row are built at their first
    read, in the event time that delivers the event, not when the scenario loads."""

    time: int
    kind: str  # request | message | signal | tick
    payload: tuple  # ((key, value), ...) with Iri/str values

    @_kept
    def get(self):
        """``event.get(key)``: the field ``key``, or None.  The first read builds a dict
        of the payload and keeps that dict's own ``get``, so every lookup runs in C."""
        return dict(self.payload).get

    @_kept
    def observation(self) -> str:
        """The monitor phase's trace detail, the same at every node that observes the event."""
        return _EVENTS[self.kind.upper()][0].format_map(dict(self.payload))


@dataclass(frozen=True)
class Rule:
    """A reaction rule with every value read at its line, so the loop only evaluates it."""
    conditions: tuple  # ((key, value), ...)
    action: str
    plan: str  # the plan trace's detail: the parameters as written; a discover rule's are its criteria
    request: Optional[DiscoveryRequest] = None  # discover: every parameter but invoke, inputs, notify
    invoke: bool = False
    inputs: tuple = ()  # ((input name, graph Iri, or None for the event's sender), ...)
    notify: Optional[Iri] = None
    service: Optional[Iri] = None
    rating: Optional[Decimal] = None


@dataclass
class NodeLoop:
    node: Iri
    rules: tuple = ()
    inbox: list = field(default_factory=list)


@dataclass(frozen=True)
class Session:
    invocation: Invocation
    provider: Iri
    origin: Iri


class TraceEntry(NamedTuple):
    """One trace row.  As a named tuple it hashes and compares in C, but its generated
    constructor runs in Python, so the loop builds rows with ``tuple.__new__``."""

    time: int
    node: str
    phase: str
    action: str
    detail: str

    def to_tsv(self) -> str:
        return "\t".join((str(self.time), self.node, self.phase, self.action, self.detail))


@dataclass
class ScenarioTrace:
    entries: list = field(default_factory=list)

    def add(self, time: int, node, phase: str, action: str, detail: str) -> None:
        self.entries.append(tuple.__new__(TraceEntry, (time, str(node), phase, action, detail)))

    def to_tsv(self) -> str:
        return "".join(entry.to_tsv() + "\n" for entry in self.entries)


@dataclass(frozen=True)
class Expectation:
    kind: str  # COUNT | CONTAINS | ORDER | NONE_AFTER
    args: tuple


@dataclass(frozen=True)
class CheckResult:
    expectation: Expectation
    ok: bool
    detail: str

    def line(self) -> str:
        verdict = "ok" if self.ok else "failed"
        rendered = " ".join(str(a) for a in self.expectation.args)
        return f"EXPECT {self.expectation.kind} {rendered}: {verdict} ({self.detail})"


@dataclass
class Scenario:
    registry: ServiceRegistry
    nodes: dict  # Iri -> NodeLoop
    events: list  # [SimEvent]
    expectations: list  # [Expectation]


@dataclass
class ScenarioResult:
    trace: ScenarioTrace
    checks: list

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self.checks)


# --------------------------------------------------------------------------
# Scenario file parsing

def load_scenario(text: str, base_dir) -> Scenario:
    """Load a .scn document naming files in ``base_dir``.  Names the run writes into the graph
    (nodes; event requesters, senders and topics) take the built-in prefix only."""
    base_dir = Path(base_dir)
    registry = ServiceRegistry()
    nodes: dict = {}
    events: list = []
    expectations: list = []
    pending_rules: list = []
    for lineno, words in content_lines(text):
        keyword = words[0]
        if keyword == "NODE" and len(words) == 4 and words[2] in (HUMAN, MACHINE):
            node = graph_name(words[1], lineno)
            cap_text = read_document(base_dir / words[3])
            if words[2] == HUMAN:
                cap, contexts = parse_human_capability(cap_text)
                registry.register_human(node, cap, contexts)
            else:
                cap, contexts = parse_machine_capability(cap_text)
                registry.register_machine(node, cap, contexts)
            nodes[node] = NodeLoop(node=node)
        elif keyword == "SERVICE" and len(words) == 2:
            profile_text = read_document(base_dir / words[1])
            profile, provider = parse_service_profile(profile_text)
            if provider is None:
                raise ParseError(lineno, 1, "a PROVIDER line in the profile")
            registry.publish_service(profile, provider)
        elif keyword == "RULE" and len(words) >= 5 and words[2] == "WHEN":
            pending_rules.append(_compile_rule(words, lineno))
        elif keyword == "AT" and len(words) >= 3 and words[2] in _EVENTS:
            time = parse_integer(words[1], lineno)
            events.append(_parse_event(time, words[2], words[3:], lineno))
        elif keyword == "EXPECT" and len(words) >= 3:
            expectations.append(_parse_expectation(words[1], words[2:], lineno))
        else:
            raise ParseError(lineno, 1, "NODE/SERVICE/RULE/AT/EXPECT")
    for node, rule in pending_rules:
        loop = nodes.get(node)
        if loop is None:
            raise UnknownNodeError(str(node))
        loop.rules = loop.rules + (rule,)
    return Scenario(registry=registry, nodes=nodes, events=events, expectations=expectations)


def _any_name(text: str, lineno: int) -> Iri:
    """A name the run looks up and does not write into the graph: any prefix."""
    return parse_name(text, None, lineno)


def _word(text: str, lineno: int) -> str:
    return text


_YES_NO = ("yes", "no")
# condition key -> the values it takes (None: any word)
_CONDITIONS = {"event": ("request", "message", "signal"), "sentiment": None, "signal": None,
               "topic-known": _YES_NO, "from-provider": _YES_NO}
# action -> (the parameters it takes, those it requires); discover also takes every DISCOVER criterion
_ACTIONS = {"invoke-requested": ((), ()), "answer": ((), ()), "acquire-knowledge": ((), ()),
            "complete-sessions": (("rating",), ()), "rate": (("service", "rating"), ("service", "rating")),
            "discover": (("invoke", "inputs", "notify"), ())}


def _compile_rule(words, lineno: int) -> tuple:
    """``RULE <node> WHEN <conditions> THEN <action> [params]`` as (node, Rule), every value read here."""
    node = _any_name(words[1], lineno)
    if "THEN" not in words or words.index("THEN") != 4 or len(words) < 6:
        raise ParseError(lineno, 1, "RULE <node> WHEN <conds> THEN <action> [params]")
    conditions = tuple(parse_pair(item, lineno) for item in words[3].split(","))
    for key, value in conditions:
        if key not in _CONDITIONS:
            raise ParseError(lineno, 1, "a condition " + "/".join(_CONDITIONS))
        if _CONDITIONS[key] is not None and value not in _CONDITIONS[key]:
            raise ParseError(lineno, 1, f"{key}=" + "/".join(_CONDITIONS[key]))
    action = words[5]
    if action not in _ACTIONS:
        raise ParseError(lineno, 1, "an action " + "/".join(_ACTIONS))
    takes, requires = _ACTIONS[action]
    params = tuple(parse_pair(word, lineno) for word in words[6:])
    given = dict(params)
    if len(given) < len(params):
        raise ParseError(lineno, 1, "each parameter once")
    if not given.keys() >= set(requires):
        raise ParseError(lineno, 1, f"{action} " + " ".join(f"{key}=<value>" for key in requires))
    criteria = " ".join(f"{k}={v}" for k, v in params if k not in takes)
    plan = " ".join(f"{k}={v}" for k, v in params if k not in _ACTIONS["discover"][0])
    if criteria and action != "discover":
        raise ParseError(lineno, 1, f"{action} parameters {'/'.join(takes) or '(none)'}")
    try:
        request = parse_discovery_request("DISCOVER " + criteria) if action == "discover" else None
    except EmptyCriteriaError as err:
        raise ParseError(lineno, 1, f"DISCOVER criteria ({err})") from None
    if given.get("invoke", "no") not in _YES_NO:
        raise ParseError(lineno, 1, "invoke=yes/no")
    inputs = tuple(_rule_input(item, lineno) for item in given["inputs"].split(",")) if "inputs" in given else ()
    notify, service = (_any_name(given[k], lineno) if k in given else None for k in ("notify", "service"))
    rating = parse_decimal(given["rating"], lineno) if "rating" in given else None
    if rating is not None:
        try:
            check_rating(rating)
        except RatingOutOfRangeError:
            raise ParseError(lineno, 1, "a rating from 0 to 5") from None
    return node, Rule(conditions, action, plan, request, given.get("invoke") == "yes", inputs,
                      notify, service, rating)


def _rule_input(text: str, lineno: int) -> tuple:
    """``name:value`` of an ``inputs=`` list: a graph name, or ``@from`` (None) for the event's sender."""
    name, _, value = text.partition(":")
    if not name:
        raise ParseError(lineno, 1, "an input name")
    return name, None if value == "@from" else graph_name(value, lineno)


# AT kind -> (the monitor row's detail, (payload key, reader) of each word after it); the event's kind is
# the keyword in lower case
_EVENTS = {
    "REQUEST": ("from={requester} service={service}", (("requester", graph_name), ("service", _any_name))),
    "MESSAGE": ("from={sender} to={recipient} id={id} sentiment={sentiment} topic={topic}",
                (("sender", graph_name), ("recipient", _any_name), ("id", _word), ("sentiment", _word),
                 ("topic", graph_name))),
    "SIGNAL": ("signal={signal}", (("node", _any_name), ("signal", _word))),
    "TICK": ("", ()),
}


def _parse_event(time: int, kind: str, rest, lineno: int) -> SimEvent:
    _, fields = _EVENTS[kind]
    if len(rest) != len(fields):
        raise ParseError(lineno, 1, f"a well-formed {kind} event")
    return SimEvent(time, kind.lower(), tuple((key, read(word, lineno)) for (key, read), word in zip(fields, rest)))


def _count(entries, action: str, wanted: int) -> tuple:
    got = sum(1 for e in entries if e.phase == EXECUTE and e.action == action)
    return got == wanted, f"count={got}"


def _contains(entries, time: int, node: str, phase: str, action: str) -> tuple:
    ok = any(e.time == time and e.node == node and e.phase == phase and e.action == action for e in entries)
    return ok, "present" if ok else "absent"


def _order(entries, first_action: str, second_action: str) -> tuple:
    first, second = (next((i for i, e in enumerate(entries) if e.phase == EXECUTE and e.action == action), None)
                     for action in (first_action, second_action))
    return first is not None and second is not None and first < second, f"first={first} second={second}"


def _none_after(entries, time: int, action: str) -> tuple:
    late = [e for e in entries if e.phase == EXECUTE and e.action == action and e.time > time]
    return not late, f"late={len(late)}"


# EXPECT kind -> (the reader of each word after it, the check of a trace's entries against the words read)
_EXPECTATIONS = {
    "COUNT": ((_word, parse_integer), _count),
    "CONTAINS": ((parse_integer, _word, _word, _word), _contains),
    "ORDER": ((_word, _word), _order),
    "NONE_AFTER": ((parse_integer, _word), _none_after),
}


def _parse_expectation(kind: str, rest, lineno: int) -> Expectation:
    readers, _ = _EXPECTATIONS.get(kind, (None, None))
    if readers is None or len(rest) != len(readers):
        raise ParseError(lineno, 1, "/".join(_EXPECTATIONS))
    return Expectation(kind, tuple(read(word, lineno) for read, word in zip(readers, rest)))


# --------------------------------------------------------------------------
# Execution


class Simulation:
    def __init__(self, scenario: Scenario):
        self.registry = scenario.registry
        self.broker = ServiceBroker(self.registry)
        self.nodes = scenario.nodes
        self.loops = [self.nodes[node] for node in sorted(self.nodes)]  # the nodes are fixed for a run
        self.events = sorted(scenario.events, key=lambda e: e.time)  # stable: file order within a time
        self.expectations = scenario.expectations
        self.sessions: dict = {}  # node -> the sessions it takes part in, in the order they opened
        self.trace = ScenarioTrace()

    # -- sessions ----------------------------------------------------------

    def open_sessions_with(self, node: Iri):
        """The sessions whose invocation runs and that ``node`` takes part in, in the order they opened."""
        return [s for s in self.sessions.get(node, ()) if s.invocation.status == RUNNING]

    # -- delivery ----------------------------------------------------------

    def deliver(self, event: SimEvent) -> None:
        kind, get = event.kind, event.get
        if kind == "tick":
            return
        if kind == "signal":
            targets = (get("node"),)
        elif kind == "request":
            record = self.registry.services.get(get("service"))
            if record is None:
                raise UnknownServiceError(str(get("service")))
            targets = (record.provider,)
        else:
            # message: recipient plus everyone sharing an open session with
            # the sender or the recipient, except the sender
            sender, recipient = get("sender"), get("recipient")
            targets = {recipient}
            for endpoint in (sender, recipient):
                for session in self.sessions.get(endpoint, ()):
                    if session.invocation.status == RUNNING:  # open, as ``open_sessions_with`` reads it
                        targets.update((session.invocation.consumer, session.provider, session.origin))
            targets.discard(sender)
        for node in targets:  # each inbox keeps its own order, so the order of targets is free
            loop = self.nodes.get(node)
            if loop is not None:
                loop.inbox.append(event)

    # -- condition evaluation -------------------------------------------------

    def _reading(self, node: Iri, event: SimEvent, key: str) -> Optional[str]:
        """What condition ``key`` reads of ``event`` at ``node``: ``key=value`` holds when it reads ``value``."""
        kind, get = event.kind, event.get
        if key == "event":
            return kind
        if kind == "message":
            if key == "sentiment":
                return get("sentiment")
            if key == "topic-known":
                return "yes" if knows(self.registry.kb, node, get("topic")) else "no"
            if key == "from-provider":
                sender = get("sender")
                return "yes" if any(s.provider == sender for s in self.open_sessions_with(node)) else "no"
        elif kind == "signal" and key == "signal":
            return get("signal")
        return None

    def match_rule(self, loop: NodeLoop, event: SimEvent) -> Optional[Rule]:
        """The first of ``loop``'s rules whose conditions all hold; each condition key is read at most once."""
        readings: dict = {}
        for rule in loop.rules:
            for key, value in rule.conditions:
                if key not in readings:
                    readings[key] = self._reading(loop.node, event, key)
                if readings[key] != value:
                    break
            else:
                return rule
        return None

    # -- the loop phases -----------------------------------------------------

    def run(self) -> ScenarioResult:
        index = 0
        while index < len(self.events):
            time = self.events[index].time
            while index < len(self.events) and self.events[index].time == time:
                self.deliver(self.events[index])
                index += 1
            self.tick(time)
        checks = [self.evaluate_expectation(e) for e in self.expectations]
        return ScenarioResult(trace=self.trace, checks=checks)

    def tick(self, time: int) -> None:
        for loop in self.loops:
            if loop.inbox:  # a node without mail would trace nothing
                node_tick(self, loop, time)

    # -- actions -------------------------------------------------------------

    def act(self, loop: NodeLoop, rule: Rule, event: SimEvent, time: int) -> None:
        getattr(self, "_act_" + rule.action.replace("-", "_"))(loop, rule, event, time)

    def _invoke(self, loop, action, service, consumer, inputs, origin, time, detail):
        """Invoke ``service`` for ``consumer``, open a session if it runs, and trace the outcome."""
        invocation = self.broker.invoke(service, consumer, inputs, now=time)
        if invocation.status == RUNNING:
            session = Session(invocation, self.registry.services[service].provider, origin)
            for member in {consumer, session.provider, origin}:
                self.sessions.setdefault(member, []).append(session)
        detail += f" invocation={invocation.id} status={invocation.status}"
        if invocation.reason:
            detail += f" reason={invocation.reason}"
        self.trace.add(time, loop.node, EXECUTE, action, detail)

    def _act_invoke_requested(self, loop, rule, event, time):
        service, requester = event.get("service"), event.get("requester")
        self._invoke(loop, "invoke-requested", service, requester, {}, requester, time,
                     f"service={service} consumer={requester}")

    def _act_answer(self, loop, rule, event, time):
        detail = f"id={event.get('id')} topic={event.get('topic')}"
        self.trace.add(time, loop.node, EXECUTE, "answer", detail)

    def _act_discover(self, loop, rule, event, time):
        ranked = self.broker.discover(rule.request, now=time)
        if not ranked:
            self.trace.add(time, loop.node, EXECUTE, "discover", "found=none")
            return
        top = ranked[0]
        self.trace.add(time, loop.node, EXECUTE, "discover", f"found={top.service} score={top.score}")
        sender = event.get("sender") or event.get("requester")
        origin = sender or loop.node
        if rule.invoke:
            inputs = {name: sender if value is None else value for name, value in rule.inputs}
            self._invoke(loop, "invoke", top.service, loop.node, inputs, origin, time, f"service={top.service}")
        if rule.notify is not None:
            self._invoke(loop, "notify", rule.notify, top.provider, {}, origin, time,
                         f"service={rule.notify} consumer={top.provider}")

    def _act_acquire_knowledge(self, loop, rule, event, time):
        topic = event.get("topic")
        self.registry.add_learned_knowledge(loop.node, topic)
        self.trace.add(time, loop.node, EXECUTE, "acquire-knowledge", f"topic={topic} adaptation=yes")

    def _act_complete_sessions(self, loop, rule, event, time):
        rating = rule.rating
        origin = event.get("sender")
        selected = []
        for session in self.open_sessions_with(loop.node):
            if origin is not None:
                if session.origin == origin:
                    selected.append(session)
            elif session.invocation.consumer == loop.node:
                selected.append(session)
        for session in selected:
            invocation = session.invocation
            self.broker.complete_invocation(invocation, rating=rating)
            detail = (f"service={invocation.service} consumer={invocation.consumer}"
                      f" rating={rating}" if rating is not None else
                      f"service={invocation.service} consumer={invocation.consumer}")
            self.trace.add(time, loop.node, EXECUTE, "complete", detail)

    def _act_rate(self, loop, rule, event, time):
        service, rating = rule.service, rule.rating
        invocation = next((s.invocation for s in self.open_sessions_with(loop.node)
                           if s.invocation.service == service and s.invocation.consumer == loop.node), None)
        if invocation is not None:
            self.broker.complete_invocation(invocation, rating=rating)
            detail = f"service={service} rating={rating} invocation={invocation.id}"
        else:
            try:
                self.registry.record_experience(service, loop.node, rating)
                detail = f"service={service} rating={rating}"
            except NoCompletedInvocationError:
                detail = f"service={service} rating={rating} skipped=no-invocation"
        self.trace.add(time, loop.node, EXECUTE, "rate", detail)

    # -- expectations -----------------------------------------------------------

    def evaluate_expectation(self, expectation: Expectation) -> CheckResult:
        _, check = _EXPECTATIONS[expectation.kind]
        ok, detail = check(self.trace.entries, *expectation.args)
        return CheckResult(expectation, ok, detail)


def node_tick(sim: Simulation, loop: NodeLoop, time: int) -> None:
    """Run one monitor/analyze/plan/execute pass over a node's inbox."""
    pending, loop.inbox = loop.inbox, []
    name, add, row = str(loop.node), sim.trace.entries.append, tuple.__new__
    for event in pending:
        add(row(TraceEntry, (time, name, MONITOR, "observe", event.observation)))
        rule = sim.match_rule(loop, event)
        if rule is None:
            add(row(TraceEntry, (time, name, ANALYZE, "no-rule", "")))
            continue
        add(row(TraceEntry, (time, name, ANALYZE, "match", rule.action)))
        add(row(TraceEntry, (time, name, PLAN, rule.action, rule.plan)))
        sim.act(loop, rule, event, time)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    return Simulation(scenario).run()


def load_and_run(path) -> ScenarioResult:
    path = Path(path)
    scenario = load_scenario(read_document(path), path.parent)
    return run_scenario(scenario)
