"""Deterministic discrete-event simulation of cooperating service nodes.

A scenario file declares participant nodes (with capability files), published
services (profile files), per-node reaction rules, a scripted event timeline,
and expectations over the resulting trace.  Time is a logical integer clock.
At every distinct event time the pending events are delivered to node inboxes
and each node runs one monitor/analyze/plan/execute loop, in ascending node
order.  All state lives in one shared registry/knowledge base, so discovery,
invocation, effects, ratings, and knowledge acquisition during a run are
visible to every later step.  Traces are plain TSV and byte-stable across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional

from .broker import DiscoveryRequest, ServiceBroker, parse_skill
from .errors import NoCompletedInvocationError, ParseError, UnknownNodeError, UnknownServiceError
from .kb import Iri, Pattern, content_lines, iri, parse_name, read_document
from .registry import RUNNING, ServiceRegistry
from .schema import (
    _decimal,
    _int,
    capability_node,
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


@dataclass(frozen=True)
class SimEvent:
    time: int
    seq: int
    kind: str  # request | message | signal | tick
    payload: tuple  # ((key, value), ...) with Iri/str values

    def get(self, key):
        for k, v in self.payload:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class Rule:
    conditions: tuple  # ((key, value), ...)
    action: str
    params: tuple  # ((key, value), ...)

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass
class NodeLoop:
    node: Iri
    kind: str  # HUMAN | MACHINE
    rules: tuple = ()
    inbox: list = field(default_factory=list)


@dataclass
class Session:
    id: int
    consumer: Iri
    provider: Iri
    origin: Iri
    invocation_id: int
    open: bool = True

    def members(self):
        return {self.consumer, self.provider, self.origin}


@dataclass(frozen=True)
class TraceEntry:
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
        self.entries.append(TraceEntry(time, str(node), phase, action, detail))

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

_EVENT_KINDS = ("REQUEST", "MESSAGE", "SIGNAL", "TICK")


def load_scenario(text: str, base_dir) -> Scenario:
    base_dir = Path(base_dir)
    registry = ServiceRegistry()
    nodes: dict = {}
    events: list = []
    expectations: list = []
    pending_rules: list = []
    seq = 0
    for lineno, words in content_lines(text):
        keyword = words[0]
        if keyword == "NODE" and len(words) == 4 and words[2] in (HUMAN, MACHINE):
            node = parse_name(words[1])
            cap_text = read_document(base_dir / words[3])
            if words[2] == HUMAN:
                cap, contexts = parse_human_capability(cap_text)
                registry.register_human(node, cap, contexts)
            else:
                cap, contexts = parse_machine_capability(cap_text)
                registry.register_machine(node, cap, contexts)
            nodes[node] = NodeLoop(node=node, kind=words[2])
        elif keyword == "SERVICE" and len(words) == 2:
            profile_text = read_document(base_dir / words[1])
            profile, provider = parse_service_profile(profile_text)
            if provider is None:
                raise ParseError(lineno, 1, "a PROVIDER line in the profile")
            registry.publish_service(profile, provider)
        elif keyword == "RULE" and len(words) >= 5 and words[2] == "WHEN":
            node = parse_name(words[1])
            then_at = words.index("THEN") if "THEN" in words else -1
            if then_at != 4 or len(words) < 5 + 1:
                raise ParseError(lineno, 1, "RULE <node> WHEN <conds> THEN <action> [params]")
            conditions = tuple(_split_kv(words[3], lineno))
            action = words[5]
            params = tuple(_split_kv(" ".join(words[6:]), lineno, sep=" ")) if len(words) > 6 else ()
            rule = Rule(conditions, action, params)
            if action == "rate" and (rule.param("service") is None or rule.param("rating") is None):
                raise ParseError(lineno, 1, "rate service=<name> rating=<decimal>")
            if rule.param("rating") is not None:
                _decimal(rule.param("rating"), lineno)  # a bad rating fails the load, not the run
            pending_rules.append((lineno, node, rule))
        elif keyword == "AT" and len(words) >= 3 and words[2] in _EVENT_KINDS:
            time = _int(words[1], lineno)
            events.append(_parse_event(time, seq, words[2], words[3:], lineno))
            seq += 1
        elif keyword == "EXPECT" and len(words) >= 3:
            expectations.append(_parse_expectation(words[1], words[2:], lineno))
        else:
            raise ParseError(lineno, 1, "NODE/SERVICE/RULE/AT/EXPECT")
    for lineno, node, rule in pending_rules:
        loop = nodes.get(node)
        if loop is None:
            raise UnknownNodeError(str(node))
        loop.rules = loop.rules + (rule,)
    return Scenario(registry=registry, nodes=nodes, events=events, expectations=expectations)


def _split_kv(text: str, lineno: int, sep: str = ","):
    pairs = []
    for item in text.split(sep):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise ParseError(lineno, 1, "key=value")
        pairs.append((key, value))
    return pairs


def _parse_event(time: int, seq: int, kind: str, rest, lineno: int) -> SimEvent:
    if kind == "REQUEST" and len(rest) == 2:
        payload = (("requester", parse_name(rest[0])), ("service", parse_name(rest[1])))
        return SimEvent(time, seq, "request", payload)
    if kind == "MESSAGE" and len(rest) == 5:
        payload = (
            ("sender", parse_name(rest[0])),
            ("recipient", parse_name(rest[1])),
            ("id", rest[2]),
            ("sentiment", rest[3]),
            ("topic", parse_name(rest[4])),
        )
        return SimEvent(time, seq, "message", payload)
    if kind == "SIGNAL" and len(rest) == 2:
        payload = (("node", parse_name(rest[0])), ("signal", rest[1]))
        return SimEvent(time, seq, "signal", payload)
    if kind == "TICK" and not rest:
        return SimEvent(time, seq, "tick", ())
    raise ParseError(lineno, 1, f"a well-formed {kind} event")


def _parse_expectation(kind: str, rest, lineno: int) -> Expectation:
    if kind == "COUNT" and len(rest) == 2:
        return Expectation("COUNT", (rest[0], _int(rest[1], lineno)))
    if kind == "CONTAINS" and len(rest) == 4:
        return Expectation("CONTAINS", (_int(rest[0], lineno), rest[1], rest[2], rest[3]))
    if kind == "ORDER" and len(rest) == 2:
        return Expectation("ORDER", (rest[0], rest[1]))
    if kind == "NONE_AFTER" and len(rest) == 2:
        return Expectation("NONE_AFTER", (_int(rest[0], lineno), rest[1]))
    raise ParseError(lineno, 1, "COUNT/CONTAINS/ORDER/NONE_AFTER")


# --------------------------------------------------------------------------
# Execution


class Simulation:
    def __init__(self, scenario: Scenario):
        self.registry = scenario.registry
        self.broker = ServiceBroker(self.registry)
        self.nodes = scenario.nodes
        self.events = sorted(scenario.events, key=lambda e: (e.time, e.seq))
        self.expectations = scenario.expectations
        self.sessions: list = []
        self.trace = ScenarioTrace()

    # -- sessions ----------------------------------------------------------

    def open_session(self, consumer: Iri, provider: Iri, origin: Iri, invocation_id: int) -> Session:
        session = Session(len(self.sessions) + 1, consumer, provider, origin, invocation_id)
        self.sessions.append(session)
        return session

    def close_session_for(self, invocation_id: int) -> None:
        for session in self.sessions:
            if session.invocation_id == invocation_id:
                session.open = False

    def open_sessions_with(self, node: Iri):
        return [s for s in self.sessions if s.open and node in s.members()]

    # -- delivery ----------------------------------------------------------

    def deliver(self, event: SimEvent) -> None:
        if event.kind == "tick":
            return
        if event.kind == "signal":
            target = event.get("node")
            if target in self.nodes:
                self.nodes[target].inbox.append(event)
            return
        if event.kind == "request":
            record = self.registry.services.get(event.get("service"))
            if record is None:
                raise UnknownServiceError(str(event.get("service")))
            if record.provider in self.nodes:
                self.nodes[record.provider].inbox.append(event)
            return
        # message: recipient plus everyone sharing an open session with the
        # sender or the recipient, except the sender
        sender = event.get("sender")
        recipient = event.get("recipient")
        targets = {recipient}
        for endpoint in (sender, recipient):
            for session in self.open_sessions_with(endpoint):
                targets |= session.members()
        targets.discard(sender)
        for node in sorted(targets):
            if node in self.nodes:
                self.nodes[node].inbox.append(event)

    # -- condition evaluation -------------------------------------------------

    def _topic_known(self, node: Iri, topic: Iri) -> bool:
        cap = capability_node(node)
        kb = self.registry.kb
        return bool(
            kb.match(Pattern(cap, iri("hasLearnedKnowledge"), topic))
            or kb.match(Pattern(cap, iri("hasHumanKnowledge"), topic))
        )

    def _from_provider(self, node: Iri, sender: Iri) -> bool:
        return any(s.provider == sender for s in self.open_sessions_with(node))

    def condition_holds(self, node: Iri, event: SimEvent, key: str, value: str) -> bool:
        if key == "event":
            return event.kind == value
        if key == "sentiment":
            return event.kind == "message" and event.get("sentiment") == value
        if key == "signal":
            return event.kind == "signal" and event.get("signal") == value
        if key == "topic-known":
            if event.kind != "message":
                return False
            known = self._topic_known(node, event.get("topic"))
            return known if value == "yes" else not known
        if key == "from-provider":
            if event.kind != "message":
                return False
            holds = self._from_provider(node, event.get("sender"))
            return holds if value == "yes" else not holds
        return False

    def match_rule(self, loop: NodeLoop, event: SimEvent) -> Optional[Rule]:
        for rule in loop.rules:
            if all(self.condition_holds(loop.node, event, k, v) for k, v in rule.conditions):
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
        for node in sorted(self.nodes):
            node_tick(self, self.nodes[node], time)

    # -- actions -------------------------------------------------------------

    def act(self, loop: NodeLoop, rule: Rule, event: SimEvent, time: int) -> None:
        handler = {
            "invoke-requested": self._act_invoke_requested,
            "answer": self._act_answer,
            "discover": self._act_discover,
            "acquire-knowledge": self._act_acquire,
            "complete-sessions": self._act_complete_sessions,
            "rate": self._act_rate,
        }.get(rule.action)
        if handler is None:
            self.trace.add(time, loop.node, EXECUTE, rule.action, "unsupported action")
            return
        handler(loop, rule, event, time)

    def _act_invoke_requested(self, loop, rule, event, time):
        service = event.get("service")
        requester = event.get("requester")
        invocation = self.broker.invoke(service, requester, {}, now=time)
        if invocation.status == RUNNING:
            self.open_session(requester, loop.node, requester, invocation.id)
        detail = f"service={service} consumer={requester} invocation={invocation.id} status={invocation.status}"
        if invocation.reason:
            detail += f" reason={invocation.reason}"
        self.trace.add(time, loop.node, EXECUTE, "invoke-requested", detail)

    def _act_answer(self, loop, rule, event, time):
        detail = f"id={event.get('id')} topic={event.get('topic')}"
        self.trace.add(time, loop.node, EXECUTE, "answer", detail)

    def _request_from_params(self, rule: Rule) -> DiscoveryRequest:
        skills = tuple(parse_skill(s) for s in (rule.param("skill") or "").split(",") if s)
        knowledge = tuple(parse_name(k) for k in (rule.param("knowledge") or "").split(",") if k)
        contexts = tuple(parse_name(c) for c in (rule.param("context") or "").split(",") if c)
        return DiscoveryRequest(
            required_skills=skills,
            required_knowledge=knowledge,
            context_constraints=contexts,
        )

    def _parse_inputs(self, rule: Rule, event: SimEvent) -> dict:
        inputs = {}
        raw = rule.param("inputs")
        if raw:
            for piece in raw.split(","):
                name, _, value = piece.partition(":")
                if value == "@from":
                    inputs[name] = event.get("sender") or event.get("requester")
                else:
                    inputs[name] = parse_name(value)
        return inputs

    def _act_discover(self, loop, rule, event, time):
        request = self._request_from_params(rule)
        criteria = " ".join(f"{k}={v}" for k, v in rule.params if k in ("skill", "knowledge", "context"))
        self.trace.add(time, loop.node, PLAN, "discover", criteria)
        ranked = self.broker.discover(request, now=time)
        if not ranked:
            self.trace.add(time, loop.node, EXECUTE, "discover", "found=none")
            return
        top = ranked[0]
        self.trace.add(time, loop.node, EXECUTE, "discover", f"found={top.service} score={top.score}")
        origin = event.get("sender") or event.get("requester") or loop.node
        if rule.param("invoke") == "yes":
            inputs = self._parse_inputs(rule, event)
            invocation = self.broker.invoke(top.service, loop.node, inputs, now=time)
            if invocation.status == RUNNING:
                self.open_session(loop.node, top.provider, origin, invocation.id)
            detail = f"service={top.service} invocation={invocation.id} status={invocation.status}"
            if invocation.reason:
                detail += f" reason={invocation.reason}"
            self.trace.add(time, loop.node, EXECUTE, "invoke", detail)
        notify = rule.param("notify")
        if notify:
            notify_service = parse_name(notify)
            invocation = self.broker.invoke(notify_service, top.provider, {}, now=time)
            provider = self.registry.services[notify_service].provider
            if invocation.status == RUNNING:
                self.open_session(top.provider, provider, origin, invocation.id)
            detail = f"service={notify_service} consumer={top.provider} invocation={invocation.id} status={invocation.status}"
            self.trace.add(time, loop.node, EXECUTE, "notify", detail)

    def _act_acquire(self, loop, rule, event, time):
        topic = event.get("topic")
        self.registry.add_learned_knowledge(loop.node, topic)
        self.trace.add(time, loop.node, EXECUTE, "acquire-knowledge", f"topic={topic} adaptation=yes")

    def _act_complete_sessions(self, loop, rule, event, time):
        rating = rule.param("rating")
        rating = Decimal(rating) if rating is not None else None
        origin = event.get("sender")
        selected = []
        for session in self.open_sessions_with(loop.node):
            if origin is not None:
                if session.origin == origin:
                    selected.append(session)
            elif session.consumer == loop.node:
                selected.append(session)
        for session in sorted(selected, key=lambda s: s.id):
            invocation = self.registry.invocations[session.invocation_id - 1]
            self.broker.complete_invocation(invocation, rating=rating, timestamp=time)
            session.open = False
            detail = (f"service={invocation.service} consumer={invocation.consumer}"
                      f" rating={rating}" if rating is not None else
                      f"service={invocation.service} consumer={invocation.consumer}")
            self.trace.add(time, loop.node, EXECUTE, "complete", detail)

    def _act_rate(self, loop, rule, event, time):
        service = parse_name(rule.param("service"))
        rating = Decimal(rule.param("rating"))
        open_invocations = [
            inv for inv in self.registry.invocations
            if inv.service == service and inv.consumer == loop.node and inv.status == RUNNING
        ]
        if open_invocations:
            invocation = open_invocations[0]
            self.broker.complete_invocation(invocation, rating=rating, timestamp=time)
            self.close_session_for(invocation.id)
            detail = f"service={service} rating={rating} invocation={invocation.id}"
        else:
            try:
                self.registry.record_experience(service, loop.node, rating, timestamp=time)
                detail = f"service={service} rating={rating}"
            except NoCompletedInvocationError:
                detail = f"service={service} rating={rating} skipped=no-invocation"
        self.trace.add(time, loop.node, EXECUTE, "rate", detail)

    # -- expectations -----------------------------------------------------------

    def evaluate_expectation(self, expectation: Expectation) -> CheckResult:
        entries = self.trace.entries
        if expectation.kind == "COUNT":
            action, wanted = expectation.args
            got = sum(1 for e in entries if e.phase == EXECUTE and e.action == action)
            return CheckResult(expectation, got == wanted, f"count={got}")
        if expectation.kind == "CONTAINS":
            time, node, phase, action = expectation.args
            ok = any(
                e.time == time and e.node == node and e.phase == phase and e.action == action
                for e in entries
            )
            return CheckResult(expectation, ok, "present" if ok else "absent")
        if expectation.kind == "ORDER":
            first_action, second_action = expectation.args
            first = next((i for i, e in enumerate(entries)
                          if e.phase == EXECUTE and e.action == first_action), None)
            second = next((i for i, e in enumerate(entries)
                           if e.phase == EXECUTE and e.action == second_action), None)
            ok = first is not None and second is not None and first < second
            return CheckResult(expectation, ok, f"first={first} second={second}")
        if expectation.kind == "NONE_AFTER":
            time, action = expectation.args
            late = [e for e in entries if e.phase == EXECUTE and e.action == action and e.time > time]
            return CheckResult(expectation, not late, f"late={len(late)}")
        return CheckResult(expectation, False, "unknown expectation")


def _observation_detail(event: SimEvent) -> str:
    if event.kind == "request":
        return f"from={event.get('requester')} service={event.get('service')}"
    if event.kind == "message":
        return (f"from={event.get('sender')} to={event.get('recipient')}"
                f" id={event.get('id')} sentiment={event.get('sentiment')}"
                f" topic={event.get('topic')}")
    if event.kind == "signal":
        return f"signal={event.get('signal')}"
    return ""


def node_tick(sim: Simulation, loop: NodeLoop, time: int) -> None:
    """Run one monitor/analyze/plan/execute pass over a node's inbox."""
    pending, loop.inbox = loop.inbox, []
    for event in pending:
        sim.trace.add(time, loop.node, MONITOR, "observe", _observation_detail(event))
        rule = sim.match_rule(loop, event)
        if rule is None:
            sim.trace.add(time, loop.node, ANALYZE, "no-rule", "")
            continue
        sim.trace.add(time, loop.node, ANALYZE, "match", rule.action)
        if rule.action != "discover":
            rendered = " ".join(f"{k}={v}" for k, v in rule.params)
            sim.trace.add(time, loop.node, PLAN, rule.action, rendered)
        sim.act(loop, rule, event, time)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    return Simulation(scenario).run()


def load_and_run(path) -> ScenarioResult:
    path = Path(path)
    scenario = load_scenario(read_document(path), path.parent)
    return run_scenario(scenario)
