"""A naive MAPE-K loop kept beside ``simulator.Simulation``'s fast one.

``NaiveSimulation`` runs a scenario the way the ``.scn`` format describes it,
with none of the fast loop's shortcuts:

- every tick visits every node in sorted order, empty inboxes included;
- every session lookup scans all sessions in the order they opened and
  tests the node against each session's consumer, provider and origin;
- every condition of a rule is evaluated as written, in rule order, once
  for each rule that names it;
- every event field is found by scanning the event's payload, and every
  trace entry formats its node's name.

The action handlers are ``Simulation``'s own (``_invoke``, which opens the
sessions, is overridden to keep them in one list), so a difference between the
two loops points at delivery, rule matching, the session store or the tick.
``run_by_event_time`` records what a loop holds after each event time.
"""

from itertools import groupby

from soa_hitlcps.errors import UnknownServiceError
from soa_hitlcps.kb import Iri
from soa_hitlcps.registry import RUNNING
from soa_hitlcps.schema import knows
from soa_hitlcps.simulator import ANALYZE, EXECUTE, MONITOR, PLAN, Session, Simulation


def event_field(event, key):
    for k, v in event.payload:
        if k == key:
            return v
    return None


def observation(event) -> str:
    if event.kind == "request":
        return f"from={event_field(event, 'requester')} service={event_field(event, 'service')}"
    if event.kind == "message":
        return (f"from={event_field(event, 'sender')} to={event_field(event, 'recipient')}"
                f" id={event_field(event, 'id')} sentiment={event_field(event, 'sentiment')}"
                f" topic={event_field(event, 'topic')}")
    if event.kind == "signal":
        return f"signal={event_field(event, 'signal')}"
    return ""


def members(session) -> set:
    return {session.invocation.consumer, session.provider, session.origin}


class NaiveSimulation(Simulation):
    def __init__(self, scenario):
        super().__init__(scenario)
        self.opened = []  # every session, in the order it opened

    def open_sessions_with(self, node):
        return [s for s in self.opened if s.invocation.status == RUNNING and node in members(s)]

    def _invoke(self, loop, action, service, consumer, inputs, origin, time, detail):
        invocation = self.broker.invoke(service, consumer, inputs, now=time)
        if invocation.status == RUNNING:
            self.opened.append(Session(invocation, self.registry.services[service].provider, origin))
        detail += f" invocation={invocation.id} status={invocation.status}"
        if invocation.reason:
            detail += f" reason={invocation.reason}"
        self.trace.add(time, loop.node, EXECUTE, action, detail)

    def deliver(self, event):
        if event.kind == "signal":
            targets = {event_field(event, "node")}
        elif event.kind == "request":
            record = self.registry.services.get(event_field(event, "service"))
            if record is None:
                raise UnknownServiceError(str(event_field(event, "service")))
            targets = {record.provider}
        elif event.kind == "message":
            sender = event_field(event, "sender")
            targets = {event_field(event, "recipient")}
            for endpoint in (sender, event_field(event, "recipient")):
                for session in self.open_sessions_with(endpoint):
                    targets |= members(session)
            targets.discard(sender)
        else:
            return
        for node in sorted(self.nodes):
            if node in targets:
                self.nodes[node].inbox.append(event)

    def condition_holds(self, node, event, key, value) -> bool:
        if key == "event":
            return event.kind == value
        if key == "sentiment":
            return event.kind == "message" and event_field(event, "sentiment") == value
        if key == "signal":
            return event.kind == "signal" and event_field(event, "signal") == value
        if key == "topic-known":
            if event.kind != "message":
                return False
            known = knows(self.registry.kb, node, event_field(event, "topic"))
            return known if value == "yes" else not known
        if key == "from-provider":
            if event.kind != "message":
                return False
            sender = event_field(event, "sender")
            holds = any(s.provider == sender for s in self.open_sessions_with(node))
            return holds if value == "yes" else not holds
        return False

    def match_rule(self, loop, event):
        for rule in loop.rules:
            if all(self.condition_holds(loop.node, event, k, v) for k, v in rule.conditions):
                return rule
        return None

    def tick(self, time):
        for node in sorted(self.nodes):
            loop = self.nodes[node]
            pending, loop.inbox = loop.inbox, []
            for event in pending:
                self.trace.add(time, loop.node, MONITOR, "observe", observation(event))
                rule = self.match_rule(loop, event)
                if rule is None:
                    self.trace.add(time, loop.node, ANALYZE, "no-rule", "")
                    continue
                self.trace.add(time, loop.node, ANALYZE, "match", rule.action)
                self.trace.add(time, loop.node, PLAN, rule.action, rule.plan)
                self.act(loop, rule, event, time)


def _names(sim) -> list:
    """Every name a session could hold: the nodes, the Iris the events carry and the services' providers."""
    names = set(sim.nodes) | {record.provider for record in sim.registry.services.values()}
    names |= {value for event in sim.events for _, value in event.payload if isinstance(value, Iri)}
    return sorted(names)


def open_sessions(sim) -> list:
    """(name, its open sessions in the order they opened) for every name a session could hold."""
    return [(str(name), [(s.invocation.id, str(s.invocation.service), str(s.invocation.consumer),
                          str(s.provider), str(s.origin)) for s in sim.open_sessions_with(name)])
            for name in _names(sim)]


def run_by_event_time(sim) -> list:
    """Run ``sim`` as ``Simulation.run`` does, recording after each event time its new trace
    lines and every name's open sessions; an error ends the record with its type and message."""
    record = []
    for time, batch in groupby(sim.events, key=lambda event: event.time):
        start = len(sim.trace.entries)
        try:
            for event in batch:
                sim.deliver(event)
            sim.tick(time)
        except Exception as err:  # both loops must fail alike
            record.append((time, [entry.to_tsv() for entry in sim.trace.entries[start:]],
                           f"{type(err).__name__}: {err}"))
            break
        record.append((time, [entry.to_tsv() for entry in sim.trace.entries[start:]], open_sessions(sim)))
    return record
