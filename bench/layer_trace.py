"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces the public functions through which one layer
calls another with timing wrappers, at the names the callers look up
(``KnowledgeBase.match``, ``materialize`` as imported into ``broker``,
``node_tick`` in ``simulator`` ...).  Each wrapper records a span
``(name, start, end, parent span, operation id)`` and the counts named in
``PER_LAYER``.  Spans stay in memory until ``write`` at the end of the run;
``uninstall`` puts the original functions back.  No program file changes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("kb.parse_document.ms", "ms"),
    ("kb.match.calls", "count"),
    ("kb.match.ms", "ms"),
    ("kb.match.rows", "count"),
    ("kb.copy.ms", "ms"),
    ("kb.triples", "count"),
    ("reasoner.materialize.calls", "count"),
    ("reasoner.materialize.self_ms", "ms"),
    ("reasoner.materialize.triples_in", "count"),
    ("reasoner.materialize.triples_out", "count"),
    ("query.evaluate.calls", "count"),
    ("query.evaluate.self_ms", "ms"),
    ("query.evaluate.match_calls", "count"),
    ("query.evaluate.rows", "count"),
    ("schema.parse.ms", "ms"),
    ("schema.project.ms", "ms"),
    ("registry.from_kb.calls", "count"),
    ("registry.from_kb.self_ms", "ms"),
    ("registry.register.self_ms", "ms"),
    ("registry.publish_service.self_ms", "ms"),
    ("registry.record_experience_for.self_ms", "ms"),
    ("broker.discover.self_ms", "ms"),
    ("broker.discover.candidates", "count"),
    ("broker.discover.ranked", "count"),
    ("broker.invoke.calls", "count"),
    ("broker.invoke.self_ms", "ms"),
    ("broker.invoke.rejected", "count"),
    ("broker.complete_invocation.self_ms", "ms"),
    ("simulator.load_scenario.self_ms", "ms"),
    ("simulator.node_tick.calls", "count"),
    ("simulator.node_tick.self_ms", "ms"),
    ("simulator.deliver.ms", "ms"),
    ("simulator.trace_entries", "count"),
)


def graph_size(kb) -> int:
    """Triples in a knowledge base, type assertions included."""
    return len(kb.type_assertions) + len(kb.statements)


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, operation id]
        self.stack = []           # indexes of the open spans
        self.counts = defaultdict(int)
        self.op = -1              # -1 while setting up
        self.active = True        # off during warm-up and correctness checks
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, count=None, classmethod_=False):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if classmethod_:
            setattr(owner, attr, classmethod(self._wrap(name, original.__func__, count)))
        else:
            setattr(owner, attr, self._wrap(name, original, count))

    def install(self) -> None:
        from soa_hitlcps import broker, kb, registry, simulator

        def match_rows(t, span, args, result):
            t.counts["kb.match.rows"] += len(result)
            if span[3] >= 0 and t.spans[span[3]][0] == "query.evaluate":
                t.counts["query.evaluate.match_calls"] += 1

        def closure_size(t, span, args, result):
            t.counts["reasoner.materialize.triples_in"] += graph_size(args[0])
            t.counts["reasoner.materialize.triples_out"] += graph_size(result)

        def query_rows(t, span, args, result):
            t.counts["query.evaluate.rows"] += len(result.rows)
            if span[3] >= 0 and t.spans[span[3]][0] == "broker.discover":
                # the query projects distinct services: a discover's candidates
                t.counts["broker.discover.candidates"] += len(result.rows)

        def ranked(t, span, args, result):
            t.counts["broker.discover.ranked"] += len(result)

        def rejected(t, span, args, result):
            t.counts["broker.invoke.rejected"] += result.status == "rejected"

        self._patch(kb, "parse_document", "kb.parse_document")
        self._patch(kb.KnowledgeBase, "match", "kb.match", match_rows)
        self._patch(kb.KnowledgeBase, "copy", "kb.copy")
        self._patch(broker, "materialize", "reasoner.materialize", closure_size)
        self._patch(broker, "evaluate", "query.evaluate", query_rows)
        for attr in ("parse_human_capability", "parse_machine_capability", "parse_service_profile"):
            self._patch(simulator, attr, "schema.parse")
        for attr in ("project_human", "project_machine", "project_profile"):
            self._patch(registry, attr, "schema.project")
        self._patch(registry.ServiceRegistry, "from_kb", "registry.from_kb", classmethod_=True)
        self._patch(registry.ServiceRegistry, "register_human", "registry.register")
        self._patch(registry.ServiceRegistry, "register_machine", "registry.register")
        self._patch(registry.ServiceRegistry, "publish_service", "registry.publish_service")
        self._patch(registry.ServiceRegistry, "record_experience_for", "registry.record_experience_for")
        self._patch(broker.ServiceBroker, "discover", "broker.discover", ranked)
        self._patch(broker.ServiceBroker, "invoke", "broker.invoke", rejected)
        self._patch(broker.ServiceBroker, "complete_invocation", "broker.complete_invocation")
        self._patch(simulator, "load_scenario", "simulator.load_scenario")
        self._patch(simulator, "node_tick", "simulator.node_tick")
        self._patch(simulator.Simulation, "deliver", "simulator.deliver")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        calls, total, child = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        values = dict(self.counts)
        for metric, unit in PER_LAYER:
            if metric in values:
                continue
            layer, _, what = metric.rpartition(".")
            if what == "calls":
                values[metric] = calls[layer]
            elif what == "ms":
                values[metric] = total[layer] * 1000
            elif what == "self_ms":
                values[metric] = self_time[layer] * 1000
            else:
                values[metric] = 0
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}

    def write(self, path, extra: dict) -> None:
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_us", "end_us", "parent", "op"]
        doc["spans"] = [
            [ids[name], round(start * 1e6), round(end * 1e6), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
