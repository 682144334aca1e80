"""The three benchmark workloads.

Each workload is a closed loop: one caller, one thread, one process.  Timed
operations follow a fixed sequence generated from the seed, warm-up is not
timed, and every operation's output is checked against a reference computed
by ``reference.py`` or ``workload_gen.py`` from the generator's own records.
A check that fails raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from time import perf_counter

import reference
import speed
import workload_gen
from layer_trace import graph_size

from soa_hitlcps import cli, kb as kb_module, simulator
from soa_hitlcps.broker import ServiceBroker, parse_discovery_request
from soa_hitlcps.errors import SoaHitlcpsError
from soa_hitlcps.kb import Statement, iri
from soa_hitlcps.registry import RUNNING, ServiceRegistry

WARMUP_OPS = 4
RELOAD_EVERY = 24      # discover-read operations between two registry loads


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """Samples of one run: set-up times, operation latencies, speed probes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_s = []      # [(operations timed before it, seconds)]
        self.latencies = []
        self.failed = 0
        self.probe = speed.Probe()
        self.probe.sample(0)
        self._since_probe = 0.0

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def setup(self, fn):
        """Time one set-up; a speed probe follows it."""
        start = perf_counter()
        result = fn()
        self.setup_s.append((len(self.latencies), perf_counter() - start))
        self.probe.sample(len(self.latencies))
        return result

    def op(self, fn):
        """Time one operation; a domain error counts as a failed operation."""
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        start = perf_counter()
        try:
            result = fn()
        except SoaHitlcpsError:
            result = None
            self.failed += 1
        self.latencies.append(perf_counter() - start)
        if self.tracer is not None:
            self.tracer.op = -1
        self._since_probe += self.latencies[-1]
        if self._since_probe >= speed.EVERY_S:
            self.probe.sample(len(self.latencies))
            self._since_probe = 0.0
        return result

    def scaled_setup_s(self) -> list:
        return [self.probe.scale(at, s) for at, s in self.setup_s]

    def scaled_latencies(self) -> list:
        return [self.probe.scale(i + 1, s) for i, s in enumerate(self.latencies)]

    def count(self, name: str, value: int) -> None:
        if self.tracer is not None and self.tracer.active:
            self.tracer.counts[name] += value


def _load_registry(path: Path) -> ServiceRegistry:
    """Load the registry the way ``soa-hitlcps discover`` does."""
    return ServiceRegistry.from_kb(kb_module.parse_document(path.read_text(encoding="utf-8")))


def _cli_discover_parity(run: Run, kb_path: Path, line: str) -> None:
    """``soa-hitlcps discover`` prints exactly the in-process ranking."""
    with run.untraced():
        broker = ServiceBroker(_load_registry(kb_path))
        expected = "".join(f"{r.service}\t{r.provider}\t{r.score}\n"
                           for r in broker.discover(parse_discovery_request(line)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["discover", str(kb_path), line])
    check(code == 0, f"cli discover exited {code}")
    check(out.getvalue() == expected, "cli discover output differs from the in-process ranking")


# --------------------------------------------------------------------------


def discover_read(run: Run, seed: int, inputs: Path, seconds: float) -> None:
    """One operation: parse one DISCOVER line and run ``ServiceBroker.discover``.

    Each round runs every line once and reloads the registry every
    ``RELOAD_EVERY`` lines, so that set-up is sampled across the run.
    """
    records = workload_gen.build_registry(seed)
    requests = workload_gen.discover_requests(seed, records)
    lines = (inputs / "discover.txt").read_text(encoding="utf-8").splitlines()
    check(lines == [r.line() for r in requests], "discover.txt differs from the generator's requests")
    expected = {r.line(): reference.rank(records, r) for r in requests}
    kb_path = inputs / "registry.kb"

    def discover(broker, line):
        return lambda: broker.discover(parse_discovery_request(line))

    with run.untraced():
        broker = ServiceBroker(_load_registry(kb_path))
        for line in lines[:WARMUP_OPS]:
            discover(broker, line)()
    start = perf_counter()
    while perf_counter() - start < seconds:
        for index, line in enumerate(lines):
            if index % RELOAD_EVERY == 0:
                registry = run.setup(lambda: _load_registry(kb_path))
                broker = ServiceBroker(registry)
            ranked = run.op(discover(broker, line))
            if ranked is not None:
                got = [(str(r.service), str(r.provider), r.score) for r in ranked]
                check(got == expected[line], f"ranking differs from the reference for {line!r}")
    _cli_discover_parity(run, kb_path, lines[0])
    run.count("kb.triples", graph_size(registry.kb))


def lifecycle_write(run: Run, seed: int, inputs: Path, seconds: float) -> None:
    """One operation: ``invoke`` and, when it runs, ``complete_invocation``.

    Every episode reloads the registry (a set-up sample) and replays the same
    script, so each operation sees the same state whatever the speed of the
    code.
    """
    records = workload_gen.build_registry(seed)
    ops = [workload_gen.parse_lifecycle_line(line) for line in
           (inputs / "lifecycle.tsv").read_text(encoding="utf-8").splitlines()]
    check([op.line() for op in ops] ==
          [op.line() for op in workload_gen.lifecycle_ops(seed, records)],
          "lifecycle.tsv differs from the generator's script")
    kb_path = inputs / "registry.kb"

    def invoke_and_complete(broker, op):
        def call():
            invocation = broker.invoke(iri(op.service), iri(op.consumer),
                                       {k: iri(v) for k, v in op.inputs.items()}, now=op.now)
            if invocation.status == RUNNING:
                broker.complete_invocation(invocation, rating=op.rating, timestamp=op.now)
            return invocation
        return call

    with run.untraced():
        broker = ServiceBroker(_load_registry(kb_path))
        for op in ops[:WARMUP_OPS]:
            invoke_and_complete(broker, op)()
    start = perf_counter()
    while perf_counter() - start < seconds:
        registry = run.setup(lambda: _load_registry(kb_path))
        broker = ServiceBroker(registry)
        for op in ops:
            invocation = run.op(invoke_and_complete(broker, op))
            if invocation is not None:
                check((invocation.status, invocation.reason or "") == (op.status, op.reason),
                      f"invocation of {op.service}: got {invocation.status}/{invocation.reason},"
                      f" expected {op.status}/{op.reason or '-'}")
        _check_ledger(records, ops, registry)
    _cli_discover_parity(run, kb_path, "DISCOVER kind=processing qos.max_cost=100")
    run.count("kb.triples", graph_size(registry.kb))


def _check_ledger(records, ops, registry) -> None:
    """Reputations are the means of all ratings; effects hold in script order."""
    ratings = {name: [r for _, r in s.priors] for name, s in records.services.items()}
    present = {}
    for op in ops:
        if op.status != "completed":
            continue
        ratings[op.service].append(op.rating)
        for verb, s, p, o in op.effects:
            present[(s, p, o)] = verb == "ADD"
    for name, service in records.services.items():
        want = reference.mean_rating(ratings[name]) if ratings[name] else service.reputation
        got = registry.services[iri(name)].reputation
        check(got == want, f"reputation of {name} is {got}, expected {want}")
    for (s, p, o), wanted in present.items():
        held = Statement(iri(s), iri(p), iri(o)) in registry.kb.statements
        check(held == wanted, f"effect {s} {p} {o} is {'absent' if wanted else 'present'}")


def mapek_scenario(run: Run, seed: int, inputs: Path, seconds: float) -> None:
    """One operation: one event time's delivery plus a MAPE-K pass over all nodes.

    Every episode loads the scenario afresh (timed as set-up) and runs it to
    the end.
    """
    directory = inputs / "scenario"
    path = directory / "chat.scn"
    discoveries = (directory / "discoveries.txt").read_text(encoding="utf-8").splitlines()

    def load():
        return simulator.load_scenario(path.read_text(encoding="utf-8"), directory)

    def event_time(sim, batch):
        def call():
            for event in batch:
                sim.deliver(event)
            sim.tick(batch[0].time)
        return call

    graph = 0

    def episode(timed: bool) -> str:
        nonlocal graph
        sim = simulator.Simulation(run.setup(load) if timed else load())
        by_time = {}
        for event in sim.events:
            by_time.setdefault(event.time, []).append(event)
        for batch in by_time.values():
            if timed:
                run.op(event_time(sim, batch))
            else:
                event_time(sim, batch)()
        result = simulator.ScenarioResult(sim.trace, [sim.evaluate_expectation(e)
                                                      for e in sim.expectations])
        failed = [c.line() for c in result.checks if not c.ok]
        check(result.all_ok, f"scenario expectations failed: {failed}")
        found = [e.detail for e in sim.trace.entries if e.phase == "execute" and e.action == "discover"]
        check(found == discoveries, "discovered services differ from the reference ranking")
        run.count("simulator.trace_entries", len(sim.trace.entries))
        graph = graph_size(sim.registry.kb)
        return result.trace.to_tsv()

    with run.untraced():
        reference_trace = episode(timed=False)
    start = perf_counter()
    while perf_counter() - start < seconds:
        check(episode(timed=True) == reference_trace, "episode traces differ")
    with run.untraced():
        check(simulator.run_scenario(simulator.load_scenario(
            path.read_text(encoding="utf-8"), directory)).trace.to_tsv() == reference_trace,
            "run_scenario trace differs from the episode trace")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--quiet", "simulate", str(path), "--trace"])
    check(code == 0 and out.getvalue() == reference_trace, "cli simulate differs from the episode trace")
    run.count("kb.triples", graph)


WORKLOADS = {
    "discover-read": discover_read,
    "lifecycle-write": lifecycle_write,
    "mapek-scenario": mapek_scenario,
}
