"""Volume checks: the oracles and the benchmark's reference ranker at scale.

Each check prints one line per case and exits 1 at the first case that
differs.  Run one or more by name, or every check with none::

    PYTHONPATH=src python3 -B tests/volume.py [check ...]

``discover-cli`` and ``simulate-hash-seeds`` run the installed
``soa-hitlcps`` command, so it must be on PATH.  The files the checks write
go to a temporary directory.
"""

from __future__ import annotations

import os
import random
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import kb_oracle  # noqa: E402
import query_oracle  # noqa: E402
import reference  # noqa: E402
import sim_oracle  # noqa: E402
import workload_gen  # noqa: E402
from test_broker import unread_broker  # noqa: E402
from test_reasoner import _naive_materialize, _random_unsatisfiability_kb, _witness_unsatisfiable  # noqa: E402

from soa_hitlcps import broker as broker_module  # noqa: E402
from soa_hitlcps.broker import ServiceBroker, parse_discovery_request  # noqa: E402
from soa_hitlcps.kb import ancestors, iri, parse_document, read_document, serialize, term_sort_key  # noqa: E402
from soa_hitlcps.reasoner import check_consistency, materialize  # noqa: E402
from soa_hitlcps.registry import RUNNING, ServiceRegistry  # noqa: E402
from soa_hitlcps.simulator import load_and_run, load_scenario  # noqa: E402

SEEDS = (1, 2, 3)
SIZES = (16, 256)


def _report(line: str, same: bool) -> None:
    print(line)
    if not same:
        sys.exit(1)


def discover_cli(directory: Path) -> None:
    """``soa-hitlcps discover`` on a 1000-provider registry ranks as the reference ranker does (no timing gate)."""
    path = directory / "registry-1000.kb"
    records = workload_gen.build_registry(1, 1000)
    path.write_text(workload_gen.registry_kb_text(records), encoding="utf-8")
    for request in workload_gen.discover_requests(1, records)[::16]:
        got = subprocess.run(["soa-hitlcps", "discover", str(path), request.line()],
                             capture_output=True, text=True, check=True).stdout
        want = "".join(f"{s}\t{p}\t{score}\n" for s, p, score in reference.rank(records, request))
        _report(f"{request.line()} -> {want.count(chr(10))} services {'ok' if got == want else 'DIFFERENT'}",
                got == want)


def discover_ranking(directory: Path) -> None:
    """Discovery ranks all 48 generated requests of each registry as the reference ranker does, in process."""
    for seed in SEEDS:
        for n in SIZES:
            records = workload_gen.build_registry(seed, n)
            broker = ServiceBroker(ServiceRegistry.from_kb(parse_document(workload_gen.registry_kb_text(records))))
            requests = workload_gen.discover_requests(seed, records)
            differ = [request.line() for request in requests
                      if [(str(r.service), str(r.provider), r.score)
                          for r in broker.discover(parse_discovery_request(request.line()))]
                      != reference.rank(records, request)]
            _report(f"seed {seed} N {n} {len(requests)} requests "
                    f"{'equal' if not differ else 'DIFFERENT: ' + differ[0]}", not differ)


def query_oracle_check(directory: Path) -> None:
    """1000 random queries per seed print and read back as themselves, and the oracles agree."""
    for seed in SEEDS:
        print("seed", seed, query_oracle.run_randomized_comparison(1000, seed), "cases equal")


def closure(directory: Path) -> None:
    """The closure of generated registries equals the exhaustive closure, its copy and its round trip."""
    for seed in SEEDS:
        for n in SIZES:
            kb = parse_document(workload_gen.registry_kb_text(workload_gen.build_registry(seed, n)))
            closed = materialize(kb)
            same = (closed == _naive_materialize(kb) and closed.copy() == closed
                    and parse_document(serialize(closed)) == closed)
            inferred = len(closed.type_assertions) - len(kb.type_assertions)
            _report(f"seed {seed} N {n} {inferred} inferred types {'equal' if same else 'DIFFERENT'}", same)


def unsatisfiable(directory: Path) -> None:
    """Unsatisfiable classes are those whose fresh instance materializes into a disjoint pair (2000 kbs per seed)."""
    for seed in SEEDS:
        rng, found, differ = random.Random(seed), 0, 0
        for _ in range(2000):
            kb = _random_unsatisfiability_kb(rng)
            expected = _witness_unsatisfiable(kb)
            found += len(expected)
            differ += check_consistency(kb).unsatisfiable_classes != expected
        _report(f"seed {seed} 2000 kbs {found} unsatisfiable classes "
                f"{'equal' if not differ else f'{differ} DIFFERENT'}", not differ)


def _random_dag(rng, size: int, span: int) -> set:
    """Links ``(child, parent)`` over classes 0..size-1: each class but 0 has a parent among the
    ``span`` before it and, one time in ten, a second one among all before it."""
    links = set()
    for child in range(1, size):
        links.add((child, rng.randrange(max(0, child - span), child)))
        if rng.random() < 0.1:
            links.add((child, rng.randrange(child)))
    return links


def _bitset_ancestors(size: int, links) -> list:
    """Each class's ancestors as a bit mask, built in class order, since a parent precedes its child."""
    parents = [[] for _ in range(size)]
    for child, parent in links:
        parents[child].append(parent)
    masks = [0] * size
    for child in range(size):
        for parent in parents[child]:
            masks[child] |= masks[parent] | 1 << parent
    return masks


def _bits(mask: int) -> list:
    """The set bits of ``mask``, lowest first: one step per set bit, so wide sparse masks stay cheap."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _closure_case(rng, label: str, size: int, links) -> None:
    """Read ``links`` from shuffled ``CLASS`` lines; ``ancestors`` and ``materialize``'s closed
    links equal the bit-mask closure."""
    names = [iri(f"C{i}") for i in range(size)]
    lines = [f"CLASS {names[child]} SUBCLASSOF {names[parent]}\n" for child, parent in links]
    rng.shuffle(lines)
    kb = parse_document("".join(lines))
    masks = _bitset_ancestors(size, links)
    want = {names[c]: {names[p] for p in _bits(mask)} for c, mask in enumerate(masks) if mask}
    closed = {(child, parent) for child, above in want.items() for parent in above}
    same = ancestors(kb.subclass_links) == want and materialize(kb).subclass_links == closed
    _report(f"{label} {len(closed)} closed links {'equal' if same else 'DIFFERENT'}", same)


def hierarchy(directory: Path) -> None:
    """``ancestors`` and ``materialize``'s closed links equal a bit-mask closure on random subclass DAGs
    (a random recursive tree of 2000 classes, a deep DAG, a chain with shortcuts and an 8000-class
    tree of branching 8), the serialized closure of a 160-class chain reads back as itself, and
    ``check_consistency`` finds the classes below both parents of a class, declared disjoint, in a
    2000-class taxonomy."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for size, span in ((2000, 2000), (rng.randint(2, 300), rng.randint(2, 8)), (300, 1)):
            _closure_case(rng, f"seed {seed} {size} classes span {span}", size, _random_dag(rng, size, span))
        size = 2000
        names = [iri(f"C{i}") for i in range(size)]
        links = _random_dag(rng, size, size)
        counts = Counter(child for child, _ in links)
        shared = min(child for child, n in counts.items() if n > 1)  # the earliest, so the likeliest to have descendants
        a, b = sorted(parent for child, parent in links if child == shared)
        kb = parse_document("".join(f"CLASS {names[child]} SUBCLASSOF {names[parent]}\n" for child, parent in links)
                            + f"DISJOINT {names[a]} {names[b]}\n")
        both = 1 << a | 1 << b
        masks = _bitset_ancestors(size, links)
        want = sorted((names[c] for c, mask in enumerate(masks) if (mask | 1 << c) & both == both), key=term_sort_key)
        report = check_consistency(kb)
        same = report.unsatisfiable_classes == want and not report.disjointness_violations
        _report(f"seed {seed} {size}-class taxonomy {len(want)} unsatisfiable classes "
                f"{'equal' if same else 'DIFFERENT'}", same)
        # a wide tree: reading it costs one cycle check per link, each a walk up to the root
        size = 8000
        _closure_case(rng, f"seed {seed} {size}-class tree of branching 8", size,
                      {(child, (child - 1) // 8) for child in range(1, size)})
    # a closed chain: each of its links is checked for a cycle against all the links read before it
    size = 160
    closed = materialize(parse_document("".join(f"CLASS C{i} SUBCLASSOF C{i + 1}\n" for i in range(size - 1))))
    same = parse_document(serialize(closed)) == closed
    _report(f"closed {size}-class chain {len(closed.subclass_links)} links read back "
            f"{'equal' if same else 'DIFFERENT'}", same)


def _invoke_and_complete(broker: ServiceBroker, op) -> None:
    """One operation of the lifecycle script: invoke, then complete with its rating if it runs."""
    invocation = broker.invoke(iri(op.service), iri(op.consumer),
                               {k: iri(v) for k, v in op.inputs.items()}, now=op.now)
    if invocation.status == RUNNING:
        broker.complete_invocation(invocation, rating=op.rating)


def lifecycle_replay(directory: Path) -> None:
    """After each invoke-then-complete of the lifecycle script the journal is armed and the closure is fresh."""
    for seed in SEEDS:
        for n in SIZES:
            records = workload_gen.build_registry(seed, n)
            registry = ServiceRegistry.from_kb(parse_document(workload_gen.registry_kb_text(records)))
            broker = ServiceBroker(registry)
            ops, bad = workload_gen.lifecycle_ops(seed, records), []
            for op in ops:
                _invoke_and_complete(broker, op)
                armed = registry.kb.journal is broker._cache[0]
                if not (armed and broker._closure() == materialize(registry.kb)):
                    bad.append(op.line())
            _report(f"seed {seed} N {n} {len(ops)} ops "
                    f"{'equal and armed' if not bad else 'DIFFERENT: ' + bad[0]}", not bad)


def discover_cache(directory: Path) -> None:
    """After each operation of the lifecycle script, one long-lived broker ranks all 48 generated
    requests as a broker that has read nothing does; and how often the chat scenario evaluates a query."""
    for seed in SEEDS:
        for n in SIZES:
            records = workload_gen.build_registry(seed, n)
            registry = ServiceRegistry.from_kb(parse_document(workload_gen.registry_kb_text(records)))
            broker = ServiceBroker(registry)
            requests = [parse_discovery_request(r.line()) for r in workload_gen.discover_requests(seed, records)]
            ops, bad = workload_gen.lifecycle_ops(seed, records), []
            for op in ops:
                _invoke_and_complete(broker, op)
                fresh = unread_broker(registry)
                if any(broker.discover(r, op.now) != fresh.discover(r, op.now) for r in requests):
                    bad.append(op.line())
            _report(f"seed {seed} N {n} {len(ops)} ops x {len(requests)} requests "
                    f"{'equal' if not bad else 'DIFFERENT: ' + bad[0]}", not bad)
    counted = {"discover": 0, "evaluate": 0}
    discover, evaluate = ServiceBroker.discover, broker_module.evaluate

    def counting(name, fn):
        def call(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return call

    ServiceBroker.discover, broker_module.evaluate = counting("discover", discover), counting("evaluate", evaluate)
    try:
        for seed in SEEDS:
            out = directory / "cached-scenarios" / str(seed)
            out.mkdir(parents=True)
            for name, text in workload_gen.build_scenario(seed).files.items():
                (out / name).write_text(text, encoding="utf-8")
            counted.update(discover=0, evaluate=0)
            load_and_run(str(out / "chat.scn"))
            print(f"seed {seed} chat scenario: {counted['discover']} discovers, {counted['evaluate']} evaluates")
    finally:
        ServiceBroker.discover, broker_module.evaluate = discover, evaluate


def kb_reader(directory: Path) -> None:
    """The .kb reader agrees with the positioned-token reader on generated registries and on their
    serialized closures, and serialize round-trips."""
    for seed in SEEDS:
        for n in SIZES:
            text = workload_gen.registry_kb_text(workload_gen.build_registry(seed, n))
            kb = parse_document(text)
            closed = serialize(materialize(kb))
            same = (kb == kb_oracle.parse_document(text) and parse_document(serialize(kb)) == kb
                    and parse_document(closed) == kb_oracle.parse_document(closed))
            _report(f"seed {seed} N {n} {text.count(chr(10))} lines, closure {closed.count(chr(10))} lines "
                    f"{'equal' if same else 'DIFFERENT'}", same)


def simulate_hash_seeds(directory: Path) -> None:
    """``soa-hitlcps simulate`` under hash seeds 1 and 777 traces what run_scenario and the naive loop trace."""
    for seed in SEEDS:
        out = directory / "scenarios" / str(seed)
        out.mkdir(parents=True)
        for name, text in workload_gen.build_scenario(seed).files.items():
            (out / name).write_text(text, encoding="utf-8")
        path = str(out / "chat.scn")
        want = load_and_run(path).trace.to_tsv()
        got = [subprocess.run(["soa-hitlcps", "--quiet", "simulate", path, "--trace"],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONHASHSEED=hash_seed)).stdout
               for hash_seed in ("1", "777")]
        naive = sim_oracle.NaiveSimulation(load_scenario(read_document(path), out)).run().trace.to_tsv()
        same = got == [want, want] and naive == want
        _report(f"seed {seed} {want.count(chr(10))} trace lines {'equal' if same else 'DIFFERENT'}", same)


CHECKS = {
    "discover-cli": discover_cli,
    "discover-ranking": discover_ranking,
    "query-oracle": query_oracle_check,
    "closure": closure,
    "unsatisfiable": unsatisfiable,
    "hierarchy": hierarchy,
    "lifecycle-replay": lifecycle_replay,
    "discover-cache": discover_cache,
    "kb-reader": kb_reader,
    "simulate-hash-seeds": simulate_hash_seeds,
}


def main(names) -> None:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        sys.exit(f"unknown check {unknown[0]!r}; the checks are: {', '.join(CHECKS)}")
    with tempfile.TemporaryDirectory() as directory:
        for name in names or CHECKS:
            print(f"== {name}")
            CHECKS[name](Path(directory))


if __name__ == "__main__":
    main(sys.argv[1:])
