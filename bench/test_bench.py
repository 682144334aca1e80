"""Fast checks of the benchmark's generator, references and tracer."""

import sys
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layer_trace  # noqa: E402
import reference  # noqa: E402
import workload_gen  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    workload_gen.write_inputs(11, tmp_path / "a")
    workload_gen.write_inputs(11, tmp_path / "b")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first == second
    assert {str(p) for p in first} >= {"registry.kb", "discover.txt", "lifecycle.tsv",
                                       "scenario/chat.scn", "scenario/discoveries.txt"}


def test_seeds_change_terms_but_not_shape():
    a, b = workload_gen.build_registry(1), workload_gen.build_registry(2)
    assert workload_gen.registry_kb_text(a) != workload_gen.registry_kb_text(b)
    assert workload_gen.registry_kb_text(a).count("\n") == workload_gen.registry_kb_text(b).count("\n")
    assert len(workload_gen.lifecycle_ops(1, a)) == len(workload_gen.lifecycle_ops(2, b))


def test_reference_rounds_half_up():
    assert reference.mean_rating([Decimal("0.02"), Decimal("0.03")]) == Decimal("0.03")
    assert reference.mean_rating([1, 1, 2]) == Decimal("1.33")
    assert reference.score(5, 0, 0) == Decimal("1.0000")
    # 0.5·4/5 + 0.25·(1 − 0.5) + 0.25·(1 − 1/60) = 0.7708333… -> 0.7708
    assert reference.score(4, 50, 1) == Decimal("0.7708")
    assert reference.score(0, 150, 90) == Decimal("0.0000")


def test_reference_ranker_agrees_with_the_broker_on_a_small_registry():
    from soa_hitlcps.broker import ServiceBroker, parse_discovery_request
    from soa_hitlcps.kb import parse_document
    from soa_hitlcps.registry import ServiceRegistry

    records = workload_gen.build_registry(3, n_providers=6)
    registry = ServiceRegistry.from_kb(parse_document(workload_gen.registry_kb_text(records)))
    broker = ServiceBroker(registry)
    for request in workload_gen.discover_requests(3, records)[:12]:
        got = [(str(r.service), str(r.provider), r.score)
               for r in broker.discover(parse_discovery_request(request.line()))]
        assert got == reference.rank(records, request), request.line()


def test_tracer_records_nested_spans_and_restores_the_program():
    from soa_hitlcps.broker import ServiceBroker, parse_discovery_request
    from soa_hitlcps.kb import KnowledgeBase, parse_document
    from soa_hitlcps.registry import ServiceRegistry

    original = KnowledgeBase.__dict__["match"]
    records = workload_gen.build_registry(5, n_providers=4)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        from soa_hitlcps import kb

        registry = ServiceRegistry.from_kb(kb.parse_document(workload_gen.registry_kb_text(records)))
        tracer.op = 0
        ServiceBroker(registry).discover(parse_discovery_request("DISCOVER kind=processing"))
    finally:
        tracer.uninstall()
    assert KnowledgeBase.__dict__["match"] is original
    assert parse_document is kb.parse_document
    metrics = tracer.metrics()
    assert [m for m, _ in layer_trace.PER_LAYER] == list(metrics)
    assert metrics["registry.from_kb.calls"]["value"] == 1
    assert metrics["query.evaluate.calls"]["value"] == 1
    assert metrics["query.evaluate.match_calls"]["value"] > 0
    assert metrics["reasoner.materialize.triples_out"]["value"] >= \
        metrics["reasoner.materialize.triples_in"]["value"] > 0
    discover = next(s for s in tracer.spans if s[0] == "broker.discover")
    assert discover[4] == 0
    assert 0 < metrics["broker.discover.self_ms"]["value"] < (discover[2] - discover[1]) * 1000
