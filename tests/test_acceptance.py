"""End-to-end acceptance gate.

One test per release criterion; each prints a ``[C<n>] PASS`` or ``[C<n>]
FAIL`` line straight to the terminal so the verdicts survive output capture.
"""

import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

from allocation_oracle import oracle_value, run_randomized_cases
from query_oracle import run_randomized_comparison
from test_query import DISCOVERY_QUERY
from test_simulator import raters

from soa_hitlcps.allocation import Assignee, Category, CategoryWeights, TaskSpec, loa, loa_weighted
from soa_hitlcps.broker import ServiceBroker, compile_request
from soa_hitlcps.datafiles import base_kb_text, cq_entries, fixture_text, scenario_dir
from soa_hitlcps.kb import Iri, Pattern, iri, parse_document, serialize
from soa_hitlcps.metrics import crr, run_cq
from soa_hitlcps.query import parse_query, query_equivalent
from soa_hitlcps.reasoner import (
    axiom_inference_check,
    check_consistency,
    check_ontoclean,
    materialize,
)
from soa_hitlcps.schema import base_ontology
from soa_hitlcps.simulator import load_scenario, run_scenario


@contextmanager
def criterion(number, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[C{number}] FAIL")
        raise
    with capsys.disabled():
        print(f"[C{number}] PASS")


def _load(name):
    directory = Path(scenario_dir())
    return load_scenario((directory / name).read_text(encoding="utf-8"), directory)


def test_c1_structure_ratio_on_three_knowledge_bases(capsys):
    with criterion(1, capsys):
        started = time.perf_counter()
        expectations = (
            ("base.kb", 46, 55, "0.84"),
            ("hscd.kb", 17, 16, "1.06"),
            ("pe.kb", 10, 9, "1.11"),
        )
        for name, classes, relations, value in expectations:
            result = crr(parse_document(fixture_text(name)))
            assert (result.classes, result.relations) == (classes, relations), name
            assert str(result.value) == value, name
        assert time.perf_counter() - started < 1.0


def test_c2_chat_scenario_delegation_and_adaptation(capsys):
    with criterion(2, capsys):
        started = time.perf_counter()
        scenario = _load("scenario2_chat.scn")

        # the rule-compiled discovery must be the reference query
        cathy = scenario.nodes[iri("Cathy")]
        rule = next(r for r in cathy.rules if r.action == "discover")
        request = rule.request
        assert query_equivalent(compile_request(request), parse_query(DISCOVERY_QUERY))

        # and it must match exactly one service: the physician's
        ranked = ServiceBroker(scenario.registry).discover(request)
        assert [r.service for r in ranked] == [iri("chatDoctor")]

        result = run_scenario(scenario)
        assert result.all_ok, [c.line() for c in result.checks if not c.ok]
        discoveries = [e for e in result.trace.entries
                       if e.phase == "execute" and e.action == "discover"]
        assert len(discoveries) == 1
        assert discoveries[0].detail.startswith("found=chatDoctor")

        # knowledge acquired mid-run answers the repeated topic locally
        kb = scenario.registry.kb
        assert kb.match(Pattern(iri("cathyCapability"), iri("hasLearnedKnowledge"),
                                iri("HeadDiscomfort")))
        assert not any(e.action == "discover" and e.phase == "execute" and e.time > 3
                       for e in result.trace.entries)
        repeat_answers = [e for e in result.trace.entries
                          if e.phase == "execute" and e.action == "answer" and e.time == 5]
        assert len(repeat_answers) == 1
        assert time.perf_counter() - started < 5.0


def test_c3_monitoring_scenario_discovery_and_mutual_ratings(capsys):
    with criterion(3, capsys):
        started = time.perf_counter()
        scenario = _load("scenario1_ecg.scn")

        rule = next(r for r in scenario.nodes[iri("EcgDev")].rules if r.action == "discover")
        request = rule.request
        ranked = ServiceBroker(scenario.registry).discover(request)
        assert [r.service for r in ranked] == [iri("actuatingBySisy")]

        result = run_scenario(scenario)
        assert result.all_ok, [c.line() for c in result.checks if not c.ok]
        assert (iri("actuatingBySisy"), iri("EcgDev")) in raters(scenario.registry.kb)
        assert (iri("ecgAlert"), iri("Sisy")) in raters(scenario.registry.kb)
        actions = {(e.node, e.action) for e in result.trace.entries if e.phase == "execute"}
        assert ("EcgDev", "complete") in actions
        assert ("Sisy", "rate") in actions
        assert time.perf_counter() - started < 5.0


def test_c4_class_axioms_infer_without_direct_typing(capsys):
    with criterion(4, capsys):
        kb = base_ontology()
        person = iri("axiomPerson")
        cap = iri("axiomCap")
        service = iri("axiomService")
        kb.add_type(person, iri("PhysicalThing"))
        kb.add_type(cap, iri("HumanCapability"))
        kb.add_statement(person, iri("hasCapability"), cap)
        kb.add_type(service, iri("Service"))
        kb.add_statement(service, iri("providedBy"), person)

        assert (person, iri("Human")) not in kb.type_assertions
        assert (service, iri("HumanService")) not in kb.type_assertions
        closed = materialize(kb)
        assert iri("Human") in closed.types_of(person)
        assert iri("HumanService") in closed.types_of(service)

        for axiom in sorted(base_ontology().axioms, key=lambda a: a.head):
            assert axiom_inference_check(base_ontology(), axiom), axiom.head


def test_c5_competency_question_matrix(capsys):
    with criterion(5, capsys):
        questions = cq_entries()
        assert [name for name, _ in questions] == [f"cq{i}" for i in range(1, 9)]

        world = _load("scenario2_chat.scn").registry.kb
        for name, text in questions:
            verdict = run_cq(world, name, text)
            assert verdict.status == "instant", verdict.line()
            assert len(verdict.rows) >= 1, verdict.line()

        hscd = parse_document(fixture_text("hscd.kb"))
        pe = parse_document(fixture_text("pe.kb"))
        hscd_instant = {"cq1", "cq4", "cq7", "cq8"}
        pe_instant = {"cq2", "cq4", "cq7", "cq8"}
        for name, text in questions:
            assert run_cq(hscd, name, text).status == (
                "instant" if name in hscd_instant else "requires_evolution"
            ), f"hscd {name}"
            assert run_cq(pe, name, text).status == (
                "instant" if name in pe_instant else "requires_evolution"
            ), f"pe {name}"


def test_c6_consistency_checks(capsys):
    with criterion(6, capsys):
        assert check_consistency(base_ontology()).is_consistent
        for name in ("scenario1_ecg.scn", "scenario2_chat.scn"):
            scenario = _load(name)
            run_scenario(scenario)
            assert check_consistency(scenario.registry.kb).is_consistent, name

        clash = parse_document(
            "CLASS Human\nCLASS Machine\nDISJOINT Human Machine\n"
            "INDIVIDUAL x TYPE Human\nINDIVIDUAL x TYPE Machine\n"
        )
        report = check_consistency(clash)
        assert len(report.disjointness_violations) == 1
        violation = report.disjointness_violations[0]
        assert (violation.individual, violation.first, violation.second) == (
            iri("x"), iri("Human"), iri("Machine")
        )

        doomed = parse_document(
            "CLASS Human\nCLASS Machine\nDISJOINT Human Machine\n"
            "CLASS Android SUBCLASSOF Human\nCLASS Android SUBCLASSOF Machine\n"
        )
        report = check_consistency(doomed)
        assert report.unsatisfiable_classes == [iri("Android")]


def test_c7_metaproperty_checks(capsys):
    with criterion(7, capsys):
        assert check_ontoclean(base_ontology()) == []

        fixtures = (
            ("META Parent ~R\nMETA Child +R\n", "~R"),
            ("META Parent ~U\nMETA Child\n", "~U"),
            ("META Parent +I\nMETA Child\n", "+I"),
            ("META Parent +U\nMETA Child\n", "+U"),
        )
        for meta_lines, flag in fixtures:
            kb = parse_document("CLASS Parent\nCLASS Child SUBCLASSOF Parent\n" + meta_lines)
            violations = check_ontoclean(kb)
            assert [(v.child, v.parent, v.flag) for v in violations] == [
                (iri("Child"), iri("Parent"), flag)
            ], flag


def test_c8_automation_level_properties(capsys):
    with criterion(8, capsys):
        def machine_task(tid, weight, category=Category.SKILL):
            return TaskSpec(tid, category, Decimal(weight), Assignee.MACHINE)

        def human_task(tid, weight, category=Category.EXPERTISE):
            return TaskSpec(tid, category, Decimal(weight), Assignee.HUMAN)

        assert loa([machine_task("a", 3), machine_task("b", 2)]) == Decimal("1")
        assert loa([human_task("a", 3), human_task("b", 2)]) == Decimal("0")
        assert str(loa([human_task("a", 1), machine_task("b", 3)])) == "0.7500"
        assert str(loa_weighted([
            TaskSpec("a", Category.SKILL, Decimal(1), Assignee.MACHINE),
            TaskSpec("b", Category.EXPERTISE, Decimal(1), Assignee.HUMAN),
        ])) == "0.2000"

        # range, shuffle/scale invariance, flip monotonicity, weighted oracle
        assert run_randomized_cases(500, 20260825) == 500

        # equal category weights make the weighted form collapse to task counting
        import random

        rng = random.Random(99)
        flat = CategoryWeights(*(Decimal(2),) * 4)
        categories = list(Category)
        for _ in range(300):
            tasks = [
                TaskSpec(f"t{i}", rng.choice(categories), Decimal(rng.randint(1, 9)),
                         rng.choice((Assignee.HUMAN, Assignee.MACHINE)))
                for i in range(rng.randint(1, 8))
            ]
            counted = oracle_value((1, t.assignee) for t in tasks)
            assert loa_weighted(tasks, flat) == counted


def test_c9_query_engine_against_brute_force(capsys):
    with criterion(9, capsys):
        started = time.perf_counter()
        assert run_randomized_comparison(1000, 20260825) == 1000
        assert time.perf_counter() - started < 30.0


def test_c10_round_trips_and_trace_stability(capsys):
    with criterion(10, capsys):
        base = base_ontology()
        assert parse_document(serialize(base)) == base
        assert parse_document(base_kb_text()) == base

        for name in ("scenario1_ecg.scn", "scenario2_chat.scn"):
            scenario = _load(name)
            first = run_scenario(scenario).trace.to_tsv()
            kb = scenario.registry.kb
            assert parse_document(serialize(kb)) == kb, name
            second = run_scenario(_load(name)).trace.to_tsv()
            assert first == second, name
