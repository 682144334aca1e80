"""Structural ratio, competency questions, and the aggregated report."""

from decimal import Decimal
from pathlib import Path

import pytest

import soa_hitlcps
from soa_hitlcps import datafiles
from soa_hitlcps.errors import UnknownPrefixError, ZeroRelationsError
from soa_hitlcps.kb import KnowledgeBase, iri, parse_document, read_document, serialize
from soa_hitlcps.metrics import (
    CqVerdict,
    CrrResult,
    INSTANT,
    REQUIRES_EVOLUTION,
    crr,
    eval_report,
    load_cq_dir,
    run_cq,
)
from soa_hitlcps.registry import ServiceRegistry
from soa_hitlcps.schema import base_ontology, parse_human_capability, parse_machine_capability, parse_service_profile

DATA = Path(soa_hitlcps.__file__).resolve().parent / "data"

DAVID_CAP = """\
SKILL Complex_Problem_Solving 6
KNOWLEDGE Medicine_and_Dentistry
ABILITY Oral_Comprehension 5
"""

CATHY_CAP = """\
PROGRAMMED_SKILL Conversational_Response
LEARNED ClinicServices
"""

CHAT_DOCTOR = """\
SERVICE chatDoctor
PROVIDER David
KIND processing
QOS reputation=4.5 cost=10 response_time=5
"""


def build_world():
    registry = ServiceRegistry()
    cap, _ = parse_human_capability(DAVID_CAP)
    registry.register_human(iri("David"), cap)
    registry.register_human(iri("Adam"), parse_human_capability("")[0])
    mcap, _ = parse_machine_capability(CATHY_CAP)
    registry.register_machine(iri("Cathy"), mcap)
    profile, provider = parse_service_profile(CHAT_DOCTOR)
    registry.publish_service(profile, provider)
    return registry


@pytest.fixture(scope="module")
def cq_files():
    return load_cq_dir(DATA / "cq")


# -- class-to-relation ratio -----------------------------------------------------


def test_crr_base_ontology():
    result = crr(base_ontology())
    assert result == CrrResult(46, 55, Decimal("0.84"))
    assert result.line() == "CRR 46 55 0.84"


def test_crr_fixture_ontologies():
    hscd = parse_document(read_document(DATA / "hscd.kb"))
    assert crr(hscd) == CrrResult(17, 16, Decimal("1.06"))
    pe = parse_document(read_document(DATA / "pe.kb"))
    assert crr(pe) == CrrResult(10, 9, Decimal("1.11"))


def test_crr_requires_relations():
    kb = KnowledgeBase()
    kb.add_class(iri("Lonely"))
    with pytest.raises(ZeroRelationsError):
        crr(kb)


def test_crr_rounds_half_up():
    kb = KnowledgeBase()
    for index in range(8):
        kb.add_property(iri(f"p{index}"), iri("A"), iri("A"))
    # 1 class / 8 relations = 0.125 -> 0.13 (a half-even rule would give 0.12)
    assert crr(kb).value == Decimal("0.13")


def test_shipped_base_matches_builder():
    shipped = parse_document(datafiles.base_kb_text())
    assert shipped == base_ontology()
    assert serialize(shipped) == datafiles.base_kb_text()


# -- competency questions -----------------------------------------------------------


def test_all_questions_instant_on_populated_base(cq_files):
    registry = build_world()
    assert [name for name, _ in cq_files] == [f"cq{i}" for i in range(1, 9)]
    for name, text in cq_files:
        verdict = run_cq(registry.kb, name, text)
        assert verdict.status == INSTANT, verdict
        assert len(verdict.rows) == 1, (name, verdict.rows)


def test_verdicts_on_directory_fixture(cq_files):
    hscd = parse_document(read_document(DATA / "hscd.kb"))
    verdicts = {name: run_cq(hscd, name, text) for name, text in cq_files}
    assert verdicts["cq1"].status == INSTANT          # Human exists, zero rows is fine
    assert verdicts["cq1"].rows == ()
    assert verdicts["cq2"].status == REQUIRES_EVOLUTION
    assert verdicts["cq2"].missing == (iri("Machine"),)
    assert verdicts["cq3"].missing == (iri("hasAbility"), iri("hasCapability"))
    assert verdicts["cq4"].status == INSTANT
    assert verdicts["cq5"].status == REQUIRES_EVOLUTION
    assert verdicts["cq5"].missing == (
        iri("hasHumanSkill"), iri("hasProperty"), iri("includeCapability"), iri("presents"),
    )
    assert verdicts["cq7"].status == INSTANT
    assert verdicts["cq8"].status == INSTANT


def test_verdicts_on_flat_fixture(cq_files):
    pe = parse_document(read_document(DATA / "pe.kb"))
    verdicts = {name: run_cq(pe, name, text) for name, text in cq_files}
    assert verdicts["cq1"].status == REQUIRES_EVOLUTION
    assert verdicts["cq1"].missing == (iri("Human"),)
    assert verdicts["cq2"].status == INSTANT
    assert verdicts["cq4"].status == INSTANT
    assert verdicts["cq7"].status == INSTANT


def test_instant_questions_see_inferred_types():
    kb = KnowledgeBase()
    kb.add_subclass(iri("B"), iri("A"))
    kb.add_type(iri("item"), iri("B"))
    verdict = run_cq(kb, "q", "SELECT ?x WHERE { ?x a A }")
    assert verdict.status == INSTANT
    assert verdict.rows == ((iri("item"),),)
    # the check ran on a materialized copy; the input kb is untouched
    assert kb.types_of(iri("item")) == {iri("B")}


def test_unknown_individuals_are_not_vocabulary():
    hscd = parse_document(read_document(DATA / "hscd.kb"))
    verdict = run_cq(hscd, "q", "SELECT ?x WHERE { ?x a Human FILTER (?x=MrNobody) }")
    assert verdict.status == INSTANT
    assert verdict.rows == ()


def test_only_vocabulary_names_have_their_prefix_checked_before_evolution_is_read():
    hscd = parse_document(read_document(DATA / "hscd.kb"))
    # a subject names an individual: its prefix is not checked, so the missing class still shows
    verdict = run_cq(hscd, "q", "SELECT ?y WHERE { zz:someone performs ?y . ?y a Unicorn }")
    assert (verdict.status, verdict.missing) == (REQUIRES_EVOLUTION, (iri("Unicorn"),))
    for query in ("SELECT ?y WHERE { ?x zz:performs ?y }", "SELECT ?x WHERE { ?x a zz:Unicorn }"):
        with pytest.raises(UnknownPrefixError, match="'zz'"):
            run_cq(hscd, "q", query)


def test_verdict_lines():
    assert CqVerdict("cq4", INSTANT, rows=((iri("s"),),)).line() == "cq4 instant rows=1"
    assert (
        CqVerdict("cq2", REQUIRES_EVOLUTION, missing=(iri("Machine"),)).line()
        == "cq2 requires_evolution missing=Machine"
    )


def test_load_cq_dir(tmp_path):
    (tmp_path / "b.q").write_text("SELECT ?x WHERE { ?x a Human }")
    (tmp_path / "a.q").write_text("SELECT ?x WHERE { ?x a Service }")
    (tmp_path / "ignored.txt").write_text("not a query")
    entries = load_cq_dir(tmp_path)
    assert [name for name, _ in entries] == ["a", "b"]


# -- aggregated report -----------------------------------------------------------------


def test_eval_report_sections(cq_files):
    report = eval_report(base_ontology(), cq_queries=cq_files)
    assert report.accuracy == ("PASS Human", "PASS HumanService")
    assert len(report.completeness) == 8
    assert all(INSTANT in line for line in report.completeness)
    assert report.clarity == ("CRR 46 55 0.84",)
    assert report.consistency == ("clean",)
    assert report.adaptability
    text = report.to_text()
    assert text.startswith("[accuracy]\nPASS Human\nPASS HumanService\n[completeness]\n")
    assert "[clarity]\nCRR 46 55 0.84\n[consistency]\nclean" in text
    assert ("clarity", "CRR 46 55 0.84") in [(name, line) for name, body in report.sections() for line in body]


def test_eval_report_on_populated_world(cq_files):
    registry = build_world()
    report = eval_report(registry.kb, cq_queries=cq_files)
    # the evolved graph declares extra instance-level properties, so the
    # ratio reflects that larger vocabulary
    assert report.clarity == (crr(registry.kb).line(),)
    assert all(INSTANT in line for line in report.completeness)
    assert report.consistency == ("clean",)


def test_eval_report_deterministic(cq_files):
    first = eval_report(build_world().kb, cq_queries=cq_files).to_text()
    second = eval_report(build_world().kb, cq_queries=cq_files).to_text()
    assert first == second


def test_eval_report_flags_violations():
    registry = build_world()
    registry.kb.add_type(iri("Adam"), iri("Machine"))  # Adam is already inferred Human
    report = eval_report(registry.kb)
    assert any("VIOLATION disjointness" in line for line in report.consistency)
    assert report.completeness == ("no competency questions supplied",)


def test_eval_report_without_annotations_skips_ontoclean():
    kb = KnowledgeBase()
    kb.add_subclass(iri("B"), iri("A"))
    kb.add_property(iri("p"), iri("A"), iri("B"))
    report = eval_report(kb)  # no annotation records anywhere: no ontoclean section errors
    assert report.consistency == ("clean",)
    assert report.accuracy == ("no class axioms",)


def test_an_axiom_check_meets_no_individual_of_the_kb():
    # the witness lives in a kb of the declarations only, so an individual
    # that shares its name does not hold the head before inference
    kb = parse_document("CLASS A SUBCLASSOF T\nCLASS B\nAXIOM ( A ) SUBCLASSOF B\n"
                        "INDIVIDUAL axiom_check_witness TYPE B\n")
    assert eval_report(kb).accuracy == ("PASS B",)
