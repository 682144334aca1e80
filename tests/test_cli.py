from pathlib import Path

import pytest

from soa_hitlcps.cli import build_parser, main
from soa_hitlcps.datafiles import base_kb_text, scenario_dir
from soa_hitlcps.kb import serialize
from soa_hitlcps.simulator import load_scenario

BASE_KB = Path(scenario_dir()).parent / "base.kb"

VIOLATION_KB = (
    "CLASS Human\nCLASS Machine\nDISJOINT Human Machine\n"
    "INDIVIDUAL x TYPE Human\nINDIVIDUAL x TYPE Machine\n"
)


@pytest.fixture(scope="module")
def world_kb(tmp_path_factory):
    directory = Path(scenario_dir())
    scenario = load_scenario(
        (directory / "scenario2_chat.scn").read_text(encoding="utf-8"), directory
    )
    path = tmp_path_factory.mktemp("world") / "world.kb"
    path.write_text(serialize(scenario.registry.kb), encoding="utf-8")
    return path


# -- validate -----------------------------------------------------------------


def test_validate_clean_kb(capsys):
    assert main(["validate", str(BASE_KB)]) == 0
    assert capsys.readouterr().out == "clean\n"


def test_validate_reports_disjointness(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text(VIOLATION_KB, encoding="utf-8")
    assert main(["validate", str(kb)]) == 1
    assert "VIOLATION disjointness x Human Machine" in capsys.readouterr().out


def test_validate_quiet_relies_on_exit_code(tmp_path, capsys):
    kb = tmp_path / "bad.kb"
    kb.write_text(VIOLATION_KB, encoding="utf-8")
    assert main(["--quiet", "validate", str(kb)]) == 1
    assert capsys.readouterr().out == ""


def test_validate_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nowhere/none.kb"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_validate_parse_error_is_domain_error(tmp_path, capsys):
    kb = tmp_path / "syntax.kb"
    kb.write_text("CLASS\n", encoding="utf-8")
    assert main(["validate", str(kb)]) == 1
    assert "ParseError" in capsys.readouterr().err


# -- reason / query -------------------------------------------------------------


def test_reason_prints_inferred_types(tmp_path, capsys):
    kb = tmp_path / "tiny.kb"
    kb.write_text("CLASS A SUBCLASSOF B\nINDIVIDUAL x TYPE A\n", encoding="utf-8")
    assert main(["reason", str(kb)]) == 0
    assert "INDIVIDUAL x TYPE B" in capsys.readouterr().out


def test_query_outputs_tsv(world_kb, tmp_path, capsys):
    q = tmp_path / "services.q"
    q.write_text("SELECT ?s WHERE { ?s a soa-hitlcps:Service }", encoding="utf-8")
    assert main(["query", str(world_kb), str(q)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "?s"
    assert "chatDoctor" in out and "chatbotService" in out


# -- metrics -------------------------------------------------------------------


def test_metrics_sections_on_base(capsys):
    assert main(["metrics", str(BASE_KB)]) == 0
    out = capsys.readouterr().out
    assert "[clarity]" in out
    assert "CRR 46 55 0.84" in out
    assert "no competency questions supplied" in out


def test_metrics_with_cq_dir(world_kb, capsys):
    cq_dir = Path(scenario_dir()).parent / "cq"
    assert main(["metrics", str(world_kb), "--cq-dir", str(cq_dir)]) == 0
    out = capsys.readouterr().out
    assert "cq5 instant rows=1" in out
    assert "cq6 instant rows=1" in out


def test_metrics_annotations_flag_adds_ontoclean(capsys):
    assert main(["metrics", str(BASE_KB), "--annotations"]) == 0
    assert "clean" in capsys.readouterr().out


# -- discover -------------------------------------------------------------------


def test_discover_with_literal_request(world_kb, capsys):
    spec = "DISCOVER skill=Complex_Problem_Solving knowledge=Medicine_and_Dentistry,Therapy_and_Counseling"
    assert main(["discover", str(world_kb), spec]) == 0
    assert capsys.readouterr().out == "chatDoctor\tDavid\t0.9042\n"


def test_discover_with_request_file(world_kb, tmp_path, capsys):
    req = tmp_path / "req.txt"
    req.write_text("DISCOVER context=siteA\n", encoding="utf-8")
    assert main(["discover", str(world_kb), str(req)]) == 0
    assert capsys.readouterr().out == ""  # the chat world has no siteA services


def test_discover_rejects_empty_criteria(world_kb, capsys):
    assert main(["discover", str(world_kb), "DISCOVER"]) == 1
    assert "EmptyCriteriaError" in capsys.readouterr().err


def test_discover_malformed_qos_bound_is_domain_error(world_kb, capsys):
    for bound in ("abc", "NaN"):
        assert main(["discover", str(world_kb), f"DISCOVER qos.max_cost={bound}"]) == 1
        err = capsys.readouterr().err
        assert "EmptyCriteriaError" in err and "Traceback" not in err


# -- simulate --------------------------------------------------------------------


def test_simulate_green_scenario(capsys):
    scn = Path(scenario_dir()) / "scenario1_ecg.scn"
    assert main(["simulate", str(scn)]) == 0
    out = capsys.readouterr().out
    assert "EXPECT COUNT discover 1: ok" in out


def test_simulate_trace_rows_have_five_columns(capsys):
    scn = Path(scenario_dir()) / "scenario2_chat.scn"
    assert main(["--quiet", "simulate", str(scn), "--trace"]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.rstrip("\n").split("\n")]
    assert all(len(row) == 5 for row in rows)
    assert ["3", "Cathy", "execute", "discover", "found=chatDoctor score=0.9042"] in rows


def test_simulate_failed_expectation_exits_one(tmp_path, capsys):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scn = tmp_path / "failing.scn"
    scn.write_text(
        "NODE Nia HUMAN n.cap\nAT 1 SIGNAL Nia ping\nEXPECT COUNT answer 1\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(scn)]) == 1
    captured = capsys.readouterr()
    assert "EXPECT COUNT answer 1: failed" in captured.err


def test_simulate_malformed_rating_is_domain_error(tmp_path, capsys):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scn = tmp_path / "bad_rating.scn"
    scn.write_text(
        "NODE Nia HUMAN n.cap\n"
        "RULE Nia WHEN event=signal THEN rate service=nothing rating=x\n"
        "AT 1 SIGNAL Nia ping\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(scn)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 2" in err and "Traceback" not in err


def test_simulate_rate_rule_without_rating_is_domain_error(tmp_path, capsys):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scn = tmp_path / "no_rating.scn"
    scn.write_text(
        "NODE Nia HUMAN n.cap\n"
        "RULE Nia WHEN event=signal THEN rate service=nothing\n"
        "AT 1 SIGNAL Nia ping\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(scn)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 2" in err and "Traceback" not in err


def test_simulate_rate_rule_without_service_is_domain_error(tmp_path, capsys):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scn = tmp_path / "no_service.scn"
    scn.write_text(
        "NODE Nia HUMAN n.cap\n"
        "RULE Nia WHEN event=signal THEN rate rating=4\n"
        "AT 1 SIGNAL Nia ping\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(scn)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 2" in err and "Traceback" not in err


def test_non_utf8_input_is_domain_error(tmp_path, capsys):
    kb = tmp_path / "latin1.kb"
    kb.write_bytes("CLASS Human\nCLASS Caf\u00e9\n".encode("latin-1"))
    assert main(["validate", str(kb)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 2, column 10" in err and "Traceback" not in err
    scn = tmp_path / "latin1.scn"
    scn.write_bytes("# caf\u00e9\n".encode("latin-1"))
    assert main(["simulate", str(scn)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 1" in err and "Traceback" not in err


def test_non_utf8_competency_question_is_domain_error(tmp_path, capsys):
    (tmp_path / "cq1.q").write_bytes("SELECT ?x\nWHERE { ?x a Caf\u00e9 }\n".encode("latin-1"))
    assert main(["metrics", str(BASE_KB), "--cq-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ParseError: line 2, column 17" in err and "Traceback" not in err


def test_simulate_missing_capability_file_is_usage_error(tmp_path, capsys):
    scn = tmp_path / "missing.scn"
    scn.write_text("NODE Alice HUMAN missing.cap\n", encoding="utf-8")
    assert main(["simulate", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cap" in err and "Traceback" not in err


def test_simulate_service_naming_a_directory_is_usage_error(tmp_path, capsys):
    scn = tmp_path / "directory.scn"
    scn.write_text("SERVICE .\n", encoding="utf-8")
    assert main(["simulate", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# -- loa ---------------------------------------------------------------------------


def test_loa_plain_and_weighted(tmp_path, capsys):
    tasks = tmp_path / "demo.tasks"
    tasks.write_text(
        "TASK a skill WEIGHT 1 ASSIGNEE machine\nTASK b expertise WEIGHT 1 ASSIGNEE human\n",
        encoding="utf-8",
    )
    assert main(["loa", str(tasks), "--category-weights", "1,2,3,4"]) == 0
    out = capsys.readouterr().out
    assert "loa 0.5000" in out
    assert "loa-weighted 0.2000" in out
    assert "default skill machine" in out
    assert "default expertise human-leads" in out


def test_loa_ships_a_worked_example(capsys):
    tasks = Path(scenario_dir()) / "ward.tasks"
    assert main(["loa", str(tasks)]) == 0
    assert "loa 0.6000" in capsys.readouterr().out


def test_loa_non_finite_task_weight_is_domain_error(tmp_path, capsys):
    tasks = tmp_path / "demo.tasks"
    for weight in ("NaN", "sNaN", "Infinity", "-Infinity"):
        tasks.write_text(
            f"TASK t0 rule WEIGHT 1 ASSIGNEE machine\nTASK t1 skill WEIGHT {weight} ASSIGNEE human\n",
            encoding="utf-8",
        )
        assert main(["loa", str(tasks)]) == 1
        err = capsys.readouterr().err
        assert "ParseError: line 2, column 1: expected a finite weight" in err and "Traceback" not in err


def test_loa_non_finite_category_weight_is_domain_error(tmp_path, capsys):
    tasks = tmp_path / "demo.tasks"
    tasks.write_text("TASK a skill WEIGHT 1 ASSIGNEE machine\n", encoding="utf-8")
    for spec in ("NaN,1,1,1", "1,1,1,sNaN", "1,2,3,Infinity"):
        assert main(["loa", str(tasks), "--category-weights", spec]) == 1
        err = capsys.readouterr().err
        assert "InvalidStateError: category weights must be finite" in err and "Traceback" not in err


def test_loa_bad_weights_are_usage_errors(tmp_path, capsys):
    tasks = tmp_path / "demo.tasks"
    tasks.write_text("TASK a skill WEIGHT 1 ASSIGNEE machine\n", encoding="utf-8")
    assert main(["loa", str(tasks), "--category-weights", "1,2"]) == 2
    assert "four comma-separated weights" in capsys.readouterr().err


def test_loa_help_carries_oversight_note():
    parser = build_parser()
    loa_parser = next(
        action for action in parser._subparsers._group_actions
    ).choices["loa"]
    assert "override, and take back control" in loa_parser.format_help()


# -- export-base ---------------------------------------------------------------------


def test_export_base_stdout_matches_bundled_text(capsys):
    assert main(["export-base"]) == 0
    assert capsys.readouterr().out == base_kb_text()


def test_export_base_to_file(tmp_path, capsys):
    out = tmp_path / "base.kb"
    assert main(["export-base", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == base_kb_text()
    assert f"wrote {out}" in capsys.readouterr().out


def test_export_base_to_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "nonexistent" / "dir" / "base.kb"
    assert main(["export-base", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == "" and not out.parent.exists()


# -- argparse plumbing ------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
