"""Byte-for-byte outputs of the command line on bundled and malformed inputs.

``golden/cli.json`` maps each case name below to the exit code and the exact
stdout and stderr of ``cli.main`` (kept as lists of lines, so a diff shows
which line moved).  ``golden/<scenario>.kb`` holds the serialized registry a
bundled scenario loads.  A change that alters one of these outputs on purpose
regenerates the files in the same diff::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import soa_hitlcps
from soa_hitlcps.cli import main
from soa_hitlcps.kb import serialize
from soa_hitlcps.simulator import load_scenario

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(soa_hitlcps.__file__).resolve().parent / "data" / "scenarios"
DATA = SCENARIOS.parent
KB_FILES = ("base", "hscd", "pe")
SCENARIO_FILES = ("scenario1_ecg", "scenario2_chat")
WORLD = "scenario2_chat"  # the registry DISCOVER lines run against

DISCOVER_LINES = {
    "skill-and-knowledge": "DISCOVER skill=Complex_Problem_Solving knowledge=Medicine_and_Dentistry,Therapy_and_Counseling",
    "skill-scale-met": "DISCOVER skill=Complex_Problem_Solving:6",
    "skill-scale-unmet": "DISCOVER skill=Complex_Problem_Solving:7",
    "prefixed-skill-scale": "DISCOVER skill=soa-hitlcps:Active_Listening:5",
    "context": "DISCOVER context=clinic",
    "contexts-and-kind": "DISCOVER context=clinic,siteA kind=communicating",
    "kind-processing": "DISCOVER kind=processing",
    "kind-composite": "DISCOVER kind=composite",
    "knowledge-min-reputation": "DISCOVER knowledge=Medicine_and_Dentistry qos.min_reputation=4",
    "max-cost": "DISCOVER qos.max_cost=5",
    "max-response-time": "DISCOVER qos.max_response_time=2 context=clinic",
    "input-signature": "DISCOVER input=PhysicalThing",
    "ability": "DISCOVER ability=Oral_Comprehension",
}

MALFORMED_KB = {
    "subclassof-without-parent": "CLASS A SUBCLASSOF\n",
    "class-without-name": "CLASS\n",
    "class-bad-name": "CLASS 9A\n",
    "property-without-range": "PROPERTY p DOMAIN A RANGE\n",
    "fact-without-object": "CLASS A\nPROPERTY p DOMAIN A RANGE A\nFACT x p\n",
    "axiom-and-close": "CLASS A\nCLASS B\nAXIOM ( A AND ) SUBCLASSOF B\n",
    "axiom-open": "CLASS A\nAXIOM ( A\n",
    "prefix-without-colon": "@prefix ex http://example.org/x#\n",
    "prefix-empty-local": "@prefix ex: http://example.org/x#\nCLASS ex:\n",
    "unknown-prefix": "CLASS zz:A\n",
    "bad-meta-flag": "META A +Q\n",
    "trailing-token": "# leading comment\n\nINDIVIDUAL x TYPE A extra\n",
    "unknown-directive": "CLASS A  # trailing comment\nFROB x\n",
}

MALFORMED_QUERY = {
    "trailing-token": "SELECT ?x WHERE { ?x a Human } extra",
    "ends-mid-pattern": "SELECT ?x\nWHERE {\n    ?x a\n",
    "no-projection": "SELECT WHERE { ?x a Human }",
    "empty": "",
    "filter-missing-constant": "SELECT ?x WHERE { ?x a Human FILTER (?x = ) }",
    "filter-in-without-comma": "SELECT ?x WHERE { ?x a Human FILTER (?x IN (A B)) }",
    "filter-not-a-variable": "SELECT ?x WHERE { ?x a Human FILTER (x = A) }",
    "filter-bad-operator": "SELECT ?x WHERE { ?x a Human FILTER (?x ~ A) }",
    "bad-term": "SELECT ?x WHERE { ?x a 9B }",
    "no-pattern": "SELECT ?x WHERE { }",
    "unknown-prefix": "SELECT ?x WHERE { ?x a zz:Human }",
    "unbound-projection": "SELECT ?y WHERE { ?x a Human }",
}

# scenario, capability, profile and task files: (argv, files to write)
MALFORMED_FILES = {
    "scenario-bad-node-kind": (["simulate", "{tmp}/s.scn"], {"s.scn": "# c\n\nNODE Nia ROBOT n.cap\n"}),
    "scenario-bad-time": (["simulate", "{tmp}/s.scn"], {"s.scn": "AT x TICK\n"}),
    "scenario-bad-rule": (["simulate", "{tmp}/s.scn"], {"s.scn": "RULE Nia WHEN event=tick answer\n"}),
    "scenario-unknown-node": (["simulate", "{tmp}/s.scn"], {"s.scn": "RULE zz:Nia WHEN event=request THEN answer\n"}),
    "capability-bad-scale": (
        ["simulate", "{tmp}/s.scn"],
        {"s.scn": "NODE Nia HUMAN n.cap\n", "n.cap": "# c\nSKILL Monitoring x\n"},
    ),
    "capability-bad-name": (
        ["simulate", "{tmp}/s.scn"],
        {"s.scn": "NODE Nia HUMAN n.cap\n", "n.cap": "KNOWLEDGE 9Biology\n"},
    ),
    "profile-bad-kind": (
        ["simulate", "{tmp}/s.scn"],
        {"s.scn": "SERVICE p.srv\n", "p.srv": "SERVICE x\n  # c\nKIND teleport\n"},
    ),
    "tasks-negative-weight": (["loa", "{tmp}/t.tasks"], {"t.tasks": "\nTASK t1 skill WEIGHT -1 ASSIGNEE human\n"}),
    "tasks-bad-category": (["loa", "{tmp}/t.tasks"], {"t.tasks": "TASK t1 luck WEIGHT 1 ASSIGNEE human\n"}),
}

MALFORMED_DISCOVER = {
    "skill-bad-scale": "DISCOVER skill=Monitoring:x",
    "no-criteria": "DISCOVER",
    "empty-value": "DISCOVER skill=",
    "unknown-key": "DISCOVER colour=blue",
    "bad-qos": "DISCOVER qos.max_cost=abc",
    "not-discover": "FIND skill=Monitoring",
}


def _cases() -> dict:
    """Case name -> (argv with {data}/{tmp}/{world} placeholders, files to write)."""
    out = {}
    for kb in KB_FILES:
        path = f"{{data}}/{kb}.kb"
        out[f"reason {kb}"] = (["reason", path], {})
        out[f"validate {kb}"] = (["validate", path], {})
        out[f"metrics {kb}"] = (["metrics", path, "--cq-dir", "{data}/cq"], {})
        for cq in sorted(p.stem for p in (DATA / "cq").glob("*.q")):
            out[f"query {kb} {cq}"] = (["query", path, f"{{data}}/cq/{cq}.q"], {})
    for scenario in SCENARIO_FILES:
        out[f"simulate {scenario}"] = (["simulate", f"{{data}}/scenarios/{scenario}.scn", "--trace"], {})
    out["loa ward"] = (["loa", "{data}/scenarios/ward.tasks", "--category-weights", "1,2,3,4"], {})
    for name, line in {**DISCOVER_LINES, **MALFORMED_DISCOVER}.items():
        out[f"discover {name}"] = (["discover", "{world}", line], {})
    for name, text in MALFORMED_KB.items():
        out[f"malformed kb {name}"] = (["validate", "{tmp}/bad.kb"], {"bad.kb": text})
    for name, text in MALFORMED_QUERY.items():
        out[f"malformed query {name}"] = (["query", "{data}/base.kb", "{tmp}/bad.q"], {"bad.q": text})
    for name, (argv, files) in MALFORMED_FILES.items():
        out[f"malformed {name}"] = (argv, files)
    return out


CASES = _cases()


def scenario_kb(name: str) -> str:
    return serialize(load_scenario((SCENARIOS / f"{name}.scn").read_text(encoding="utf-8"), SCENARIOS).registry.kb)


def run_case(argv, files, tmp: Path, world: Path) -> dict:
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    places = {"data": str(DATA), "tmp": str(tmp), "world": str(world)}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(**places) for arg in argv])
    return {
        "exit": code,
        "stdout": stdout.getvalue().splitlines(keepends=True),
        "stderr": stderr.getvalue().splitlines(keepends=True),
    }


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("world") / "world.kb"
    path.write_text(scenario_kb(WORLD), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_every_case_has_an_expected_output(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path, world, expected):
    argv, files = CASES[name]
    assert run_case(argv, files, tmp_path, world) == expected[name]


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_scenario_registry_serializes_byte_identical(name):
    assert scenario_kb(name) == (GOLDEN / f"{name}.kb").read_text(encoding="utf-8")


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        tmp = Path(directory)
        world_path = tmp / "world.kb"
        world_path.write_text(scenario_kb(WORLD), encoding="utf-8")
        expected = {name: run_case(argv, files, tmp, world_path) for name, (argv, files) in CASES.items()}
    text = json.dumps(expected, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    (GOLDEN / "cli.json").write_text(text, encoding="utf-8")
    for name in SCENARIO_FILES:
        (GOLDEN / f"{name}.kb").write_text(scenario_kb(name), encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)
