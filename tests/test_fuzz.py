"""Input contracts under generated input: every reader and the command line.

Each reader may reject its input only with a ``SoaHitlcpsError`` (a scenario
loader may also raise ``OSError`` for a file it names).  The command line
exits 0, 1 or 2 and never prints a traceback.  Every graph a scenario run
leaves behind, and every graph a parsed capability or profile is written
into, serializes to a document that parses back to it.  The ``.kb`` reader
agrees with the positioned-token reader in ``kb_oracle`` on every document:
the same graph, or the same error at the same line and column.

Inputs are the shipped files with a few words or lines replaced, inserted or
deleted, and short documents of each format's own words.  Hypothesis runs
derandomized and without an example database, so every run tries the same
inputs and none writes to the working tree.  The ``@example`` inputs are defects these
contracts once let through.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import kb_oracle
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import soa_hitlcps
from soa_hitlcps.allocation import parse_task_file
from soa_hitlcps.broker import ServiceBroker, parse_discovery_request
from soa_hitlcps.cli import main
from soa_hitlcps.errors import EmptyCriteriaError, ParseError, SoaHitlcpsError
from soa_hitlcps import kb as kb_module
from soa_hitlcps.kb import iri, line_words, parse_document, read_document, serialize
from soa_hitlcps.query import evaluate, parse_query
from soa_hitlcps.reasoner import materialize
from soa_hitlcps.registry import ServiceRegistry
from soa_hitlcps.schema import (
    parse_flat_limitation,
    parse_flat_pattern,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
)
from soa_hitlcps.simulator import load_scenario, run_scenario

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(FUZZ, max_examples=25)  # each example loads and runs a scenario

SCENARIOS = Path(soa_hitlcps.__file__).resolve().parent / "data" / "scenarios"
DATA = SCENARIOS.parent

NAMES = (
    "Adam", "Cathy", "David", "Sisy", "EcgDev", "Andy", "Nia", "chatDoctor", "chatbotService", "ecgAlert",
    "actuatingBySisy", "Psychology", "Monitoring", "Complex_Problem_Solving", "Medicine_and_Dentistry",
    "HeadDiscomfort", "siteA", "clinic", "PhysicalThing", "Human", "Service", "Output", "presents",
    "hasContext", "advisedBy", "soa-hitlcps:Adam", "zz:Adam", "Head/Discomfort", "9x", "Café", "a", "x.y-z",
)
NUMBERS = ("0", "1", "3", "5", "7", "-1", "4.5", "-0.0", "1e2", "Infinity", "NaN", "+1", ".5", "5.", "1_0",
           "²", "٣", "9" * 40)
MARKS = ("?x", "?patient", "?consumer", "(", ")", '"', '""', '"a b"', "#", "=", ",", ":", ".", "@from")
FILES = ("adam.cap", "cathy.cap", "david.cap", "sisy.cap", "ecgdev.cap", "chat_doctor.srv",
         "chatbot_service.srv", "ecg_alert.srv", "missing.cap", "nested/none.srv")

odd = st.text(alphabet='aZ09_:.-/?=,#"()+²٣é\\', min_size=1, max_size=6)


def _words(*vocabularies) -> st.SearchStrategy:
    pool = tuple(word for vocabulary in vocabularies for word in vocabulary)
    return st.one_of(st.sampled_from(pool + NAMES + NUMBERS + MARKS), odd)


def _pairs(keys, values) -> st.SearchStrategy:
    return st.tuples(st.sampled_from(keys), values).map("=".join)


def _lines(keywords, words) -> st.SearchStrategy:
    line = st.tuples(st.sampled_from(keywords), st.lists(words, max_size=6))
    return line.map(lambda parts: " ".join((parts[0], *parts[1])))


def _document(keywords, words, base: str = "") -> st.SearchStrategy:
    """Short documents of a format's words, and ``base`` with a few edits."""
    lines = _lines(keywords, words)
    fresh = st.lists(lines, max_size=8).map("\n".join)
    if not base:
        return fresh
    edit = st.tuples(st.sampled_from(("word", "line", "drop")), st.integers(0, 99), st.integers(0, 9),
                     words, lines)
    return st.one_of(fresh, st.lists(edit, min_size=1, max_size=4).map(lambda edits: _edited(base, edits)))


def _edited(base: str, edits) -> str:
    lines = base.splitlines()
    for kind, at, position, word, line in edits:
        at %= len(lines) + 1
        if kind == "line" or at == len(lines):
            lines.insert(at, line)
        elif kind == "drop":
            del lines[at]
        else:
            words = lines[at].split() or [""]
            words[position % len(words)] = word
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


def _shipped(name: str) -> str:
    return (SCENARIOS / name).read_text(encoding="utf-8")


KB_WORDS = _words(("CLASS", "SUBCLASSOF", "DOMAIN", "RANGE", "TYPE", "AND", "SOME", "+R", "~R", "+I", "-U"))
KB_KEYWORDS = ("@prefix", "CLASS", "PROPERTY", "DISJOINT", "AXIOM", "INDIVIDUAL", "FACT", "META", "zz:")
KB_BASE = (
    "@prefix ex: http://example.org/x#\nCLASS Human SUBCLASSOF PhysicalThing\nCLASS ex:Robot\n"
    "PROPERTY hasContext DOMAIN PhysicalThing RANGE Context\nDISJOINT Human ex:Robot\n"
    "AXIOM ( ( PhysicalThing AND Human ) AND ( hasContext SOME Context ) ) SUBCLASSOF Human\n"
    "INDIVIDUAL Adam TYPE Human\nFACT Adam hasContext clinic\nFACT Adam hasContext 4.50\n"
    'FACT Adam hasContext "a \\"quoted\\" text"\nMETA Human +R +I\n'
)
CAP_KEYWORDS = ("SKILL", "KNOWLEDGE", "ABILITY", "PERFORMANCE", "EDUCATION", "PREFERENCE", "CONTEXT",
                "HARDWARE", "SOFTWARE", "PROGRAMMED_SKILL", "LEARNED")
CAP_WORDS = _words(("Active_Listening", "Oral_Expression", "Dependability", "Doctoral_Degree", "location"))
QOS = _pairs(("reputation", "cost", "response_time", "speed"), _words(()))
SRV_KEYWORDS = ("SERVICE", "PROVIDER", "KIND", "COMPOSITE", "INPUT", "OUTPUT", "PRECONDITION", "EFFECT",
                "CONTEXT", "CAPABILITY", "QOS", "PARALLELISM", "LIMITATION", "DECLARE")
SRV_WORDS = st.one_of(_words(("ADD", "DEL", "processing", "sensing", "composite", "time_window",
                              "max_distance", "location", "condition")), QOS)
TASK_WORDS = _words(("t1", "t2", "skill", "rule", "knowledge", "expertise", "WEIGHT", "ASSIGNEE",
                     "human", "machine"))
CRITERIA = _pairs(("skill", "knowledge", "ability", "context", "kind", "input", "output",
                   "qos.min_reputation", "qos.max_cost", "qos.max_response_time", "colour", ""),
                  st.one_of(_words(("processing", "composite", "Monitoring:5", "soa-hitlcps:Active_Listening:5",
                                    "Monitoring:²", "Complex_Problem_Solving:6,Active_Listening:5")),
                            st.lists(st.sampled_from(NAMES), min_size=2, max_size=3).map(",".join)))
REQUESTS = st.one_of(
    st.lists(CRITERIA, max_size=4).map(lambda words: " ".join(("DISCOVER", *words))),
    _document(("DISCOVER", "FIND"), st.one_of(CRITERIA, _words(()))),
)
QUERY_WORDS = _words(("SELECT", "WHERE", "{", "}", "FILTER", "IN", "&&", "||", "?s", "?p", "?o", "a",
                      "soa-hitlcps:Human", "zz:Human"))
QUERY_BASE = ("SELECT ?x ?c WHERE {\n  ?x a Human .\n  ?x hasContext ?c  # where\n"
              "  FILTER (?c = clinic || ?c IN (siteA, siteB) && ?x = Adam)\n}\n")
SCN_KEYWORDS = ("NODE", "SERVICE", "RULE", "AT", "EXPECT")
SCN_WORDS = _words(FILES + ("HUMAN", "MACHINE", "WHEN", "THEN", "REQUEST", "MESSAGE", "SIGNAL", "TICK",
                            "COUNT", "CONTAINS", "ORDER", "NONE_AFTER", "answer", "discover", "rate",
                            "invoke-requested", "acquire-knowledge", "complete-sessions", "event=signal",
                            "event=message,topic-known=no", "signal=loss_of_signal", "rating=4",
                            "rating=Infinity", "service=ecgAlert", "skill=Monitoring", "context=siteA",
                            "invoke=yes", "inputs=patient:@from", "inputs=patient:Andy", "notify=ecgAlert",
                            "knowledge=Psychology,zz:Topic", "upset", "execute"))
SCENARIO_TEXTS = st.one_of(_document(SCN_KEYWORDS, SCN_WORDS, _shipped("scenario1_ecg.scn")),
                           _document(SCN_KEYWORDS, SCN_WORDS, _shipped("scenario2_chat.scn")))


def _domain(call, *args):
    """``call(*args)``, or None when it rejects them with a domain error."""
    try:
        return call(*args)
    except SoaHitlcpsError:
        return None


def _assert_graph_parses_back(kb) -> None:
    assert parse_document(serialize(kb)) == kb


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory) -> Path:
    """A directory holding every shipped capability and profile file."""
    directory = tmp_path_factory.mktemp("scenarios")
    for path in SCENARIOS.iterdir():
        shutil.copy(path, directory / path.name)
    return directory


@pytest.fixture(scope="module")
def world(scenario_files) -> Path:
    path = scenario_files / "world.kb"
    path.write_text(serialize(load_scenario(_shipped("scenario2_chat.scn"), SCENARIOS).registry.kb),
                    encoding="utf-8")
    return path


def _cli(argv) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue()
    return code, stderr.getvalue()


# -- readers ---------------------------------------------------------------------------------


@FUZZ
@given(_document(KB_KEYWORDS, KB_WORDS, KB_BASE))
@example(f"PROPERTY p DOMAIN A RANGE A\nFACT x p {'1' * 5000}\n")
def test_parse_document(text):
    kb = _domain(parse_document, text)
    if kb is not None:
        _assert_graph_parses_back(kb)


def _read_outcome(parse, text):
    """The graph ``parse`` reads, or the type of its error with the error's position or message."""
    try:
        return parse(text)
    except ParseError as err:
        return ParseError, err.line, err.column, err.expected
    except SoaHitlcpsError as err:
        return type(err), str(err)


# ASCII and Unicode whitespace, which the line readers split on as their regexes' \s does.
SPACES = (" ", "\t", "\xa0", "\u2003", "\u3000")
KB_INDENTED = st.tuples(_document(KB_KEYWORDS, KB_WORDS, KB_BASE), st.sampled_from(("", " ", "\t  ", "\u3000")),
                        st.sampled_from(SPACES + (" \t",))).map(
    lambda parts: "\n".join(parts[1] + parts[2].join(line.split(" ")) for line in parts[0].splitlines()))


@settings(FUZZ, max_examples=300)
@given(st.text(alphabet=st.sampled_from(tuple("aZ09_-.:é") + ('"', "\\", "(", ")", "#") + SPACES), max_size=24))
@example('FACT\u3000a\xa0p "b\\" c"\t( d)')
def test_line_readers_split_as_their_regexes(line):
    """Lines with no quote (and, in .kb, no parenthesis) skip the regex and get the same words."""
    assert kb_module._kb_words(line) == kb_module._TOKEN_RE.findall(line)
    assert line_words(line) == kb_module._WORD_RE.findall(line)


@settings(FUZZ, max_examples=300)
@given(st.one_of(_document(KB_KEYWORDS, KB_WORDS, KB_BASE), KB_INDENTED), st.booleans())
@example('PROPERTY p DOMAIN A RANGE A\nFACT a p "abc\\ #x\n', False)
@example("CLASS B#c\n", False)
@example('CLASS "a#b"\n', False)
@example("AXIOM (#\n", False)
@example("AXIOM " + "( " * 101 + "A" + " )" * 101 + " SUBCLASSOF B\n", False)
@example('PROPERTY p DOMAIN A RANGE A\nFACT a p "abc\n', False)
@example("PROPERTY p DOMAIN A RANGE A\nFACT a p\n", False)
@example("PROPERTY p DOMAIN A RANGE A\nFACT a p b c\n", False)
@example("INDIVIDUAL a TYPE\n", False)
@example("INDIVIDUAL a TYPE C D\n", False)
@example("INDIVIDUAL a KIND C\n", False)
@example("PROPERTY p DOMAIN A RANGE A\n  FACT a q b\n", False)
@example("PROPERTY p DOMAIN A RANGE A\nFACT a p b\nFACT zz:a p b\nFACT b p zz:a\n", False)
@example("PROPERTY p DOMAIN A RANGE A\nFACT a p zz:b # a comment\nINDIVIDUAL zz:b TYPE A\n", True)
@example(serialize(load_scenario(_shipped("scenario2_chat.scn"), SCENARIOS).registry.kb), True)
def test_parse_document_matches_positioned_reader(text, on_base):
    """The word reader agrees with the positioned-token reader: the same graph or the same error."""
    text = KB_BASE + text if on_base else text
    assert _read_outcome(parse_document, text) == _read_outcome(kb_oracle.parse_document, text)


@FUZZ
@given(_document(("SELECT", "WHERE", "FILTER", "?x"), QUERY_WORDS, QUERY_BASE))
@example("SELECT ?x WHERE { ?x a Café }")
def test_parse_query(text):
    ast = _domain(parse_query, text)
    if ast is not None:
        _domain(evaluate, materialize(parse_document("CLASS Human\n")), ast)


def _written(project) -> None:
    """Run ``project`` on a fresh registry; the graph it leaves must parse back."""
    registry = ServiceRegistry()
    registry.register_human(iri("David"), parse_human_capability("SKILL Monitoring 3\n")[0])
    _domain(project, registry)
    _assert_graph_parses_back(registry.kb)


@FUZZ
@given(st.one_of(_document(CAP_KEYWORDS, CAP_WORDS, _shipped("david.cap")),
                 _document(CAP_KEYWORDS, CAP_WORDS, _shipped("cathy.cap"))))
@example("SKILL Monitoring ٣\n")
def test_capability_files(text):
    human = _domain(parse_human_capability, text)
    if human is not None:
        _written(lambda registry: registry.register_human(iri("Nia"), *human))
    machine = _domain(parse_machine_capability, text)
    if machine is not None:
        _written(lambda registry: registry.register_machine(iri("Bot"), *machine))


@FUZZ
@given(st.one_of(_document(SRV_KEYWORDS, SRV_WORDS, _shipped("chat_doctor.srv")),
                 _document(SRV_KEYWORDS, SRV_WORDS, _shipped("actuating_by_sisy.srv"))))
@example("SERVICE s\nKIND processing\nQOS reputation=4 cost=1 response_time=Infinity\n")
@example("SERVICE s\nKIND processing\nLIMITATION max_distance 1e2 clinic\n")
def test_service_profiles(text):
    parsed = _domain(parse_service_profile, text)
    if parsed is not None:
        _written(lambda registry: registry.publish_service(parsed[0], iri("David")))


@FUZZ
@given(st.lists(st.one_of(_words(("time_window", "max_distance", "location", "condition", "a")), QOS),
                max_size=5).map(" ".join))
@example("")
@example("   ")
def test_graph_literal_decoders(text):
    _domain(parse_flat_pattern, text)
    _domain(parse_flat_limitation, text)


@FUZZ
@given(_document(("TASK",), TASK_WORDS, _shipped("ward.tasks")))
def test_parse_task_file(text):
    _domain(parse_task_file, text)


@FUZZ
@given(REQUESTS)
@example("DISCOVER skill=Monitoring:²")
def test_parse_discovery_request(text):
    request = _domain(parse_discovery_request, text)
    if request is not None:
        _domain(ServiceBroker(ServiceRegistry()).discover, request)


@SLOW
@given(SCENARIO_TEXTS)
@example("NODE zz:Adam HUMAN adam.cap\n")
@example("NODE Adam HUMAN adam.cap\nNODE Cathy MACHINE cathy.cap\n"
         "RULE Cathy WHEN event=message THEN acquire-knowledge\nAT 1 MESSAGE Adam Cathy q1 upset Head/Discomfort\n")
@example(_shipped("scenario1_ecg.scn").replace("patient:Andy", "patient:An/dy"))
@example(_shipped("scenario1_ecg.scn").replace("notify=ecgAlert", "notify=ecg/Alert"))
@example(_shipped("scenario1_ecg.scn").replace("rate service=ecgAlert", "rate service=ecg/Alert"))
@example(_shipped("scenario2_chat.scn").replace("patient:@from", "patient:@from,"))
@example(_shipped("scenario1_ecg.scn").replace("WHEN event=signal,signal=loss", "WHEN evnt=signal,signal=loss"))
@example(_shipped("scenario1_ecg.scn").replace("invoke=yes", "invoke=Yes"))
@example(_shipped("scenario1_ecg.scn").replace("context=siteA", "context=siteA kind=sensing"))
@example(_shipped("scenario1_ecg.scn").replace("THEN complete-sessions", "THEN complete-session"))
def test_load_and_run_scenario(scenario_files, text):
    """A scenario that loads has had every rule read: its run raises no parse error."""
    try:
        scenario = load_scenario(text, scenario_files)
    except (SoaHitlcpsError, OSError):
        return
    try:
        run_scenario(scenario)
    except (ParseError, EmptyCriteriaError) as err:
        pytest.fail(f"a rule was read while the scenario ran: {err!r}")
    except SoaHitlcpsError:
        pass
    _assert_graph_parses_back(scenario.registry.kb)


# -- command line ------------------------------------------------------------------------------


@SLOW
@given(REQUESTS)
@example("DISCOVER skill=Monitoring:²")
def test_cli_discover(world, text):
    _cli(["discover", world, text])


@SLOW
@given(_document(KB_KEYWORDS, KB_WORDS, read_document(DATA / "base.kb").replace("\n\n", "\n")))
@example(serialize(load_scenario(_shipped("scenario2_chat.scn"), SCENARIOS).registry.kb)
         + 'FACT chatDoctorProfile hasLimitation ""\n')
def test_cli_discover_on_any_graph(scenario_files, text):
    path = scenario_files / "fuzzed.kb"
    path.write_text(text, encoding="utf-8")
    _cli(["discover", path, "DISCOVER kind=processing"])


@SLOW
@given(_document(("SELECT", "WHERE", "FILTER", "?x"), QUERY_WORDS, QUERY_BASE))
def test_cli_query(scenario_files, world, text):
    path = scenario_files / "fuzzed.q"
    path.write_text(text, encoding="utf-8")
    _cli(["query", world, path])


@SLOW
@given(SCENARIO_TEXTS)
@example("NODE Nia HUMAN missing.cap\n")
def test_cli_simulate(scenario_files, text):
    path = scenario_files / "fuzzed.scn"
    path.write_text(text, encoding="utf-8")
    _cli(["simulate", path, "--trace"])
