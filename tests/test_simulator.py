import sys
from decimal import Decimal
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sim_oracle
import soa_hitlcps
from soa_hitlcps import simulator
from soa_hitlcps.errors import ParseError, UnknownNodeError, UnknownPrefixError, UnknownServiceError
from soa_hitlcps.kb import Iri, Pattern, Var, iri
from soa_hitlcps.query import join
from soa_hitlcps.registry import COMPLETED
from soa_hitlcps.schema import capability_node, knows
from soa_hitlcps.simulator import (
    NodeLoop,
    Rule,
    Scenario,
    SimEvent,
    Simulation,
    load_and_run,
    load_scenario,
    node_tick,
    run_scenario,
)

SCENARIOS = Path(soa_hitlcps.__file__).resolve().parent / "data" / "scenarios"


def _load(name):
    directory = SCENARIOS
    return load_scenario((directory / name).read_text(encoding="utf-8"), directory)


def raters(kb):
    """(service, rater) of every rating the graph holds."""
    patterns = (Pattern(Var("e"), iri("experienceOf"), Var("service")),
                Pattern(Var("e"), iri("ratedBy"), Var("rater")))
    return {(b["service"], b["rater"]) for b in join(kb, patterns, {})}


def _empty_scenario():
    from soa_hitlcps.registry import ServiceRegistry

    return Scenario(registry=ServiceRegistry(), nodes={}, events=[], expectations=[])


# -- node_tick in isolation ---------------------------------------------------


def test_node_tick_with_empty_inbox_emits_nothing():
    sim = Simulation(_empty_scenario())
    loop = NodeLoop(node=iri("Nia"))
    node_tick(sim, loop, 1)
    assert sim.trace.entries == []


def test_node_tick_without_matching_rule_logs_observation_only():
    sim = Simulation(_empty_scenario())
    loop = NodeLoop(node=iri("Nia"))
    loop.inbox.append(SimEvent(1, "signal", (("node", iri("Nia")), ("signal", "ping"))))
    node_tick(sim, loop, 1)
    phases = [(e.phase, e.action) for e in sim.trace.entries]
    assert phases == [("monitor", "observe"), ("analyze", "no-rule")]
    assert sim.trace.entries[0].detail == "signal=ping"


def test_node_tick_drains_the_inbox():
    sim = Simulation(_empty_scenario())
    loop = NodeLoop(node=iri("Nia"))
    loop.inbox.append(SimEvent(1, "signal", (("node", iri("Nia")), ("signal", "ping"))))
    node_tick(sim, loop, 1)
    assert loop.inbox == []
    node_tick(sim, loop, 2)
    assert len(sim.trace.entries) == 2


def test_an_event_reads_an_absent_field_as_none_and_keeps_its_monitor_row():
    event = SimEvent(1, "message", (("sender", iri("Adam")), ("recipient", iri("Cathy")), ("id", "m1"),
                                    ("sentiment", "upset"), ("topic", iri("Farewell"))))
    assert event.get("signal") is None
    assert event.get("sender") == iri("Adam")
    first = event.observation
    assert first == "from=Adam to=Cathy id=m1 sentiment=upset topic=Farewell"
    assert event.observation is first


def test_first_matching_rule_wins():
    sim = Simulation(_empty_scenario())
    rules = (
        Rule((("event", "signal"), ("signal", "other")), "answer", ""),
        Rule((("event", "signal"),), "acquire-knowledge", ""),
        Rule((("event", "signal"),), "answer", ""),
    )
    loop = NodeLoop(node=iri("Nia"), rules=rules)
    event = SimEvent(1, "signal", (("node", iri("Nia")), ("signal", "ping")))
    assert sim.match_rule(loop, event) is rules[1]


# -- the chat scenario -------------------------------------------------------


@pytest.fixture(scope="module")
def chat_run():
    scenario = _load("scenario2_chat.scn")
    return scenario, run_scenario(scenario)


def test_chat_scenario_meets_all_expectations(chat_run):
    _, result = chat_run
    failures = [c.line() for c in result.checks if not c.ok]
    assert result.all_ok, failures


def test_chat_scenario_delegates_exactly_once(chat_run):
    _, result = chat_run
    discoveries = [e for e in result.trace.entries if e.phase == "execute" and e.action == "discover"]
    assert len(discoveries) == 1
    assert discoveries[0].time == 3
    assert discoveries[0].detail == "found=chatDoctor score=0.9042"


def test_chat_scenario_answers_locally_after_learning(chat_run):
    _, result = chat_run
    acquired = [e for e in result.trace.entries if e.action == "acquire-knowledge" and e.phase == "execute"]
    assert [e.time for e in acquired] == [4]
    late_answers = [e for e in result.trace.entries
                    if e.phase == "execute" and e.action == "answer" and e.time == 5]
    assert len(late_answers) == 1
    assert "topic=HeadDiscomfort" in late_answers[0].detail
    assert not any(e.action == "discover" and e.phase == "execute" and e.time > 3
                   for e in result.trace.entries)


def test_chat_scenario_applies_completion_effects(chat_run):
    scenario, _ = chat_run
    kb = scenario.registry.kb
    assert kb.match(Pattern(iri("Adam"), iri("advisedBy"), iri("David")))
    assert kb.match(Pattern(iri("Adam"), iri("consumes"), iri("chatbotService")))


def test_chat_scenario_records_ratings_for_both_services(chat_run):
    scenario, _ = chat_run
    registry = scenario.registry
    assert str(registry.reputation_of(iri("chatDoctor"))) == "5.00"
    assert str(registry.reputation_of(iri("chatbotService"))) == "5.00"
    assert (iri("chatbotService"), iri("Adam")) in raters(registry.kb)
    assert (iri("chatDoctor"), iri("Cathy")) in raters(registry.kb)


def test_chat_scenario_shares_messages_with_open_sessions(chat_run):
    _, result = chat_run
    observers_at_5 = {e.node for e in result.trace.entries if e.time == 5 and e.phase == "monitor"}
    assert observers_at_5 == {"Cathy", "David"}


def test_chat_scenario_invocations_all_terminal(chat_run):
    scenario, _ = chat_run
    assert [inv.status for inv in scenario.registry.invocations] == [COMPLETED, COMPLETED]


@pytest.mark.parametrize("name", ["scenario1_ecg.scn", "scenario2_chat.scn"])
def test_loading_a_scenario_reads_no_index(name):
    # Registration and publication check the graph by set lookups only, so
    # the S/P/O index is first built when the run reads it.
    assert _load(name).registry.kb._index is None


def _generated(seed, directory):
    """The benchmark's generated chat scenario for ``seed``, loaded from files written to ``directory``."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workload_gen

    for name, text in workload_gen.build_scenario(seed).files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return load_scenario((directory / "chat.scn").read_text(encoding="utf-8"), directory)


_BUILT_AT_FIRST_READ = {"get", "observation"}  # what a SimEvent keeps in its __dict__ once read


@pytest.mark.parametrize("name", ["scenario1_ecg.scn", "scenario2_chat.scn", "generated"])
def test_loading_a_scenario_builds_no_event_field_map_or_monitor_row(tmp_path, name):
    # Building them at load would move their objects, and the collections they
    # set off, into the set-up and the first event time.
    scenario = _generated(1, tmp_path) if name == "generated" else _load(name)
    sim = Simulation(scenario)
    assert not any(_BUILT_AT_FIRST_READ & vars(event).keys() for event in scenario.events)
    sim.run()
    assert any(_BUILT_AT_FIRST_READ <= vars(event).keys() for event in scenario.events)


_KNOWLEDGE_LINKS = {iri("hasHumanKnowledge"), iri("hasLearnedKnowledge")}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_knows_reads_what_a_scan_of_the_statements_finds(tmp_path, seed):
    sim = Simulation(_generated(seed, tmp_path))
    kb = sim.registry.kb
    topics = {event.get("topic") for event in sim.events if event.kind == "message"}
    topics |= {s.object for s in kb.statements if s.predicate in _KNOWLEDGE_LINKS}
    seen = set()
    for time, batch in groupby(sim.events, key=lambda event: event.time):
        for event in batch:
            sim.deliver(event)
        sim.tick(time)
        scanned = {(s.subject, s.object) for s in kb.statements if s.predicate in _KNOWLEDGE_LINKS}
        for node in sim.nodes:
            for topic in topics:
                held = (capability_node(node), topic) in scanned
                assert knows(kb, node, topic) == held, (time, node, topic)
                seen.add((node, topic, held))
    # both answers occur, and some pair turns from unknown to known during the run
    assert any(held for _, _, held in seen) and any(not held for _, _, held in seen)
    assert any((node, topic, True) in seen and (node, topic, False) in seen for node, topic, _ in seen)


# -- the monitoring scenario ----------------------------------------------------


@pytest.fixture(scope="module")
def ecg_run():
    scenario = _load("scenario1_ecg.scn")
    return scenario, run_scenario(scenario)


def test_ecg_scenario_meets_all_expectations(ecg_run):
    _, result = ecg_run
    failures = [c.line() for c in result.checks if not c.ok]
    assert result.all_ok, failures


def test_ecg_scenario_discovers_the_site_nurse(ecg_run):
    _, result = ecg_run
    found = [e for e in result.trace.entries if e.phase == "execute" and e.action == "discover"]
    assert [e.detail for e in found] == ["found=actuatingBySisy score=0.8458"]


def test_ecg_scenario_alerts_the_discovered_provider(ecg_run):
    _, result = ecg_run
    notify = [e for e in result.trace.entries if e.phase == "execute" and e.action == "notify"]
    assert len(notify) == 1
    assert "service=ecgAlert" in notify[0].detail
    assert "consumer=Sisy" in notify[0].detail


def test_ecg_scenario_rates_in_both_directions(ecg_run):
    scenario, _ = ecg_run
    assert (iri("actuatingBySisy"), iri("EcgDev")) in raters(scenario.registry.kb)
    assert (iri("ecgAlert"), iri("Sisy")) in raters(scenario.registry.kb)


def test_ecg_scenario_applies_care_effect(ecg_run):
    scenario, _ = ecg_run
    kb = scenario.registry.kb
    assert kb.match(Pattern(iri("Andy"), iri("caredBy"), iri("Sisy")))


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["scenario1_ecg.scn", "scenario2_chat.scn"])
def test_traces_are_byte_identical_across_runs(name):
    first = run_scenario(_load(name)).trace.to_tsv()
    second = run_scenario(_load(name)).trace.to_tsv()
    assert first == second
    assert first.endswith("\n")
    for line in first.rstrip("\n").split("\n"):
        assert len(line.split("\t")) == 5


def test_load_and_run_helper_matches_manual_flow():
    directory = SCENARIOS
    via_helper = load_and_run(directory / "scenario1_ecg.scn")
    manual = run_scenario(_load("scenario1_ecg.scn"))
    assert via_helper.trace.to_tsv() == manual.trace.to_tsv()
    assert via_helper.all_ok


# -- parsing and error handling ---------------------------------------------------


def test_rule_for_unknown_node_is_rejected(tmp_path):
    with pytest.raises(UnknownNodeError):
        load_scenario("RULE Ghost WHEN event=signal THEN answer\n", tmp_path)


def test_unknown_directive_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError) as err:
        load_scenario("HELLO world\n", tmp_path)
    assert err.value.line == 1


def test_malformed_event_reports_its_line(tmp_path):
    with pytest.raises(ParseError) as err:
        load_scenario("\n\nAT 1 MESSAGE onlyone\n", tmp_path)
    assert err.value.line == 3


def test_request_for_unknown_service_fails_at_delivery(tmp_path):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scenario = load_scenario(
        "NODE Nia HUMAN n.cap\nAT 1 REQUEST Nia missingService\n", tmp_path
    )
    with pytest.raises(UnknownServiceError):
        run_scenario(scenario)


def test_tick_events_advance_time_without_trace_rows(tmp_path):
    (tmp_path / "n.cap").write_text("PERFORMANCE Dependability 3\n", encoding="utf-8")
    scenario = load_scenario(
        "NODE Nia HUMAN n.cap\nAT 1 TICK\nAT 2 SIGNAL Nia ping\nAT 9 TICK\n"
        "EXPECT NONE_AFTER 2 answer\n",
        tmp_path,
    )
    result = run_scenario(scenario)
    assert result.all_ok
    assert [e.time for e in result.trace.entries] == [2, 2]


def test_comments_and_blank_lines_are_ignored(tmp_path):
    scenario = load_scenario("# nothing here\n\n   # indented comment\n", tmp_path)
    assert scenario.nodes == {} and scenario.events == []


# -- names, numbers and actions that other tests do not reach ----------------------------

NIA_DAVID = {
    "n.cap": "PERFORMANCE Dependability 3\n",
    "d.cap": "SKILL Complex_Problem_Solving 6\n",
    "p.srv": "SERVICE consult\nPROVIDER David\nKIND processing\nQOS reputation=4 cost=1 response_time=1\n",
}


def _write(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


def test_rate_falls_back_to_the_last_completed_invocation_then_skips(tmp_path):
    _write(tmp_path, NIA_DAVID)
    scenario = load_scenario(
        "NODE Nia HUMAN n.cap\nNODE David HUMAN d.cap\nSERVICE p.srv\n"
        "RULE David WHEN event=request THEN invoke-requested\n"
        "RULE Nia WHEN signal=done THEN complete-sessions\n"
        "RULE Nia WHEN signal=rate THEN rate service=consult rating=3\n"
        "RULE Nia WHEN signal=look THEN discover skill=Monitoring knowledge=Psychology\n"
        "AT 1 REQUEST Nia consult\nAT 2 SIGNAL Nia done\nAT 3 SIGNAL Nia rate\nAT 4 SIGNAL Nia rate\n"
        "AT 5 SIGNAL Nia look\n",
        tmp_path,
    )
    result = run_scenario(scenario)
    executed = [(e.time, e.action, e.detail) for e in result.trace.entries if e.phase == "execute"]
    assert executed == [
        (1, "invoke-requested", "service=consult consumer=Nia invocation=1 status=running"),
        (2, "complete", "service=consult consumer=Nia"),
        (3, "rate", "service=consult rating=3"),
        (4, "rate", "service=consult rating=3 skipped=no-invocation"),
        (5, "discover", "found=none"),
    ]
    assert [e.detail for e in result.trace.entries if e.phase == "plan" and e.action == "discover"] == [
        "skill=Monitoring knowledge=Psychology"]
    assert scenario.registry.reputation_of(iri("consult")) == Decimal("3.00")


@pytest.mark.parametrize("line, error", [
    ("NODE zz:Nia HUMAN n.cap", UnknownPrefixError),
    ("NODE Ni/a HUMAN n.cap", ParseError),
    ("AT 1 REQUEST zz:Nia consult", UnknownPrefixError),
    ("AT 1 MESSAGE Nia David q1 upset Head/Discomfort", ParseError),
    ("AT 1 MESSAGE Nia David q1 upset zz:Head", UnknownPrefixError),
    ("AT 1 MESSAGE Nia/x David q1 upset Head", ParseError),
    ("AT 1 SIGNAL Ni/a ping", ParseError),
    ("AT ٣ TICK", ParseError),
    ("AT +1 TICK", ParseError),
    ("EXPECT COUNT answer 1e0", ParseError),
    ("RULE Nia WHEN event=signal THEN rate service=consult rating=Infinity", ParseError),
    ("RULE Nia WHEN event=signal THEN rate service=consult rating=.5", ParseError),
    ("RULE Nia WHEN event=signal THEN rate service=consult rating=5.01", ParseError),
    ("RULE Nia WHEN event=signal THEN complete-sessions rating=7", ParseError),
    ("RULE Nia WHEN event=signal THEN complete-sessions rating=-1", ParseError),
    # every part of a rule is read at its line, not when the rule fires
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring invoke=yes inputs=patient:An/dy", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring invoke=yes inputs=patient:zz:Andy",
     UnknownPrefixError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring invoke=yes inputs=:Andy", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring notify=ecg/Alert", ParseError),
    ("RULE Nia WHEN event=signal THEN rate service=con/sult rating=3", ParseError),
    ("RULE Nia WHEN evnt=signal THEN answer", ParseError),
    ("RULE Nia WHEN event=signals THEN answer", ParseError),
    ("RULE Nia WHEN event=tick THEN answer", ParseError),  # no tick reaches a node's inbox
    ("RULE Nia WHEN event=signal, THEN answer", ParseError),
    ("RULE Nia WHEN topic-known=maybe THEN answer", ParseError),
    ("RULE Nia WHEN from-provider=Yes THEN answer", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring invoke=Yes", ParseError),
    ("RULE Nia WHEN event=signal THEN complete-session", ParseError),
    ("RULE Nia WHEN event=signal THEN answer rating=5", ParseError),
    ("RULE Nia WHEN event=signal THEN complete-sessions rating=5 rating=4", ParseError),
    ("RULE Nia WHEN event=signal THEN complete-sessions =5", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring skill=Psychology", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring colour=red", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring rating=5", ParseError),
    ("RULE Nia WHEN event=signal THEN discover skill=Monitoring qos.max_cost=NaN", ParseError),
    ("RULE Nia WHEN event=signal THEN discover invoke=yes", ParseError),
    ("RULE Nia WHEN event=signal THEN discover", ParseError),
])
def test_a_name_or_number_outside_the_kb_rule_fails_the_load(tmp_path, line, error):
    _write(tmp_path, NIA_DAVID)
    with pytest.raises(error) as err:
        load_scenario("NODE Nia HUMAN n.cap\nNODE David HUMAN d.cap\nSERVICE p.srv\n" + line + "\n", tmp_path)
    if error is ParseError:
        assert err.value.line == 4


# -- the AT and EXPECT readers' contract: the value of each kind, each error's text ----

NIA_DAVID_HEAD = "NODE Nia HUMAN n.cap\nNODE David HUMAN d.cap\nSERVICE p.srv\n"
SCENARIO_EXPECTED = "NODE/SERVICE/RULE/AT/EXPECT"
EXPECTATION_EXPECTED = "COUNT/CONTAINS/ORDER/NONE_AFTER"


@pytest.mark.parametrize("line, event", [
    ("AT 3 REQUEST Nia consult", SimEvent(3, "request", (("requester", iri("Nia")), ("service", iri("consult"))))),
    ("AT 1 REQUEST Nia zz:consult",
     SimEvent(1, "request", (("requester", iri("Nia")), ("service", Iri("zz", "consult"))))),
    ("AT 2 MESSAGE Nia David q1 upset Head", SimEvent(2, "message", (
        ("sender", iri("Nia")), ("recipient", iri("David")), ("id", "q1"), ("sentiment", "upset"),
        ("topic", iri("Head"))))),
    ("AT 2 MESSAGE Nia zz:David q1 upset Head", SimEvent(2, "message", (
        ("sender", iri("Nia")), ("recipient", Iri("zz", "David")), ("id", "q1"), ("sentiment", "upset"),
        ("topic", iri("Head"))))),
    ("AT 1 SIGNAL Nia ping", SimEvent(1, "signal", (("node", iri("Nia")), ("signal", "ping")))),
    ("AT 1 SIGNAL zz:Nia ping", SimEvent(1, "signal", (("node", Iri("zz", "Nia")), ("signal", "ping")))),
    ("AT -9 TICK", SimEvent(-9, "tick", ())),
])
def test_each_event_kind_reads_its_payload(tmp_path, line, event):
    _write(tmp_path, NIA_DAVID)
    assert load_scenario(NIA_DAVID_HEAD + line + "\n", tmp_path).events == [event]


@pytest.mark.parametrize("line, expectation", [
    ("EXPECT COUNT answer 2", ("COUNT", ("answer", 2))),
    ("EXPECT CONTAINS 3 Nia execute answer", ("CONTAINS", (3, "Nia", "execute", "answer"))),
    ("EXPECT ORDER discover invoke", ("ORDER", ("discover", "invoke"))),
    ("EXPECT NONE_AFTER -5 answer", ("NONE_AFTER", (-5, "answer"))),
])
def test_each_expectation_kind_reads_its_arguments(tmp_path, line, expectation):
    _write(tmp_path, NIA_DAVID)
    [read] = load_scenario(NIA_DAVID_HEAD + line + "\n", tmp_path).expectations
    assert (read.kind, read.args) == expectation


@pytest.mark.parametrize("line, expected", [
    # a wrong word count
    ("AT 1 REQUEST Nia", "a well-formed REQUEST event"),
    ("AT 1 REQUEST Nia consult x", "a well-formed REQUEST event"),
    ("AT 1 MESSAGE Nia David q1 upset", "a well-formed MESSAGE event"),
    ("AT 1 MESSAGE Nia David q1 upset Head x", "a well-formed MESSAGE event"),
    ("AT 1 SIGNAL Nia", "a well-formed SIGNAL event"),
    ("AT 1 TICK now", "a well-formed TICK event"),
    ("AT 1", SCENARIO_EXPECTED), ("EXPECT COUNT", SCENARIO_EXPECTED),
    ("EXPECT COUNT answer", EXPECTATION_EXPECTED), ("EXPECT COUNT answer 1 2", EXPECTATION_EXPECTED),
    ("EXPECT CONTAINS 3 Nia execute", EXPECTATION_EXPECTED), ("EXPECT ORDER discover", EXPECTATION_EXPECTED),
    ("EXPECT NONE_AFTER 5", EXPECTATION_EXPECTED),
    # an unknown kind
    ("AT 1 PING Nia", SCENARIO_EXPECTED), ("AT 1 request Nia consult", SCENARIO_EXPECTED),
    ("AT x PING", SCENARIO_EXPECTED),
    ("EXPECT MAXIMUM answer 1", EXPECTATION_EXPECTED), ("EXPECT count answer 1", EXPECTATION_EXPECTED),
    # a bad word
    ("AT x TICK", "an integer"), ("AT 1.5 TICK", "an integer"),
    ("AT 1 REQUEST Ni/a consult", "a name"), ("AT 1 REQUEST Nia con/sult", "a name"),
    ("AT 1 MESSAGE Nia/x David q1 upset Head", "a name"), ("AT 1 MESSAGE Nia Da/vid q1 upset Head", "a name"),
    ("AT 1 MESSAGE Nia David q1 upset He/ad", "a name"), ("AT 1 SIGNAL Ni/a ping", "a name"),
    ("EXPECT COUNT answer x", "an integer"), ("EXPECT COUNT answer 1.0", "an integer"),
    ("EXPECT CONTAINS t Nia execute answer", "an integer"), ("EXPECT NONE_AFTER -x answer", "an integer"),
])
def test_each_event_and_expectation_error_names_what_was_expected(tmp_path, line, expected):
    _write(tmp_path, NIA_DAVID)
    with pytest.raises(ParseError) as err:
        load_scenario(NIA_DAVID_HEAD + line + "\n", tmp_path)
    assert type(err.value) is ParseError
    assert str(err.value) == f"line 4, column 1: expected {expected}"


@pytest.mark.parametrize("line", ["AT 1 REQUEST zz:Nia consult", "AT 1 MESSAGE zz:Nia David q1 upset Head",
                                  "AT 1 MESSAGE Nia David q1 upset zz:Head"])
def test_an_event_name_written_into_the_graph_takes_the_built_in_prefix_only(tmp_path, line):
    _write(tmp_path, NIA_DAVID)
    with pytest.raises(UnknownPrefixError) as err:
        load_scenario(NIA_DAVID_HEAD + line + "\n", tmp_path)
    assert str(err.value) == "unknown prefix: 'zz'"


def test_each_expectation_kind_checks_the_trace(tmp_path):
    _write(tmp_path, NIA_DAVID)
    scenario = load_scenario(
        NIA_DAVID_HEAD + "RULE David WHEN event=request THEN invoke-requested\n"
        "RULE Nia WHEN signal=done THEN complete-sessions\nAT 1 REQUEST Nia consult\nAT 2 SIGNAL Nia done\n"
        "EXPECT COUNT complete 1\nEXPECT COUNT answer 1\n"
        "EXPECT CONTAINS 1 David execute invoke-requested\nEXPECT CONTAINS 2 David execute complete\n"
        "EXPECT ORDER invoke-requested complete\nEXPECT ORDER complete invoke-requested\nEXPECT ORDER answer complete\n"
        "EXPECT NONE_AFTER 1 invoke-requested\nEXPECT NONE_AFTER 1 complete\n",
        tmp_path,
    )
    assert [check.line() for check in run_scenario(scenario).checks] == [
        "EXPECT COUNT complete 1: ok (count=1)",
        "EXPECT COUNT answer 1: failed (count=0)",
        "EXPECT CONTAINS 1 David execute invoke-requested: ok (present)",
        "EXPECT CONTAINS 2 David execute complete: failed (absent)",
        "EXPECT ORDER invoke-requested complete: ok (first=3 second=7)",
        "EXPECT ORDER complete invoke-requested: failed (first=7 second=3)",
        "EXPECT ORDER answer complete: failed (first=None second=7)",
        "EXPECT NONE_AFTER 1 invoke-requested: ok (late=0)",
        "EXPECT NONE_AFTER 1 complete: failed (late=1)",
    ]


@pytest.mark.parametrize("rating", ["0", "5", "2.5"])
def test_a_rating_from_0_to_5_loads(tmp_path, rating):
    _write(tmp_path, NIA_DAVID)
    scenario = load_scenario(f"NODE Nia HUMAN n.cap\nRULE Nia WHEN event=signal THEN complete-sessions rating={rating}\n",
                             tmp_path)
    assert scenario.nodes[iri("Nia")].rules[0].rating == Decimal(rating)


def test_names_only_looked_up_keep_any_prefix(tmp_path):
    _write(tmp_path, NIA_DAVID)
    scenario = load_scenario(
        "NODE Nia HUMAN n.cap\n"
        "AT 1 MESSAGE Nia zz:Bob q1 calm Head\nAT 2 SIGNAL zz:Bob ping\n", tmp_path)
    assert [e.payload for e in scenario.events] == [
        (("sender", iri("Nia")), ("recipient", Iri("zz", "Bob")), ("id", "q1"), ("sentiment", "calm"),
         ("topic", iri("Head"))),
        (("node", Iri("zz", "Bob")), ("signal", "ping")),
    ]


def _ecg_with(old, new):
    """The bundled monitoring scenario with one word of its rules replaced."""
    text = (SCENARIOS / "scenario1_ecg.scn").read_text(encoding="utf-8")
    assert old in text
    return load_scenario(text.replace(old, new), SCENARIOS)


def test_a_discover_rule_uses_every_criterion_it_gives():
    result = run_scenario(_ecg_with("context=siteA", "context=siteA kind=sensing"))
    rows = [(e.phase, e.detail) for e in result.trace.entries if e.action == "discover"]
    assert rows == [("plan", "skill=Cardiac_output_CO_monitoring_units_or_accessories context=siteA kind=sensing"),
                    ("execute", "found=none")]


def test_rules_are_read_once_into_typed_fields():
    rules = {rule.action: rule for rule in _load("scenario1_ecg.scn").nodes[iri("EcgDev")].rules}
    discover = rules["discover"]
    assert discover.request.required_skills == ((iri("Cardiac_output_CO_monitoring_units_or_accessories"), None),)
    assert discover.request.context_constraints == (iri("siteA"),)
    assert (discover.invoke, discover.inputs, discover.notify) == (True, (("patient", iri("Andy")),), iri("ecgAlert"))
    assert rules["complete-sessions"].rating == Decimal("5")
    cathy = _load("scenario2_chat.scn").nodes[iri("Cathy")].rules
    assert next(r for r in cathy if r.action == "discover").inputs == (("patient", None),)


def test_a_rejected_notify_prints_its_reason(tmp_path):
    _write(tmp_path, dict(NIA_DAVID, **{
        "a.srv": "SERVICE alert\nPROVIDER Nia\nKIND sensing\nPRECONDITION ?consumer advisedBy Nobody\n"}))
    result = run_scenario(load_scenario(
        "NODE Nia HUMAN n.cap\nNODE David HUMAN d.cap\nSERVICE p.srv\nSERVICE a.srv\n"
        "RULE Nia WHEN signal=go THEN discover kind=processing notify=alert\nAT 1 SIGNAL Nia go\n", tmp_path))
    assert [e.detail for e in result.trace.entries if e.action == "notify"] == [
        "service=alert consumer=David invocation=1 status=rejected reason=precondition"]


# -- the fast loop against the naive one -----------------------------------------


def test_tick_visits_only_nodes_with_mail(monkeypatch):
    scenario = _load("scenario2_chat.scn")
    sim = Simulation(scenario)
    visited = []
    monkeypatch.setattr(simulator, "node_tick", lambda sim, loop, time: visited.append(str(loop.node)))
    sim.tick(1)
    assert visited == []
    sim.deliver(sim.events[0])  # Adam asks Cathy's chatbotService
    sim.tick(1)
    assert visited == ["Cathy"]


def test_the_node_order_comes_from_the_names_not_the_file():
    directory = SCENARIOS
    text = (directory / "scenario2_chat.scn").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    nodes = [line for line in lines if line.startswith("NODE ")]
    assert len(nodes) == 3
    start = lines.index(nodes[0])
    reordered = "".join(lines[:start] + nodes[::-1] + lines[start + len(nodes):])
    assert reordered != text
    assert (run_scenario(load_scenario(reordered, directory)).trace.to_tsv()
            == run_scenario(load_scenario(text, directory)).trace.to_tsv())


def _fast_and_naive(text, directory):
    fast = sim_oracle.run_by_event_time(Simulation(load_scenario(text, directory)))
    naive = sim_oracle.run_by_event_time(sim_oracle.NaiveSimulation(load_scenario(text, directory)))
    return fast, naive


@pytest.mark.parametrize("name", ["scenario1_ecg.scn", "scenario2_chat.scn"])
def test_the_loop_runs_a_bundled_scenario_as_the_naive_loop_does(name):
    directory = SCENARIOS
    fast, naive = _fast_and_naive((directory / name).read_text(encoding="utf-8"), directory)
    assert fast == naive
    assert any(sessions for _, _, held in fast for _, sessions in held)


# Rules whose action reads what its conditions guarantee: invoke-requested a
# request's service, acquire-knowledge and discover a message's topic and sender.
# Only a machine learns, so acquire-knowledge is Cathy's.
_RULE_ACTIONS = (
    ("event=request", "invoke-requested"), (None, "answer"), ("event=message", "acquire-knowledge"),
    (None, "complete-sessions"), (None, "complete-sessions rating=4"), (None, "rate service=chatDoctor rating=3"),
    ("event=message", "discover skill=Complex_Problem_Solving invoke=yes inputs=patient:@from"),
    ("event=message", "discover knowledge=Medicine_and_Dentistry notify=chatbotService"),
)
_READINGS = ("topic-known=yes", "topic-known=no", "from-provider=yes", "from-provider=no")  # read the graph or sessions
_CONDITIONS = ("event=message", "event=signal", "sentiment=upset", "sentiment=satisfied", "signal=done") + _READINGS
_NODES = ("NODE Adam HUMAN adam.cap", "NODE Cathy MACHINE cathy.cap", "NODE David HUMAN david.cap")
_PEOPLE = ("Adam", "Cathy", "David", "Eve")  # Eve is no node
_TOPICS = ("HeadDiscomfort", "ClinicServices", "Farewell")

_rule = st.tuples(st.sampled_from(_PEOPLE[:3]), st.sampled_from(_RULE_ACTIONS), st.sampled_from(_READINGS + ("",)),
                  st.lists(st.sampled_from(_CONDITIONS), max_size=2))
_message = st.tuples(st.just("MESSAGE"), st.sampled_from(_PEOPLE), st.sampled_from(_PEOPLE), st.just("m"),
                     st.sampled_from(("upset", "satisfied", "calm")), st.sampled_from(_TOPICS))
_event = st.one_of(  # mostly messages: they fan out to sessions and test the conditions that read them
    _message, _message, _message,
    st.tuples(st.just("REQUEST"), st.sampled_from(_PEOPLE), st.just("chatbotService")),
    st.tuples(st.just("SIGNAL"), st.sampled_from(_PEOPLE), st.sampled_from(("done", "ping"))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.permutations(_NODES), st.lists(_rule, min_size=3, max_size=10),
       st.lists(st.tuples(st.integers(1, 6), _event), min_size=4, max_size=16))
def test_the_loop_runs_a_drawn_scenario_as_the_naive_loop_does(nodes, rules, events):
    # Cathy serves every request first, so most runs hold sessions that messages fan out to
    lines = list(nodes) + ["SERVICE chatbot_service.srv", "SERVICE chat_doctor.srv",
                           "RULE Cathy WHEN event=request THEN invoke-requested"]
    for node, (required, action), reading, conditions in rules:
        conditions = [c for c in (required, reading) if c] + conditions or ["event=message"]
        node = "Cathy" if action == "acquire-knowledge" else node
        lines.append(f"RULE {node} WHEN {','.join(conditions)} THEN {action}")
    lines += ["AT 0 REQUEST Adam chatbotService"] + [f"AT {time} {' '.join(event)}" for time, event in events]
    fast, naive = _fast_and_naive("\n".join(lines) + "\n", SCENARIOS)
    assert fast == naive
