"""The MAPE-K loop evaluates scenario rules; it never reads them.

``load_scenario`` reads every part of a rule when it reaches the rule's line
(``simulator._compile_rule``), so a bad value fails the load at that line.
No ``Simulation`` method, not ``node_tick``, and no module function they use
calls (or passes on) a reader of names, numbers, ``key=value`` pairs or
discovery requests.
"""

import ast
import inspect

import pytest

from soa_hitlcps import simulator

READERS = {"parse_name", "parse_decimal", "parse_integer", "parse_pair", "graph_name", "parse_discovery_request"}
SOURCE = inspect.getsource(simulator)


def _named(function: ast.FunctionDef) -> set:
    """The names and attribute names ``function`` refers to, called or not."""
    return ({node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)})


def _loop_readers(source: str) -> dict:
    """Each loop function, or module function it uses, that names a reader -> the readers it names."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    simulation = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Simulation")
    pending = [node for node in simulation.body if isinstance(node, ast.FunctionDef)] + [functions["node_tick"]]
    seen, found = set(), {}
    while pending:
        function = pending.pop()
        if id(function) in seen:
            continue
        seen.add(id(function))
        named = _named(function)
        if named & READERS:
            found[function.name] = sorted(named & READERS)
        pending += [functions[name] for name in named if name in functions]
    return found


def test_the_loop_calls_no_reader():
    assert _loop_readers(SOURCE) == {}


@pytest.mark.parametrize("old, new, helper, where", [
    ("service, rating = rule.service, rule.rating",
     "service, rating = rule.service, parse_decimal(rule.plan.split('rating=')[1])", "", "_act_rate"),
    ("discover(rule.request,", "discover(parse_discovery_request('DISCOVER ' + rule.plan),", "",
     "_act_discover"),
    ("discover(rule.request,", "discover(_request_of(rule),",
     "\n\ndef _request_of(rule):\n    return parse_discovery_request('DISCOVER ' + rule.plan)\n",
     "_request_of"),
], ids=["action", "request", "module-helper"])
def test_the_guard_sees_a_reader_put_back(old, new, helper, where):
    assert SOURCE.count(old) == 1
    assert where in _loop_readers(SOURCE.replace(old, new) + helper)


def test_every_action_has_a_handler():
    for action in simulator._ACTIONS:
        assert callable(getattr(simulator.Simulation, "_act_" + action.replace("-", "_")))
