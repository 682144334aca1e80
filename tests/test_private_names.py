"""Every private function of the package has a caller in the package.

A private function or method (a name with one leading ``_`` and no trailing
``__``) is not an interface: if nothing in ``src/`` names it outside its own
definition, it is dead code.  The ``_act_*`` handlers are reached by name
from the rule's action, and ``test_every_action_has_a_handler`` guards them.
"""

import ast
from collections import Counter
from pathlib import Path

import soa_hitlcps

PACKAGE = Path(soa_hitlcps.__file__).resolve().parent


def _named(tree: ast.AST) -> Counter:
    """How often each name or attribute name occurs in ``tree``, called or not."""
    return Counter([node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
                   + [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)])


def _unnamed_private_functions(sources: dict) -> list:
    """``module:function`` for each private function no code outside its own definition names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_named(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}:{node.name}"
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.endswith("__")
                  and not node.name.startswith("_act_")
                  and everywhere[node.name] == _named(node)[node.name])


def _package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_function_is_named_outside_its_definition():
    assert _unnamed_private_functions(_package_sources()) == []


def test_the_guard_sees_a_function_nothing_calls():
    sources = _package_sources()
    sources["simulator.py"] += "\n\ndef _orphan(n):\n    return _orphan(n - 1) if n else 0\n"
    assert _unnamed_private_functions(sources) == ["simulator.py:_orphan"]
