"""The registry and the simulator leave the graph encoding to ``schema``.

Neither module writes to a ``KnowledgeBase`` or names a predicate: each fact
they store or read goes through the codec in ``schema``, so the encoding is
written down in one place.
"""

import ast
import inspect

import pytest

from soa_hitlcps import registry, simulator
from soa_hitlcps.kb import KnowledgeBase
from soa_hitlcps.schema import PLUMBING_PROPERTIES, base_ontology

WRITE_METHODS = {name for name in vars(KnowledgeBase) if name.startswith(("add_", "remove_"))}
PREDICATES = ({prop.local for prop in base_ontology().property_decls}
              | {name for name, _, _ in PLUMBING_PROPERTIES})


def test_the_write_methods_are_found():
    assert {"add_statement", "remove_statement", "add_type", "remove_type", "add_property"} <= WRITE_METHODS


def test_the_predicates_are_found():
    assert len(PREDICATES) == 45 + 5


@pytest.mark.parametrize("module", [registry, simulator], ids=lambda module: module.__name__)
def test_module_calls_no_graph_write_and_names_no_predicate(module):
    tree = ast.parse(inspect.getsource(module))
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not called & WRITE_METHODS
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & PREDICATES
