"""The registry and the simulator leave the graph encoding to ``schema``.

Neither module writes to a ``KnowledgeBase`` or names a predicate: each fact
they store or read goes through the codec in ``schema``, so the encoding is
written down in one place.  And no module but ``kb`` changes a knowledge
base's tables itself: every graph change goes through a ``KnowledgeBase``
method, which keeps the index, the journal and the parent map in step.
"""

import ast
import dataclasses
import inspect
import pkgutil
import types
from importlib import import_module

import pytest

import soa_hitlcps
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


# the tables a KnowledgeBase holds its graph in, and the methods that change a set, dict or list in place
TABLES = {f.name for f in dataclasses.fields(KnowledgeBase) if f.compare}
MUTATORS = ((set(dir(set)) - set(dir(frozenset))) | (set(dir(dict)) - set(dir(types.MappingProxyType)))
            | (set(dir(list)) - set(dir(tuple)))) - {"fromkeys", "copy", "__reversed__"}
MODULES = [name for _, name, _ in pkgutil.iter_modules(soa_hitlcps.__path__) if name != "kb"]


def _table_changes(source: str) -> list:
    """Each line of ``source`` that changes a ``<expr>.<table>`` in place, assigns it, or deletes from it."""
    def is_table(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in TABLES

    def written(target) -> bool:
        return is_table(target) or isinstance(target, ast.Subscript) and is_table(target.value)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in MUTATORS and is_table(node.func.value)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            hit = any(map(written, node.targets))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            hit = written(node.target)
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_the_tables_and_mutators_are_found():
    assert TABLES == {"prefixes", "class_decls", "property_decls", "subclass_links", "disjoint_pairs", "axioms",
                      "annotations", "type_assertions", "statements"}
    assert {"add", "update", "discard", "setdefault", "pop", "clear", "append", "__setitem__", "__ior__"} <= MUTATORS
    assert not {"get", "copy", "union", "keys", "__getitem__", "__contains__", "index"} & MUTATORS
    assert {"broker", "reasoner", "registry", "schema", "simulator"} <= set(MODULES)


@pytest.mark.parametrize("source", [
    "out.subclass_links.update(links)", "kb.statements.add(s)", "self.registry.kb.type_assertions.discard(t)",
    "kb.annotations[c] = a", "kb.axioms = {}", "del kb.property_decls[p]", "kb.class_decls |= more",
    "kb.prefixes.setdefault('x', 'y')",
])
def test_the_guard_finds_each_kind_of_table_change(source):
    assert _table_changes(source) == [1]


@pytest.mark.parametrize("source", ["kb.statements_about(x)", "kb.property_decls.get(p)", "len(kb.statements)",
                                    "kb.add_statement(s, p, o)", "kb.journal = []", "x = kb.subclass_links"])
def test_the_guard_passes_a_read_or_a_method_call(source):
    assert _table_changes(source) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_but_kb_changes_a_knowledge_base_table(name):
    assert _table_changes(inspect.getsource(import_module(f"soa_hitlcps.{name}"))) == []
