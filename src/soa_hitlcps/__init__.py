"""Semantic service registry for mixed human/machine service networks.

The package models people, devices, and the services they provide in one
typed knowledge graph, materializes inferred facts, answers structured
queries, ranks candidate services by quality attributes, applies invocation
effects back onto the graph, and replays scripted cooperation scenarios
deterministically.

Importing the package loads none of its modules: a public name, or a
submodule such as ``soa_hitlcps.kb``, is imported when it is first read.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed once under the module that defines it
_MODULE_OF = {name: module for module, names in {
    "allocation": ("Assignee", "Category", "CategoryWeights", "Recommendation", "TaskSpec",
                   "loa", "loa_weighted", "parse_task_file", "recommend_allocation"),
    "broker": ("DiscoveryRequest", "RankedService", "ServiceBroker", "compile_request",
               "parse_discovery_request"),
    "errors": ("ParseError", "SoaHitlcpsError"),
    "kb": ("Iri", "KnowledgeBase", "Literal", "Pattern", "Statement", "Var", "decimal",
           "integer", "iri", "parse_document", "serialize", "string"),
    "metrics": ("crr", "eval_report", "load_cq_dir", "run_cq"),
    "query": ("ResultTable", "evaluate", "format_query", "parse_query"),
    "reasoner": ("ConsistencyReport", "axiom_inference_check", "check_consistency",
                 "check_ontoclean", "materialize", "render_report"),
    "registry": ("Invocation", "ServiceRegistry"),
    "schema": ("HumanCapability", "MachineCapability", "PotentialService", "QoS",
               "ServiceProfile", "UnlockRule", "base_ontology", "parse_human_capability",
               "parse_machine_capability", "parse_service_profile"),
    "simulator": ("ScenarioResult", "load_and_run", "load_scenario", "run_scenario"),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)

_SUBMODULES = {*_MODULE_OF.values(), "cli", "datafiles"}


def __getattr__(name: str):
    """Import the module behind a public name or a submodule on first read (PEP 562)."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
