"""Semantic service registry for mixed human/machine service networks.

The package models people, devices, and the services they provide in one
typed knowledge graph, materializes inferred facts, answers structured
queries, ranks candidate services by quality attributes, applies invocation
effects back onto the graph, and replays scripted cooperation scenarios
deterministically.
"""

from .allocation import (
    Assignee,
    Category,
    CategoryWeights,
    Recommendation,
    TaskSpec,
    loa,
    loa_weighted,
    parse_task_file,
    recommend_allocation,
)
from .broker import (
    DiscoveryRequest,
    RankedService,
    ServiceBroker,
    compile_request,
    parse_discovery_request,
)
from .errors import (
    ParseError,
    SoaHitlcpsError,
)
from .kb import (
    Iri,
    KnowledgeBase,
    Literal,
    Pattern,
    Statement,
    Var,
    decimal,
    integer,
    iri,
    parse_document,
    serialize,
    string,
)
from .metrics import crr, eval_report, load_cq_dir, run_cq
from .query import ResultTable, evaluate, format_query, parse_query, query_equivalent
from .reasoner import (
    ConsistencyReport,
    axiom_inference_check,
    check_consistency,
    check_ontoclean,
    materialize,
    render_report,
)
from .registry import Invocation, ServiceRegistry
from .schema import (
    HumanCapability,
    MachineCapability,
    PotentialService,
    QoS,
    ServiceProfile,
    UnlockRule,
    base_ontology,
    parse_human_capability,
    parse_machine_capability,
    parse_service_profile,
)
from .simulator import ScenarioResult, load_and_run, load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Assignee",
    "Category",
    "CategoryWeights",
    "ConsistencyReport",
    "DiscoveryRequest",
    "HumanCapability",
    "Invocation",
    "Iri",
    "KnowledgeBase",
    "Literal",
    "MachineCapability",
    "ParseError",
    "Pattern",
    "PotentialService",
    "QoS",
    "RankedService",
    "Recommendation",
    "ResultTable",
    "ScenarioResult",
    "ServiceBroker",
    "ServiceProfile",
    "ServiceRegistry",
    "SoaHitlcpsError",
    "Statement",
    "TaskSpec",
    "UnlockRule",
    "Var",
    "axiom_inference_check",
    "base_ontology",
    "check_consistency",
    "check_ontoclean",
    "compile_request",
    "crr",
    "decimal",
    "eval_report",
    "evaluate",
    "format_query",
    "integer",
    "iri",
    "load_and_run",
    "load_cq_dir",
    "load_scenario",
    "loa",
    "loa_weighted",
    "materialize",
    "parse_discovery_request",
    "parse_document",
    "parse_human_capability",
    "parse_machine_capability",
    "parse_query",
    "parse_service_profile",
    "parse_task_file",
    "query_equivalent",
    "recommend_allocation",
    "render_report",
    "run_cq",
    "run_scenario",
    "serialize",
    "string",
]
