"""The package's public names, and the modules an import or a subcommand loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import soa_hitlcps

PACKAGE = Path(soa_hitlcps.__file__).resolve().parent
SRC = str(PACKAGE.parent)
SUBMODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
BASE_KB = str(PACKAGE / "data" / "base.kb")
CHAT_KB = str(Path(__file__).resolve().parent / "golden" / "scenario2_chat.kb")

PUBLIC_NAMES = [
    "Assignee", "Category", "CategoryWeights", "ConsistencyReport", "DiscoveryRequest",
    "HumanCapability", "Invocation", "Iri", "KnowledgeBase", "Literal", "MachineCapability",
    "ParseError", "Pattern", "PotentialService", "QoS", "RankedService", "Recommendation",
    "ResultTable", "ScenarioResult", "ServiceBroker", "ServiceProfile", "ServiceRegistry",
    "SoaHitlcpsError", "Statement", "TaskSpec", "UnlockRule", "Var", "axiom_inference_check",
    "base_ontology", "check_consistency", "check_ontoclean", "compile_request", "crr", "decimal",
    "eval_report", "evaluate", "format_query", "integer", "iri", "loa", "loa_weighted",
    "load_and_run", "load_cq_dir", "load_scenario", "materialize", "parse_discovery_request",
    "parse_document", "parse_human_capability", "parse_machine_capability", "parse_query",
    "parse_service_profile", "parse_task_file", "recommend_allocation",
    "render_report", "run_cq", "run_scenario", "serialize", "string",
]


def _run(code: str) -> str:
    # -I: no user site-packages and no PYTHON* variables; the source tree goes first on the path
    result = subprocess.run([sys.executable, "-I", "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_lists_the_public_names():
    assert sorted(soa_hitlcps.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_its_defining_modules_object(name):
    value = getattr(soa_hitlcps, name)
    assert value.__module__.startswith("soa_hitlcps.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert vars(soa_hitlcps)[name] is value  # kept, so the next read is a plain lookup


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        soa_hitlcps.no_such_name
    with pytest.raises(ImportError):
        from soa_hitlcps import no_such_name  # noqa: F401


def test_every_submodule_resolves_after_a_bare_import():
    out = _run(f"import soa_hitlcps\nprint(*(getattr(soa_hitlcps, name).__name__ for name in {SUBMODULES!r}))")
    assert out.split() == [f"soa_hitlcps.{name}" for name in SUBMODULES]


LOADED = """\
import contextlib, io
import soa_hitlcps
argv = {argv!r}
if argv:
    from soa_hitlcps.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0 and out.getvalue(), (code, out.getvalue())
print(*sorted(name for name in sys.modules if name.startswith("soa_hitlcps.")))
"""


@pytest.mark.parametrize("argv, modules", [
    ([], []),
    (["validate", BASE_KB], ["cli", "errors", "kb", "reasoner"]),
    (["discover", CHAT_KB, "DISCOVER skill=Complex_Problem_Solving"],
     ["broker", "cli", "datafiles", "errors", "kb", "query", "reasoner", "registry", "schema"]),
], ids=["import", "validate", "discover"])
def test_an_import_or_a_subcommand_loads_only_the_modules_it_runs(argv, modules):
    assert _run(LOADED.format(argv=argv)).split() == [f"soa_hitlcps.{name}" for name in modules]
