"""The package imports nothing outside the standard library, in any of its modules."""

import subprocess
import sys
from pathlib import Path

import soa_hitlcps

# The package imports its modules on first use, so the probe imports each one.
PROBE = """\
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import soa_hitlcps
for module in pkgutil.iter_modules(soa_hitlcps.__path__):
    importlib.import_module("soa_hitlcps." + module.name)
new = set(sys.modules) - before
print(" ".join(sorted(name for name in new if name.startswith("soa_hitlcps."))))
print(" ".join(sorted({{name.partition(".")[0] for name in new}} - set(sys.stdlib_module_names))))
"""


def test_import_loads_only_standard_library_modules():
    # -I: no user site-packages and no PYTHON* variables, so only the
    # interpreter's own paths and the source tree are importable.
    src = str(Path(soa_hitlcps.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-I", "-c", PROBE.format(src=src)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    modules, outside = result.stdout.splitlines()
    package = Path(src) / "soa_hitlcps"
    assert modules.split() == sorted(f"soa_hitlcps.{path.stem}" for path in package.glob("*.py")
                                     if path.stem != "__init__")
    assert outside.split() == ["soa_hitlcps"]
