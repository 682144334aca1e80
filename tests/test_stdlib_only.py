"""The package imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

import soa_hitlcps

PROBE = """\
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import soa_hitlcps
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_import_loads_only_standard_library_modules():
    # -I: no user site-packages and no PYTHON* variables, so only the
    # interpreter's own paths and the source tree are importable.
    src = str(Path(soa_hitlcps.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-I", "-c", PROBE.format(src=src)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["soa_hitlcps"]
