import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NEW_MODULES = """
import sys
before = set(sys.modules)
import plqo, plqo.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    # Compare against the modules loaded before the import: site hooks load first.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = {name.partition(".")[0] for name in done.stdout.split()}
    assert "plqo" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"plqo"}


def test_pyproject_lists_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert deps is not None and deps.group(1).strip() == ""
