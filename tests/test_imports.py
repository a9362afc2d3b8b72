"""Every module-level import in the package is used by the module, and none is slow.

No linter ships with the project, so this parses each source file and
compares the names its top-level imports bind with the names it reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "prorl").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Optional\nnp.zeros(1)\n"
    assert unused_imports(source) == ["Optional", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the package's import time; only the LP and QP paths load it
    code = ("import sys, prorl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
