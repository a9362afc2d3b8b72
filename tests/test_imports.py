"""Every module-level import in the package is used by the module.

No linter ships with the project, so this parses each source file and
compares the names its top-level imports bind with the names it reads.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "prorl").glob("*.py"))


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
