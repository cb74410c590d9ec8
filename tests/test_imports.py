"""Every name a module of the package imports is used in that module.

No linter is part of the toolchain, so this guard parses each source
file with ``ast``.  An import statement marked ``# noqa: F401`` (the
package's re-exports) is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "openmap").glob("*.py"))


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nfrom json import dumps, loads  # noqa: F401\n"
                    "from math import pi, tau\n\nprint(tau)\n")
    assert _unused_imports(path) == [(1, "os"), (3, "pi")]
