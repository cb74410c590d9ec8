"""Every name a module of the package imports is used in that module,
every module-level private function or class is named somewhere in the
package outside its own definition, and ``numcore._svd`` is the package's
one SVD call, in a module that imports nothing from ``matrixio``.

No linter is part of the toolchain, so these guards parse each source
file with ``ast``.  An import statement marked ``# noqa: F401`` (a name
kept for a tracer outside the package) is exempt.
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


def _orphans(paths):
    """``(file, name)`` of each module-level private function or class in
    ``paths`` that no top-level statement but its own definition names, as
    a name, an attribute or an imported name."""
    defs, uses = [], []
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs.append((path.name, stmt.name, len(uses)))
            uses.append(names)
    return sorted((file, name) for file, name, own in defs
                  if not any(name in used for i, used in enumerate(uses) if i != own))


@pytest.mark.parametrize("path", SRC, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nfrom json import dumps, loads  # noqa: F401\n"
                    "from math import pi, tau\n\nprint(tau)\n")
    assert _unused_imports(path) == [(1, "os"), (3, "pi")]


def test_every_private_definition_is_named_outside_itself():
    assert _orphans(SRC) == []


def test_the_guard_sees_an_orphan(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def _chain(n):\n    return n and _chain(n - 1)\n\n\n"
                   "def _used():\n    pass\n\n\nclass _Dead:\n    pass\n\n\n"
                   "def _attr():\n    pass\n")
    user.write_text("import lib\nfrom lib import _used  # noqa: F401\n\nlib._attr()\n")
    assert _orphans([lib, user]) == [("lib.py", "_Dead"), ("lib.py", "_chain")]


def _svd_sites(paths):
    """``(file, definition)`` of each place in ``paths`` that names the SVD
    of a ``linalg`` module, as an attribute or an imported name, with the
    module-level definition holding it (``<module>`` outside any)."""
    sites = []
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    named = node.attr == "svd" and ast.unparse(node.value).endswith("linalg")
                elif isinstance(node, ast.ImportFrom):
                    named = (node.module or "").endswith("linalg") and any(
                        alias.name == "svd" for alias in node.names)
                else:
                    continue
                if named:
                    sites.append((path.name, where))
    return sorted(sites)


def _imported_modules(path):
    """The last dotted part of each module ``path`` imports or imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_numcore_holds_the_one_svd_call_and_imports_no_loader():
    assert _svd_sites(SRC) == [("numcore.py", "_svd")]
    assert "matrixio" not in _imported_modules(next(p for p in SRC if p.name == "numcore.py"))


def test_the_guard_sees_a_second_svd_and_a_loader_import(tmp_path):
    core, user = tmp_path / "numcore.py", tmp_path / "user.py"
    core.write_text("import numpy as np\nfrom .matrixio import as_matrix\n\n\n"
                    "def _svd(a):\n    return np.linalg.svd(as_matrix(a))\n")
    user.write_text("import scipy.linalg\nfrom numpy.linalg import svd, qr\nfrom . import matrixio\n"
                    "\nsvd(matrixio)\n\n\nclass Fit:\n    def run(self, a):\n"
                    "        return scipy.linalg.svd(a), qr(a)\n")
    assert _svd_sites([core, user]) == [
        ("numcore.py", "_svd"), ("user.py", "<module>"), ("user.py", "Fit")]
    assert "matrixio" in _imported_modules(core)
    assert "matrixio" in _imported_modules(user)
