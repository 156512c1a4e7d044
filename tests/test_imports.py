"""Every name a package module, test file or script imports is used in
that file, and importing the package leaves the schema validator out.

``__init__.py`` is left out of the unused-import check: its imports are the
package's re-exports.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for pattern in ("src/multischeme/*.py", "tests/*.py", "scripts/*.py")
    for p in ROOT.glob(pattern)
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the imports of ``source`` and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_through_attributes_and_aliases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from re import compile, sub\n"
        "def f():\n"
        "    from math import pi\n"
        "    return os.path.join(j.dumps(compile('x')))\n"
    )
    assert unused_imports(source) == [(4, "sub"), (6, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_leaves_jsonschema_to_the_first_catalog_load():
    code = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "import multischeme, multischeme.cli\n"
        "seen = ['jsonschema' in sys.modules]\n"
        "multischeme.load_catalog()\n"
        "seen.append('jsonschema' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    ) % str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [False, True]
