"""Every name a package module, test file or script imports is used in
that file, and the package imports nothing outside the standard library.

``__init__.py`` is left out of the unused-import check: its imports are the
package's re-exports.
"""

import ast
import json
import subprocess
import symtable
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
    """Names bound by the imports of ``source`` and never read in it.  A read
    counts for an import only where it resolves to it: in the scope of the
    import, or in a nested scope where the name is not local."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lines.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    imports, used = set(), set()

    def visit(table, enclosing, module):
        # enclosing / module: name -> the import it resolves to there, or None
        here = {}
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_imported() and name in lines:
                here[name] = (table.get_id(), name)
                imports.add(here[name])
                if sym.is_referenced():
                    used.add(here[name])
            elif sym.is_local():
                here[name] = None
            elif sym.is_referenced():
                used.add((enclosing if sym.is_free() else module).get(name))
        if table.get_type() == "module":
            module = here
        elif table.get_type() == "function":
            enclosing = {**enclosing, **here}
        for child in table.get_children():
            visit(child, enclosing, module)

    visit(symtable.symtable(source, "<source>", "exec"), {}, {})
    return sorted({(lines[name], name) for _, name in imports - used})


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


def test_unused_import_check_skips_a_local_of_the_same_name():
    source = (
        "from dataclasses import field\n"
        "from math import tau\n"
        "class C:\n"
        "    tau = 1\n"
        "    def g(self):\n"
        "        return tau\n"
        "def f(ring):\n"
        "    field = ring.field\n"
        "    return [field for _ in ring]\n"
    )
    assert unused_imports(source) == [(1, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_package_imports_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import json\n"
        "sys.path.insert(0, %r)\n"
        "import multischeme, multischeme.cli\n"
        "multischeme.load_catalog()\n"
        "status = multischeme.run_scenario('thm-3.6').status\n"
        "new = sorted({name.split('.')[0] for name in set(sys.modules) - before})\n"
        "print(json.dumps([status, new]))\n"
    ) % str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    status, new = json.loads(out)
    assert status == "PASS" and "multischeme" in new and "jsonschema" not in new
    assert [name for name in new if name not in sys.stdlib_module_names] == ["multischeme"]
