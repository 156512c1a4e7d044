"""Every function, method and class the package defines is referenced
somewhere in the repository's Python code.

A reference is a name, an attribute, an imported name, or a string constant
that is a (dotted) identifier, such as the span targets of
``perfbench/spans.py``.  Dunder methods are called by Python itself and are
left out.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "multischeme"
SEARCHED = ("src", "tests", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source):
    """(line, name) of every function, method and class in ``source``."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(source):
    """Every name ``source`` reads, imports or spells as a dotted string."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def unreferenced(defined, sources):
    used = set().union(*(references(s) for s in sources))
    return sorted((where, name) for where, name in defined if name not in used)


def test_reference_check_sees_names_attributes_imports_and_strings():
    package = (
        "def used_by_name(): pass\n"
        "def used_as_attribute(): pass\n"
        "def imported(): pass\n"
        "def spanned(): pass\n"
        "def only_in_a_sentence(): pass\n"
        "class Thing:\n"
        "    def __repr__(self): return ''\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
    )
    caller = (
        "from pkg import imported\n"
        "used_by_name()\n"
        "Thing().method\n"
        "x.used_as_attribute\n"
        "TARGETS = ('Thing.spanned',)\n"
        "'''only_in_a_sentence is mentioned here'''\n"
    )
    defined = [("pkg.py:%d" % line, name) for line, name in definitions(package)]
    assert unreferenced(defined, [package, caller]) == [
        ("pkg.py:5", "only_in_a_sentence"),
        ("pkg.py:9", "orphan"),
    ]


def test_every_package_definition_is_referenced():
    defined = [
        ("%s:%d" % (path.name, line), name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in definitions(path.read_text())
    ]
    sources = [
        path.read_text() for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert unreferenced(defined, sources) == []
