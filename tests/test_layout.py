"""The packed term layout is read in two modules only: ``ring``, which
defines it, and ``groebner``, whose speed depends on it.  Every other
module reaches components, monomials and constants through the ``Vec`` and
``PolyRing`` operations.  Likewise a Groebner basis is held by an ``Ideal``
or a module: ``buchberger`` runs only in ``groebner``, in ``ideals`` and
``modules``, which define them, and in ``hilbert``, which reads a module's
leads.  A layer presentation is built only where a ``Filtration`` builds its
layers on first use, so no verdict pays for one it does not read.  The
filtration hulls lift the k[z]-torsion of the pushforward, so ``structures``
names no ``saturate`` and no ``colon``, and a term's CM verdict reads the
module its hull built, so only the hull and ``is_locally_CM`` present a
pushforward; and the hull and Ext
window of R/I over R, and the resolution of R/I over R they read, are the
tests' reference, which no product module names; minimal generators come
from the unit prune of the first syzygies, so neither ``structures`` nor
``Ideal.minimal_gens`` names a resolution of R/I.  Each module imports only
the modules below it in ``LAYERS``.  A cache is filled by the one that
reads it: no statement computes a basis, leads or series only to discard
them, as ``Ideal.plus`` extends I's basis, computing it first if need be."""

import ast
import importlib
import inspect
import pkgutil
import textwrap
from pathlib import Path

import multischeme

READERS = {"multischeme.ring", "multischeme.groebner"}
RUNNERS = {"multischeme.groebner", "multischeme.ideals", "multischeme.modules",
           "multischeme.hilbert"}
# the R/I references the tests hold the hulls and verdicts to, and the
# modules that make the product paths (``is_S1`` is left out: the method of
# that name is the verdict)
REFERENCES = ("unmixed_part", "is_unmixed", "ext_annihilator", "saturate", "eliminate",
              "quotient_resolution")
PRODUCT = ("scenarios", "cli", "catalog", "families", "quotients")
# the cached computations of an Ideal
CACHED = ("unreduced", "groebner", "leads", "hilbert_series")
# the package modules, each importing only those before it
LAYERS = ("ring", "groebner", "hilbert", "modules", "parse", "ideals", "structures",
          "quotients", "families", "catalog", "scenarios", "cli")


def layout_reads(source):
    """Line numbers at which ``source`` reads a ``.pk`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "pk"
        and isinstance(node.ctx, ast.Load)
    )


def _reads(node, name):
    """Whether ``node`` reads ``name``, bare or as a module attribute."""
    return (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and name in (getattr(node, "id", None), getattr(node, "attr", None)))


def buchberger_uses(source):
    """Line numbers at which ``source`` reads the name ``buchberger``, called
    or passed on, bare or as a module attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if _reads(node, "buchberger"))


def name_uses(source, name):
    """Line numbers at which ``source`` names ``name``: read, written, bound
    by an import (aliased or not) or as a parameter, or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if name in (getattr(node, k, None) for k in ("id", "attr", "arg"))
                  or isinstance(node, ast.ImportFrom)
                  and any(name in (a.name, a.asname) for a in node.names))


def reference_uses(source):
    """Each name of ``REFERENCES`` that ``source`` names, with the line
    numbers at which it does (``name_uses``)."""
    return {name: lines for name in REFERENCES if (lines := name_uses(source, name))}


def package_imports(source):
    """(line, module) of each ``from .module import`` in ``source``, at
    module level or inside a function."""
    return [(node.lineno, node.module) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def readers(source, name):
    """The qualified names of the functions and methods of ``source`` that
    read ``name``, called or passed on, bare or as an attribute;
    ``<module>`` for a read outside every function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif _reads(node, name):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def discarded_calls(source):
    """(line, name) of each statement of ``source`` that calls a name of
    ``CACHED``, bare or as an attribute, and discards the result."""
    calls = (node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call))
    named = ((node.lineno, getattr(node.value.func, "attr", getattr(node.value.func, "id", None)))
             for node in calls)
    return sorted((line, name) for line, name in named if name in CACHED)


def test_the_lint_sees_every_read_of_the_layout():
    source = (
        "def f(ring, v, pk):\n"
        "    cs = ring.pk.cs\n"
        "    return v.pk, v.pkg, pk\n"
        "class C:\n"
        "    def __init__(self, ring):\n"
        "        self.pk = ring.pk\n"
    )
    assert layout_reads(source) == [2, 3, 6]


def test_only_ring_and_groebner_read_the_packed_layout():
    reads = {}
    for info in pkgutil.iter_modules(multischeme.__path__, multischeme.__name__ + "."):
        source = Path(importlib.import_module(info.name).__file__).read_text()
        if lines := layout_reads(source):
            reads[info.name] = lines
    assert set(reads) == READERS, reads


def test_the_lint_sees_every_buchberger_run():
    source = (
        "from .groebner import buchberger\n"
        "def f(vecs, groebner, buchberger_calls):\n"
        "    basis = buchberger(vecs)\n"
        "    run = groebner.buchberger\n"
        "    return list(map(buchberger, vecs)), buchberger_calls, run\n"
    )
    assert buchberger_uses(source) == [3, 4, 5]


def test_only_the_basis_holders_run_buchberger():
    uses = {}
    for info in pkgutil.iter_modules(multischeme.__path__, multischeme.__name__ + "."):
        source = Path(importlib.import_module(info.name).__file__).read_text()
        if lines := buchberger_uses(source):
            uses[info.name] = lines
    assert set(uses) == RUNNERS, uses


def test_the_lint_sees_every_reader_of_layer_module():
    source = (
        "from .structures import layer_module\n"
        "def layer_modules(layer_module_calls):\n"
        "    return layer_module_calls\n"
        "def f(emb, upper, lower):\n"
        "    return layer_module(emb, upper, lower)\n"
        "class C:\n"
        "    @property\n"
        "    def g(self):\n"
        "        return list(map(structures.layer_module, self.pairs))\n"
        "build = layer_module\n"
    )
    assert readers(source, "layer_module") == {"f", "C.g", "<module>"}


def package_readers(name):
    """{package module: ``readers`` of ``name`` in it}, for the modules that read it."""
    found = {}
    for info in pkgutil.iter_modules(multischeme.__path__, multischeme.__name__ + "."):
        source = Path(importlib.import_module(info.name).__file__).read_text()
        if names := readers(source, name):
            found[info.name] = names
    return found


def test_only_the_filtration_builds_layers_on_first_use():
    found = package_readers("layer_module")
    assert found == {"multischeme.structures": {"Filtration._presentations"}}, found


def test_the_lint_sees_every_reader_of_pushforward():
    source = (
        "class Embedding:\n"
        "    def pushforward(self, ideal, t):\n"
        "        return ideal\n"
        "def hull(emb, iy, pushforward_calls):\n"
        "    return emb.pushforward(iy, 1), pushforward_calls\n"
        "class S:\n"
        "    def verdict(self, emb, terms):\n"
        "        present = emb.pushforward\n"
        "        return [present(term, j) for j, term in enumerate(terms)]\n"
        "pushed = Embedding().pushforward\n"
    )
    assert readers(source, "pushforward") == {"hull", "S.verdict", "<module>"}


def test_only_the_hull_and_is_locally_cm_present_a_pushforward():
    found = package_readers("pushforward")
    assert found == {"multischeme.structures": {"_primary_component", "is_locally_CM"}}, found


def test_the_lint_sees_every_name_of_saturate():
    source = (
        "from .ideals import (\n"
        "    saturate,\n"
        ")\n"
        "def f(ideal, h, saturated):\n"
        "    ideals.saturate(ideal, h)\n"
        "    saturate = saturated\n"
        "    return saturated\n"
        "def g(saturate):\n"
        "    return 'saturate'\n"
    )
    assert name_uses(source, "saturate") == [1, 5, 6, 8]


def test_the_structures_module_names_no_saturate():
    from multischeme import structures

    source = Path(structures.__file__).read_text()
    assert {name: name_uses(source, name) for name in ("saturate", "colon")} == {
        "saturate": [], "colon": []}


def test_no_structure_path_resolves_r_mod_i_over_the_whole_ring():
    from multischeme import structures
    from multischeme.ideals import Ideal

    assert name_uses(Path(structures.__file__).read_text(), "quotient_resolution") == []
    source = textwrap.dedent(inspect.getsource(Ideal.minimal_gens))
    assert [n for n in ("quotient_resolution", "free_resolution") if name_uses(source, n)] == []


def test_the_lint_sees_every_name_of_a_reference():
    source = (
        "from .ideals import ext_annihilator, is_unmixed\n"
        "from . import ideals\n"
        "def f(ideal, eliminated):\n"
        "    hull = ideals.unmixed_part(ideal)\n"
        "    return ideals.saturate(hull, eliminated), 'eliminate'\n"
        "def g(structure):\n"
        "    return structure.is_S1()\n"
        "from .ideals import eliminate as drop\n"
    )
    assert reference_uses(source) == {"unmixed_part": [4], "is_unmixed": [1],
                                      "ext_annihilator": [1], "saturate": [5],
                                      "eliminate": [8]}


def test_the_product_modules_name_no_reference_of_r_mod_i():
    found = {}
    for name in PRODUCT:
        source = Path(importlib.import_module("multischeme." + name).__file__).read_text()
        if uses := reference_uses(source):
            found[name] = uses
    assert found == {}


def test_the_lint_sees_every_package_import():
    source = (
        "from __future__ import annotations\n"
        "from .ring import Vec\n"
        "from . import ideals\n"
        "def f():\n"
        "    from .parse import format_ideal\n"
        "    return format_ideal\n"
    )
    assert package_imports(source) == [(2, "ring"), (3, None), (5, "parse")]


def test_each_module_imports_only_the_layers_below_it():
    upward = {}
    for name in LAYERS:
        source = Path(importlib.import_module("multischeme." + name).__file__).read_text()
        for line, module in package_imports(source):
            if module not in LAYERS[:LAYERS.index(name)]:
                upward.setdefault(name, []).append((line, module))
    assert upward == {}
    modules = {info.name for info in pkgutil.iter_modules(multischeme.__path__)}
    assert modules == set(LAYERS)


def test_the_lint_sees_every_discarded_cache_call():
    source = (
        "def f(ideal, block):\n"
        "    ideal.unreduced()  # so that a sum starts from its basis\n"
        "    basis = block.groebner()\n"
        "    if block.leads():\n"
        "        hilbert_series()\n"
        "    return [ideal.hilbert_series() for _ in basis], block.leads\n"
    )
    assert discarded_calls(source) == [(2, "unreduced"), (5, "hilbert_series")]


def test_no_statement_primes_a_cache():
    found = {}
    for info in pkgutil.iter_modules(multischeme.__path__, multischeme.__name__ + "."):
        source = Path(importlib.import_module(info.name).__file__).read_text()
        if calls := discarded_calls(source):
            found[info.name] = calls
    assert found == {}
