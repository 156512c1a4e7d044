"""The resource budget is fixed where an ideal or an embedding is built: no
public function or method of ``ideals`` or ``structures`` takes a ``guard``
except those constructors and the entry points that start from vectors or
presented modules, with no ideal in reach."""

import inspect
import types

from multischeme import ideals, structures

ALLOWED = {
    "multischeme.ideals": {
        "Ideal", "Ideal.from_basis", "Ideal.parse", "fitting_ideal", "module_colon",
    },
    "multischeme.structures": {"Embedding", "is_locally_free"},
}


def public_callables(module):
    """(qualified name, callable) for every public function and class of
    ``module`` (a class stands for its constructor) and every public method
    of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            if "__init__" in vars(obj):
                yield name, obj.__init__
            for attr, member in vars(obj).items():
                methods = (types.FunctionType, classmethod, staticmethod)
                if not attr.startswith("_") and isinstance(member, methods):
                    yield "%s.%s" % (name, attr), getattr(obj, attr)


def guarded(module):
    return sorted(
        name for name, fn in public_callables(module) if "guard" in inspect.signature(fn).parameters
    )


def test_the_lint_sees_functions_methods_and_constructors():
    source = (
        "class C:\n"
        "    def __init__(self, guard=None): pass\n"
        "    def m(self, guard=None): pass\n"
        "    @classmethod\n"
        "    def k(cls, guard=None): pass\n"
        "    def _hidden(self, guard=None): pass\n"
        "def f(x, guard=None): pass\n"
        "def g(x): pass\n"
        "def _h(guard): pass\n"
    )
    module = types.ModuleType("fake")
    exec(source, vars(module))
    assert guarded(module) == ["C", "C.k", "C.m", "f"]


def test_only_constructors_and_vector_entry_points_take_a_guard():
    for module in (ideals, structures):
        assert set(guarded(module)) <= ALLOWED[module.__name__], module.__name__
    assert len(list(public_callables(ideals))) > 20 and len(list(public_callables(structures))) > 15
