"""The resource budget is fixed where an ideal, an embedding or a module is
built: across the package, no public function or method takes a ``guard``
except those constructors, the builders that make a structure from scratch,
and the Vec-level kernel, which starts from vectors with no ideal or module
in reach."""

import importlib
import inspect
import pkgutil
import types

import multischeme

ALLOWED = {
    "multischeme.catalog": {"CatalogEntry.structure"},
    "multischeme.families": {"build_family"},
    "multischeme.groebner": {"buchberger", "groebner_basis", "syzygies", "submodule_equal"},
    "multischeme.ideals": {"Ideal", "Ideal.from_basis", "Ideal.parse", "module_colon"},
    "multischeme.modules": {"GradedModule", "Resolution"},
    "multischeme.scenarios": {"ScenarioOptions"},
    "multischeme.structures": {"Embedding"},
}


def package_modules():
    """Every submodule of the package, imported."""
    infos = pkgutil.iter_modules(multischeme.__path__, multischeme.__name__ + ".")
    return [importlib.import_module(info.name) for info in infos]


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


def test_only_constructors_builders_and_the_kernel_take_a_guard():
    modules = package_modules()
    assert set(ALLOWED) <= {m.__name__ for m in modules}
    for module in modules:
        assert guarded(module) == sorted(ALLOWED.get(module.__name__, ())), module.__name__
    assert sum(len(list(public_callables(m))) for m in modules) > 150
