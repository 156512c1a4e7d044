"""Outside-in span tracer for the multischeme layers.

The package imports by name (``from .groebner import syzygies``), so a
function is replaced by its span wrapper at every binding in every
``multischeme.*`` module, and a method on its class.  ``install`` then
audits the modules and fails if any of them still holds an original.

A span is ``[name, start, end, parent, item, payload, error]``.  Spans are
kept in memory; ``summarize`` turns them into per-layer counts and times
and ``write`` stores them once, at the end of the traced pass.
"""

import functools
import importlib
import json
import pkgutil
import sys
import time

PACKAGE = "multischeme"

# module -> spanned public functions ("Class.method" for methods)
SPANNED = {
    "groebner": (
        "buchberger", "interreduce", "syzygies", "normal_form",
        "module_contains", "submodule_equal",
    ),
    "ideals": (
        "Ideal.groebner", "Ideal.minimal_gens", "colon", "saturate", "intersect",
        "eliminate", "radical_contains", "ext_annihilator", "module_colon",
        "quotient_resolution", "unmixed_part", "is_unmixed",
    ),
    "modules": (
        "free_resolution", "GradedModule.minimal_with_map", "determinant",
        "minors", "matrix_rank",
    ),
    "hilbert": ("ideal_hilbert_series", "module_hilbert_series"),
    "structures": (
        "MultiStructure.validate", "s1_filtration", "layer_module",
        "is_locally_CM", "is_S1", "thicken",
    ),
    "quotients": ("line_bundle_quotients", "solution_space"),
    "families": ("build_family",),
    "catalog": ("load_catalog", "CatalogEntry.structure"),
    "parse": ("parse_ideal", "format_ideal"),
}
SPAN_NAMES = tuple("%s.%s" % (m, f) for m, fs in SPANNED.items() for f in fs)

# spans whose arguments and result are kept for the derived metrics
_KEEP = {
    "groebner.buchberger",
    "ideals.quotient_resolution",
    "modules.free_resolution",
    "quotients.line_bundle_quotients",
}
NAME, START, END, PARENT, ITEM, PAYLOAD, ERROR = range(7)


class BindingError(RuntimeError):
    pass


def package_modules():
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = -1
        self._stack = []
        self._originals = {}  # id(original) -> span name

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self._stack, name in _KEEP
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None, None]
            if keep:
                rec[PAYLOAD] = [args, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[PAYLOAD][1] = result
            return result

        return span

    def install(self):
        """Wrap every spanned function at every binding, then audit."""
        modules = package_modules()
        for mod_name, quals in SPANNED.items():
            module = sys.modules["%s.%s" % (PACKAGE, mod_name)]
            for qual in quals:
                name = "%s.%s" % (mod_name, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[attr]
                    setattr(cls, attr, self._wrap(name, original))
                else:
                    original = getattr(module, qual)
                    wrapper = self._wrap(name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapper)
                self._originals[id(original)] = name
        self.audit(modules)

    def audit(self, modules):
        """Raise BindingError if a module or class still holds an original."""
        left = []
        for m in modules:
            for key, value in vars(m).items():
                if id(value) in self._originals:
                    left.append("%s.%s" % (m.__name__, key))
                if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for attr, member in vars(value).items():
                        if id(member) in self._originals:
                            left.append("%s.%s.%s" % (m.__name__, key, attr))
        missing = set(SPAN_NAMES) - set(self._originals.values())
        if left or missing:
            raise BindingError(
                "unwrapped bindings: %s; unknown targets: %s" % (sorted(left), sorted(missing))
            )

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:PAYLOAD] + [rec[ERROR]]) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _ring_key(ring):
    return (ring.names, ring.char, repr(ring.order))


def _vecs_key(vecs):
    vecs = list(vecs)
    ring = vecs[0].ring if vecs else None
    terms = sorted(tuple(sorted(v.data.items())) for v in vecs)
    return (_ring_key(ring) if ring else None, tuple(terms))


def _ideal_key(ideal):
    return (_ring_key(ideal.ring), tuple(sorted(tuple(sorted(g.terms.items())) for g in ideal.gens)))


def summarize(spans):
    """Raw per-layer sums of one traced pass (combined by ``combine``)."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
    bb = {
        side: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "keys": set(), "basis_max": 0}
        for side in ("ideal", "module")
    }
    gb_parents_with_bb = set()
    qres_keys = set()
    out = {"betti_total": 0, "samples_tested": 0, "guard_trips": 0, "groebner_calls": 0,
           "groebner_hits": 0, "qres_calls": 0}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        own = dur - child[i]
        layer = layers[name]
        layer["calls"] += 1
        layer["self_s"] += own
        # total time counts the outermost span of a recursive chain only
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            layer["total_s"] += dur
        if name == "groebner.buchberger":
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "ideals.Ideal.groebner":
                gb_parents_with_bb.add(rec[PARENT])
            if rec[ERROR] == "ResourceGuardExceeded":
                out["guard_trips"] += 1
            vecs = _first_arg(rec)
            side = "module" if any(j > 0 for v in vecs for j, _ in v.data) else "ideal"
            s = bb[side]
            s["calls"] += 1
            s["self_s"] += own
            s["total_s"] += dur
            s["keys"].add(_vecs_key(vecs))
            if rec[ERROR] is None:
                s["basis_max"] = max(s["basis_max"], len(rec[PAYLOAD][1]))
        elif name == "ideals.Ideal.groebner":
            out["groebner_calls"] += 1
        elif name == "ideals.quotient_resolution":
            out["qres_calls"] += 1
            qres_keys.add(_ideal_key(_first_arg(rec)))
        elif name == "modules.free_resolution" and rec[ERROR] is None:
            out["betti_total"] += sum(len(d) for d in rec[PAYLOAD][1].degrees)
        elif name == "quotients.line_bundle_quotients" and rec[ERROR] is None:
            out["samples_tested"] += sum(v.samples_tested for v in rec[PAYLOAD][1])
    out["groebner_hits"] = out["groebner_calls"] - len(gb_parents_with_bb)
    out["qres_distinct"] = len(qres_keys)
    for s in bb.values():
        s["distinct"] = len(s.pop("keys"))
    out["layers"] = layers
    out["buchberger"] = bb
    return out


def _first_arg(rec):
    return rec[PAYLOAD][0][0]


def combine(summaries):
    """Per-pass means of the per-layer metrics over traced passes."""
    k = len(summaries)
    metrics = {}
    for name in SPAN_NAMES:
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            metrics["%s.%s" % (name, stat)] = (sum(s["layers"][name][stat] for s in summaries) / k, unit)
    for side in ("ideal", "module"):
        calls = sum(s["buchberger"][side]["calls"] for s in summaries)
        distinct = sum(s["buchberger"][side]["distinct"] for s in summaries)
        pre = "groebner.buchberger.%s." % side
        metrics[pre + "calls"] = (calls / k, "count")
        metrics[pre + "self_s"] = (sum(s["buchberger"][side]["self_s"] for s in summaries) / k, "s")
        metrics[pre + "distinct_ratio"] = (distinct / calls if calls else 1.0, "ratio")
        metrics[pre + "basis_max"] = (max(s["buchberger"][side]["basis_max"] for s in summaries), "count")
    gb_calls = sum(s["groebner_calls"] for s in summaries)
    qres_calls = sum(s["qres_calls"] for s in summaries)
    metrics["ideals.Ideal.groebner.hit_ratio"] = (
        sum(s["groebner_hits"] for s in summaries) / gb_calls if gb_calls else 0.0, "ratio")
    metrics["ideals.quotient_resolution.distinct_ratio"] = (
        sum(s["qres_distinct"] for s in summaries) / qres_calls if qres_calls else 1.0, "ratio")
    metrics["modules.free_resolution.betti_total"] = (sum(s["betti_total"] for s in summaries) / k, "count")
    metrics["quotients.line_bundle_quotients.samples_tested"] = (
        sum(s["samples_tested"] for s in summaries) / k, "count")
    metrics["groebner.guard_trips"] = (sum(s["guard_trips"] for s in summaries) / k, "count")
    return metrics
