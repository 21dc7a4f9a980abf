"""Per-layer tracing of the qzonal engine, applied from outside.

A ``Tracer`` wraps the engine's functions and methods in place.  Each wrapped
call is a span charged to one layer; a layer's self time is the duration of
its spans minus the part covered by their child spans.  Spans are aggregated
in memory as they close (per-layer self time and per-counter call counts), so
tracing a multi-million-call run keeps its memory flat.

The engine itself is never edited.  Memo tables and sizes are read, never
written.  A name a later version of the engine renames or removes is skipped,
and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import functools
import time
import types

LAYER_MODULES = ("coeff", "qmatrix", "uq_action", "symplectic", "isotypic",
                 "macdonald", "partitions")

# Methods are wrapped on the class, so every call is seen wherever it comes
# from.  Module-level functions are wrapped where they are bound (see
# Tracer.install).
METHODS = {
    ("coeff", "Laurent"): ("__add__", "__sub__", "__neg__", "__mul__",
                           "__rmul__", "__pow__", "divexact", "unit_normal",
                           "bar", "specialize"),
    ("coeff", "RationalScalar"): ("__init__", "__add__", "__sub__", "__neg__",
                                  "__mul__", "__truediv__", "inverse"),
    ("coeff", "QTPoly"): ("__add__", "__sub__", "__neg__", "__mul__",
                          "content", "substitute_v"),
    ("coeff", "QTRational"): ("__init__", "__add__", "__sub__", "__neg__",
                              "__mul__", "__truediv__", "invert_parameters",
                              "substitute_v"),
    ("qmatrix", "QPolynomial"): ("__add__", "__sub__", "__neg__", "__mul__",
                                 "__pow__", "scale", "bi_weight", "to_json"),
    ("uq_action", "UqElement"): ("__add__", "__sub__", "__mul__", "scale"),
    ("isotypic", "GradedComponent"): ("__init__", "vector_of", "polynomial_of",
                                      "_weight_classes"),
    ("isotypic", "SubspaceBasis"): ("insert", "reduce", "equals",
                                    "canonical_rows", "to_json"),
    ("macdonald", "SymPolynomial"): ("__add__", "__sub__", "__mul__", "scale",
                                     "m_basis"),
}

# counter name -> (module, qualified name of the counted function)
CALL_COUNTERS = {
    "coeff.laurent.mul_calls": ("coeff", ("Laurent.__mul__", "Laurent.__rmul__")),
    "coeff.laurent.gcd_calls": ("coeff", ("laurent_gcd",)),
    "coeff.qt.gcd_calls": ("coeff", ("qt_gcd",)),
    "qmatrix.mul_calls": ("qmatrix", ("QPolynomial.__mul__",)),
    "uq_action.act_calls": ("uq_action", ("act",)),
    "symplectic.pfaffian_calls": ("symplectic", ("_pfaffian_sum",)),
    "macdonald.d1_calls": ("macdonald", ("macdonald_d1",)),
    "macdonald.dr_calls": ("macdonald", ("macdonald_dr",)),
}

# memo-table metric -> (module, attribute, whether it maps N to a table)
TABLES = {
    "qmatrix.insert_table.entries": ("qmatrix", "_INSERT_CACHES", True),
    "uq_action.atom_table.entries": ("uq_action", "_ATOM_CACHES", True),
    "isotypic.sp_kernel_table.entries": ("isotypic", "_SP_KERNEL_CACHE", False),
}

SELF_TIME_LAYERS = ("coeff.laurent", "coeff.qt", "qmatrix", "uq_action",
                    "symplectic", "isotypic", "macdonald", "cli")


def layer_of(module: str, name: str) -> str:
    """Layer a function or class of an engine module belongs to."""
    if module == "coeff":
        return "coeff.qt" if name.lstrip("_").lower().startswith(("qt", "qx")) \
            else "coeff.laurent"
    return module


def _after_operator_kernel(counts, args, kwargs, basis):
    component = args[1] if len(args) > 1 else kwargs["component"]
    counts["isotypic.unknowns"] += component.dim
    counts["isotypic.rank"] += component.dim - basis.rank


def _after_nullspace_block(counts, args, kwargs, vectors):
    cols = args[1] if len(args) > 1 else kwargs["cols"]
    counts["isotypic.blocks"] += 1
    if len(cols) > counts["isotypic.largest_block"]:
        counts["isotypic.largest_block"] = len(cols)


AFTER = {
    ("isotypic", "operator_kernel"): (_after_operator_kernel,
                                      ("isotypic.unknowns", "isotypic.rank")),
    ("isotypic", "_nullspace_block"): (_after_nullspace_block,
                                       ("isotypic.blocks",
                                        "isotypic.largest_block")),
}


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        self.counts = {}
        self._stack = [0.0]       # child-time accumulator per open span
        self._counted = {}        # (module, qualname) -> counter name

    def span(self, layer, fn, counter=None, after=None):
        """``fn`` wrapped so each call is a span of ``layer``."""
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[layer] += d - stack.pop()
                stack[-1] += d
            if after is not None:
                after(counts, args, kwargs, out)
            return out
        return traced

    def install(self, package):
        """Wrap the engine's layers in place (call before any engine work).

        A module-level function is wrapped in every engine module namespace
        that binds it.  In its own module a private helper stays unwrapped,
        so recursion such as straightening pays no tracing cost per level,
        unless a counter or hook needs every call.
        """
        modules = {}
        for name in LAYER_MODULES + ("cli",):
            mod = getattr(package, name, None)
            if isinstance(mod, types.ModuleType):
                modules[name] = mod
        for counter, (mod_name, qualnames) in CALL_COUNTERS.items():
            for q in qualnames:
                if _resolve(modules.get(mod_name), q) is not None:
                    self.counts[counter] = 0
                    self._counted[(mod_name, q)] = counter
        for (mod_name, fn_name), (_, names) in AFTER.items():
            if _resolve(modules.get(mod_name), fn_name) is not None:
                for n in names:
                    self.counts[n] = 0

        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            if not isinstance(cls, type):
                continue
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if isinstance(fn, types.FunctionType):
                    setattr(cls, meth, self.span(
                        layer_of(mod_name, cls_name), fn,
                        self._counted.get((mod_name, f"{cls_name}.{meth}"))))

        wrapped = {}
        for ns_name, ns in modules.items():
            for name, fn in list(vars(ns).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in LAYER_MODULES:
                    continue
                counter = self._counted.get((home, fn.__name__))
                hook = AFTER.get((home, fn.__name__), (None,))[0]
                if home == ns_name and fn.__name__.startswith("_") \
                        and counter is None and hook is None:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self.span(layer_of(home, fn.__name__), fn,
                                            counter, hook)
                setattr(ns, name, wrapped[fn])

    def exclude(self, seconds):
        """Charge ``seconds`` spent inside the open span to no layer."""
        self._stack[-1] += seconds

    def root(self, layer, fn, *args):
        """Run ``fn`` as the outermost span of ``layer``."""
        return self.span(layer, fn)(*args)


def _resolve(module, qualname):
    obj = module
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = (obj.__dict__.get(part) if isinstance(obj, type)
               else getattr(obj, part, None))
    return obj


def table_sizes(package) -> dict:
    """Entries in the engine's memo tables, read without touching them."""
    out = {}
    for metric, (mod_name, attr, per_n) in TABLES.items():
        table = getattr(getattr(package, mod_name, None), attr, None)
        if not isinstance(table, dict):
            continue
        out[metric] = (sum(len(t) for t in table.values()) if per_n
                       else len(table))
    return out
