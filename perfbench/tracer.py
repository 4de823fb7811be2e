"""Per-module split of a run, measured from outside the program.

Tracer.install wraps every public function of every otlck module wherever
a module has bound it (roots.isolate_roots, heights.isolate_roots and
otlck.isolate_roots all point at one wrapper), plus click's
CliRunner.invoke as the "cli.invoke" span.  Each wrapper records calls,
total time and self time (total minus time spent in wrapped callees); a
few also record counts read off their arguments or results.  Counts depend
only on the inputs, so two traced runs over the same items agree exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Per-layer metrics printed by a traced run: (name, unit).  The lists in
# BENCHMARK.json's per_layer follow this table.
_CALLS_SELF = [
    "roots.root_separation_bound", "polys.resultant", "polys.poly_gcd",
    "polys.conjugate_product_poly", "polys.conjugate_ratio_poly", "polys.conjugate_sum_poly",
    "polys.is_irreducible", "polys.factor_int_poly", "polys.sturm_count",
    "numberfield.new_field", "numberfield.char_poly", "numberfield.min_poly",
    "numberfield.element_ball", "units.is_equal_modulus", "units.is_totally_positive",
    "units.rank", "heights.enumerate_bounded_height", "heights.height_algebraic",
    "heights.unit_point_height", "theorems.main_theorem_audit",
]
MODULES = ["polys", "balls", "roots", "numberfield", "units", "heights", "theorems", "cli"]
PER_LAYER = (
    [("roots.isolate_roots.calls", "count"), ("roots.isolate_roots.self_s", "s"),
     ("roots.isolate_roots.deg_max", "degree"), ("roots.isolate_roots.deg_sum", "degree"),
     ("roots.isolate_roots.digits_max", "digits"),
     ("roots.isolate_roots.escalations", "count"),
     ("roots.isolate_roots.repeat_ratio", "ratio")]
    + [(f"{fn}.{stat}", unit) for fn in _CALLS_SELF
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("polys.resultant.deg_max", "degree"),
       ("polys.conjugate_product_poly.out_deg_max", "degree"),
       ("polys.conjugate_ratio_poly.out_deg_max", "degree"),
       ("polys.conjugate_sum_poly.out_deg_max", "degree"),
       ("numberfield.min_poly.repeat_ratio", "ratio"),
       ("units.is_equal_modulus.digits_mean", "digits")]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.residual_s", "s")]
)


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.extra = defaultdict(float)  # counts recorded by the observers
        self.seen = defaultdict(set)  # keys for the repeat ratios
        self._stack = []  # callee time accumulated under each open span
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn, observe=None):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - inner
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every loaded submodule of package."""
        observers = {
            "roots.isolate_roots": self._isolate_roots,
            "numberfield.min_poly": self._min_poly,
            "polys.resultant": self._resultant,
            "units.is_equal_modulus": self._equal_modulus,
            **{f"polys.conjugate_{kind}_poly": functools.partial(self._out_degree, kind)
               for kind in ("product", "ratio", "sum")},
        }
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and not name.startswith("_")
                        and (obj.__module__ or "").startswith(prefix)):
                    continue
                if obj not in wrappers:
                    key = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(key, obj, observers.get(key))
                self._restore.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
        from click.testing import CliRunner

        self._restore.append((CliRunner, "invoke", CliRunner.invoke))
        CliRunner.invoke = self._wrap("cli.invoke", CliRunner.invoke)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- observers: counts read off arguments and results -------------------

    def _isolate_roots(self, args, kwargs, boxes):
        f = args[0]
        ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
        start = ctx.working_digits if ctx is not None else 64
        factor = ctx.escalation_factor if ctx is not None else 2
        digits = boxes[0].digits
        rungs, d = 0, start
        while d < digits:
            d *= factor
            rungs += 1
        e = self.extra
        e["roots.isolate_roots.deg_max"] = max(e["roots.isolate_roots.deg_max"], f.degree)
        e["roots.isolate_roots.deg_sum"] += f.degree
        e["roots.isolate_roots.digits_max"] = max(e["roots.isolate_roots.digits_max"], digits)
        e["roots.isolate_roots.escalations"] += rungs
        self._repeat("roots.isolate_roots", (f.coeffs, start))

    def _min_poly(self, args, kwargs, result):
        a = args[0]
        self._repeat("numberfield.min_poly", (a.field.poly.coeffs, a.coeffs))

    def _resultant(self, args, kwargs, result):
        e = self.extra
        e["polys.resultant.deg_max"] = max(e["polys.resultant.deg_max"],
                                           args[0].degree, args[1].degree)

    def _out_degree(self, kind, args, kwargs, result):
        key = f"polys.conjugate_{kind}_poly.out_deg_max"
        self.extra[key] = max(self.extra[key], result.degree)

    def _equal_modulus(self, args, kwargs, decision):
        digits = decision.certificate.get("precision_digits")
        if digits is not None:
            self.extra["units.is_equal_modulus.digits_n"] += 1
            self.extra["units.is_equal_modulus.digits_total"] += digits

    def _repeat(self, key, sig):
        seen = self.seen[key]
        if sig in seen:
            self.extra[key + ".repeats"] += 1
        seen.add(sig)

    # -- report ---------------------------------------------------------------

    def metrics(self, wall_s, overhead_s):
        """Every PER_LAYER metric; functions never called read 0."""
        out = {}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.self_s"] = st.self
        out.update({k: v for k, v in self.extra.items() if not k.endswith(
            (".repeats", ".digits_n", ".digits_total"))})
        for key in ("roots.isolate_roots", "numberfield.min_poly"):
            calls = self.stats[key].calls
            out[f"{key}.repeat_ratio"] = self.extra[key + ".repeats"] / calls if calls else 0.0
        n = self.extra["units.is_equal_modulus.digits_n"]
        out["units.is_equal_modulus.digits_mean"] = (
            self.extra["units.is_equal_modulus.digits_total"] / n if n else 0.0)
        modules = defaultdict(float)
        for key, st in self.stats.items():
            modules[key.split(".")[0]] += st.self
        for m in MODULES:
            out[f"{m}.self_s"] = modules[m]
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = overhead_s
        out["trace.residual_s"] = wall_s - sum(modules.values())
        return out, dict(modules)
