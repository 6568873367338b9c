"""Spans around the calls into cinfstruct's layers, recorded from outside.

``install()`` replaces each traced function by a wrapper in every loaded
cinfstruct module that binds the name (``from .zerotest import is_zero`` in
``linalg`` makes a second binding of the same function), and each traced
``Expression`` operator on the class.  A wrapper pushes a frame, runs the
call and pops it; the frame's duration minus its traced children is its
exclusive time, charged to its module.  Spans (name, start, end, parent) are
kept in memory and written out by the caller after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Metric name -> (module, attribute) of the functions behind it.
# factors.verify and factors.convert each group two functions; kernel.arith,
# the Expression operators in ARITH_OPS, is wrapped on the class.
NAMED = {
    "kernel.poly_gcd": [("kernel", "poly_gcd")],
    "kernel.exact_div": [("kernel", "exact_div")],
    "kernel.differentiate": [("kernel", "differentiate")],
    "kernel.substitute": [("kernel", "substitute")],
    "zerotest.is_zero": [("zerotest", "is_zero")],
    "linalg.solve_linear": [("linalg", "solve_linear")],
    "linalg.rank_certified": [("linalg", "rank_certified")],
    "linalg.det": [("linalg", "det")],
    "calculus.lie_bracket": [("calculus", "lie_bracket")],
    "calculus.pullback_form": [("calculus", "pullback_form")],
    "calculus.pushforward_field": [("calculus", "pushforward_field")],
    "calculus.exterior_derivative": [("calculus", "exterior_derivative")],
    "structures.check_cinf_structure": [("structures", "check_cinf_structure")],
    "structures.check_involutive": [("structures", "check_involutive")],
    "structures.dual_one_forms": [("structures", "dual_one_forms")],
    "factors.verify": [
        ("factors", "check_symmetrizing_factor"),
        ("factors", "check_relative_integrating_factor"),
    ],
    "factors.convert": [
        ("factors", "factor_to_integrating"),
        ("factors", "integrating_to_factor"),
    ],
    "factors.primitive_by_quadrature": [("factors", "primitive_by_quadrature")],
    "reduction.descend": [("reduction", "descend")],
    "reduction.derive_factors": [("reduction", "derive_factors")],
    "reduction.final_report": [("reduction", "final_report")],
    "reduction.build_solvable_structure": [("reduction", "build_solvable_structure")],
    "scenario.load_scenario": [("scenario", "load_scenario")],
    "syntax.parse": [("syntax", "parse")],
    "syntax.format_expression": [("syntax", "format_expression")],
    "cli.main": [("cli", "main")],
}

ARITH_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

# Every other public function of these modules gets an anonymous frame, so
# that module self time is charged to the module that spent it.
FRAMED_MODULES = (
    "zerotest", "linalg", "calculus", "structures", "factors", "reduction", "scenario",
)

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.stack = []  # [name, module, start, child_time, span_index]
        self.calls = {}
        self.top_calls = {}
        self.inclusive = {}
        self.exclusive = {}
        self.module_self = {}
        self.depth = {}
        self.extra = {"kernel.poly_gcd.max_terms": 0, "zerotest.is_zero.sampled_calls": 0,
                      "zerotest.is_zero.samples": 0, "structures.check_items": 0}
        self.spans = []
        self.spans_dropped = 0
        self._restore = []

    # -- frames ---------------------------------------------------------------

    def _call(self, name, module, fn, args, kwargs):
        stack = self.stack
        if name == "kernel.arith" and stack and stack[-1][0] == "kernel.arith":
            # `a - b` is `a + (-b)` inside the kernel: one operation, one count.
            return fn(*args, **kwargs)
        self.calls[name] = self.calls.get(name, 0) + 1
        d = self.depth.get(name, 0)
        if d == 0:
            self.top_calls[name] = self.top_calls.get(name, 0) + 1
        self.depth[name] = d + 1
        parent = stack[-1][4] if stack else -1
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [name, module, perf_counter(), 0.0, idx]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[2]
            self.depth[name] = d
            if d == 0:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
            own = dur - frame[3]
            self.exclusive[name] = self.exclusive.get(name, 0.0) + own
            self.module_self[module] = self.module_self.get(module, 0.0) + own
            if stack:
                stack[-1][3] += dur
            if idx >= 0:
                self.spans[idx] = (name, frame[2], end, parent)

    def wrap(self, fn, name, module, post=None):
        call = self._call

        if post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, module, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                res = call(name, module, fn, args, kwargs)
                post(args, res)
                return res
        return wrapper

    # -- installation ---------------------------------------------------------

    def _bind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("cinfstruct") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        import cinfstruct.cli  # noqa: F401  (loads every traced module)
        from cinfstruct import factors, kernel

        pkg = sys.modules["cinfstruct"]
        posts = {
            "kernel.poly_gcd": self._post_gcd,
            "zerotest.is_zero": self._post_is_zero,
        }
        named_fns = set()
        for name, targets in NAMED.items():
            for modname, attr in targets:
                fn = getattr(getattr(pkg, modname), attr)
                named_fns.add(fn)
                self._bind_everywhere(fn, self.wrap(fn, name, modname, posts.get(name)))
        for modname in FRAMED_MODULES:
            mod = getattr(pkg, modname)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and fn not in named_fns:
                    self._bind_everywhere(fn, self.wrap(fn, "%s.%s" % (modname, attr), modname))
        for op in ARITH_OPS:
            fn = getattr(kernel.Expression, op)
            setattr(kernel.Expression, op, self.wrap(fn, "kernel.arith", "kernel"))
            self._restore.append((kernel.Expression, op, fn))
        call = factors.PrimitiveResult.__call__
        setattr(
            factors.PrimitiveResult,
            "__call__",
            self.wrap(call, "factors.quadrature_eval", "factors"),
        )
        self._restore.append((factors.PrimitiveResult, "__call__", call))
        structures = pkg.structures
        bundle = structures.bundle

        def counting_bundle(kind, items, *args, **kwargs):
            items = tuple(items)
            self.extra["structures.check_items"] += len(items)
            return bundle(kind, items, *args, **kwargs)

        structures.bundle = counting_bundle
        self._restore.append((structures, "bundle", bundle))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counters read off arguments and results ------------------------------

    def _post_gcd(self, args, _res):
        n = max(len(args[0].terms), len(args[1].terms))
        if n > self.extra["kernel.poly_gcd.max_terms"]:
            self.extra["kernel.poly_gcd.max_terms"] = n

    def _post_is_zero(self, _args, res):
        if res.samples_used:
            self.extra["zerotest.is_zero.sampled_calls"] += 1
            self.extra["zerotest.is_zero.samples"] += res.samples_used

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer number this tracer can give, by metric name."""
        out = {}
        for name in list(NAMED) + ["factors.quadrature_eval", "kernel.arith"]:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".top_calls"] = self.top_calls.get(name, 0)
            out[name + ".s"] = self.inclusive.get(name, 0.0)
            out[name + ".self_s"] = self.exclusive.get(name, 0.0)
        for mod in ("kernel", "zerotest", "linalg", "calculus", "structures",
                    "factors", "reduction", "scenario", "syntax", "cli"):
            out[mod + ".self_s"] = self.module_self.get(mod, 0.0)
        out.update(self.extra)
        return out

    def span_records(self) -> list:
        return [s for s in self.spans if s is not None]
