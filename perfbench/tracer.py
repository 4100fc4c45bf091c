"""Outside-in tracer for zpgenus: spans around calls into public functions.

Nothing inside ``src/`` is changed.  ``Tracer.install`` replaces each traced
function, in every ``zpgenus`` module namespace that holds a reference to it
(``from .genus import power_system`` makes a copy in ``engine`` and ``cpn``),
by a wrapper that records a span; ``Series`` and ``CycloElem`` methods are
wrapped on the class.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent index, op id]``.  Spans stay in memory
and are summarised, or written out, once at the end.  A traced name that is
missing at the measured commit is reported as absent, never as an error, so
that a later change that deletes a function does not break the benchmark.
"""
from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

# (module, attribute path) of every traced callable.  The span name is
# "<module>.<attribute path>"; genus_mod_p spans also carry the route.
TRACED = (
    ("cli", "main"),
    ("genus", "make_genus"),
    ("genus", "power_system"),
    ("series", "Series.revert"),
    ("series", "Series.compose"),
    ("series", "Series.__mul__"),
    ("series", "Series.invert"),
    ("engine", "genus_mod_p"),
    ("engine", "a_series"),
    ("engine", "b_series"),
    ("engine", "cf_residuals"),
    ("engine", "thm71_check"),
    ("engine", "h_series"),
    ("cyclotomic", "ab_trace"),
    ("cyclotomic", "CycloElem.invert"),
    ("cyclotomic", "CycloElem.__mul__"),
    ("cpn", "check_eq45"),
    ("cpn", "check_eq46"),
)

# Calls whose results are compared by identity for the hit ratio.
HIT_TRACKED = ("genus.make_genus", "genus.power_system", "engine.b_series")
# Calls whose returned series feed rings.coeff_bits.max and graded_terms.max.
HEIGHT_TRACKED = ("genus.make_genus", "genus.power_system", "engine.a_series")


def _route_of(args, kwargs):
    if "route" in kwargs:
        return kwargs["route"]
    return args[2] if len(args) > 2 else "pseries"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.absent = []
        self.counters = {}
        self.max_bits = 0
        self.max_terms = 0
        self._installed = []  # (owner, attribute, original)
        self._seen = {name: set() for name in HIT_TRACKED}
        self._hits = {name: 0 for name in HIT_TRACKED}
        self._keep = []  # results held so that their ids are never reused

    # -- installation ----------------------------------------------------------
    def install(self):
        """Wrap every traced name; a no-op while installed."""
        if self._installed:
            return self
        self.absent = []
        for module, path in TRACED:
            name = f"{module}.{path}"
            try:
                owner_mod = importlib.import_module(f"zpgenus.{module}")
            except ImportError:
                owner_mod = None
            parts = path.split(".")
            target = owner_mod
            for part in parts[:-1]:
                target = getattr(target, part, None)
            original = getattr(target, parts[-1], None) if target is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(parts) > 1:
                # a method: every class attribute bound to it (Series.__rmul__)
                for attr, val in list(vars(target).items()):
                    if val is original:
                        self._replace(target, attr, original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "zpgenus" or mod_name.startswith("zpgenus.")):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._replace(mod, attr, original, wrapper)
        return self

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- the wrapper -----------------------------------------------------------
    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        by_route = name == "engine.genus_mod_p"
        hit = name in HIT_TRACKED
        height = name in HEIGHT_TRACKED
        is_a_series = name == "engine.a_series"

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{_route_of(args, kwargs)}" if by_route else name
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            new = tracer._note_hit(name, result) if hit else True
            if height and new:
                tracer._note_height(result)
            if is_a_series:
                tracer._note_order(args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _note_hit(self, name, result):
        """Count a hit if this exact object was returned before; True if new."""
        seen = self._seen[name]
        if id(result) in seen:
            self._hits[name] += 1
            return False
        seen.add(id(result))
        self._keep.append(result)
        return True

    def _note_order(self, args, kwargs):
        weights = kwargs.get("weights", args[1] if len(args) > 1 else ())
        order = kwargs.get("order", args[2] if len(args) > 2 else 0)
        if len(weights):
            c = self.counters
            c["a_series.order"] = c.get("a_series.order", 0) + order
            c["a_series.weights"] = c.get("a_series.weights", 0) + len(weights)

    def _note_height(self, obj):
        for series in (getattr(obj, "logarithm", None), getattr(obj, "f_series", None), obj):
            for c in getattr(series, "coeffs", ()):
                self._note_coeff(c)

    def _note_coeff(self, c):
        terms = getattr(c, "terms", None)
        if terms is not None:
            self.max_terms = max(self.max_terms, len(terms))
            for v in terms.values():
                self._note_coeff(v)
            return
        if isinstance(c, (Fraction, int)):
            c = Fraction(c)
            self.max_bits = max(
                self.max_bits, c.numerator.bit_length(), c.denominator.bit_length()
            )

    def state(self):
        """What a traced process hands back besides its spans."""
        return {
            "absent": list(self.absent),
            "hits": dict(self._hits),
            "counters": dict(self.counters),
            "max_bits": self.max_bits,
            "max_terms": self.max_terms,
        }


def summarize(spans):
    """Per span name: calls, s (outermost spans only), self_s.

    Self time is a span's duration minus the durations of its direct child
    spans, which nest inside it.
    """
    child_time = [0.0] * len(spans)
    agg = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
    for i, (name, start, end, parent, _op) in enumerate(spans):
        dur = end - start
        entry = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[i]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            entry["s"] += dur
    return agg

