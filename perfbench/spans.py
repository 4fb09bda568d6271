"""Per-layer spans recorded from the benchmark's side of the API.

While a SpanRecorder is installed, every public module-level function of
the pcanon layers is replaced, in every pcanon namespace that binds it,
by a wrapper that records one span per call: its layer, its duration, and
the time of the public calls it made (so self time is duration minus
children). linalg._minpoly_exact is wrapped too (see SPAN_ALIASES), and
wedge._no_carry is counted, not timed, as the pairs the characteristic-p
wedge scans. Uninstalling restores the originals. Nothing under src/
changes.
"""
from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("scalar", "linalg", "pcf", "matfun", "kronmin", "lrs", "wedge", "cli")

#: functions that share one span, so nesting between them counts once;
#: the exact path reaches linalg._minpoly_exact without a public call
SPAN_ALIASES = {
    "linalg._minpoly_exact": "linalg.minpoly",
    "kronmin.eig_spec_of_matrix": "kronmin.eig_spec",
    "kronmin.eig_spec_of_poly": "kronmin.eig_spec",
}


def _entry_bits(form) -> int:
    """Largest numerator or denominator bit length in a built form."""
    best = 0
    mats = [v for _, v in form.nilpotent_terms]
    for _, coeffs in form.geometric_terms:
        mats.extend(coeffs)
    for m in mats:
        for row in m.rows:
            for e in row:
                if hasattr(e, "denominator"):
                    best = max(best, abs(e.numerator).bit_length(),
                               e.denominator.bit_length())
                elif hasattr(e, "res"):
                    best = max(best, e.res.bit_length())
    return best


class SpanRecorder:
    def __init__(self):
        self.busy = defaultdict(float)      # span name -> outermost seconds
        self.self_s = defaultdict(float)    # span name -> seconds minus children
        self.calls = defaultdict(int)       # layer -> spans
        self.failed = defaultdict(int)      # layer -> spans that raised
        self.counts = defaultdict(int)      # summed counters
        self.maxima = defaultdict(int)      # largest-seen counters
        self.refused_factor_s = 0.0
        self._stack = []                    # [start, child seconds]
        self._active = defaultdict(int)     # span name -> open depth
        self._saved = []

    # -- installation ----------------------------------------------------
    def install(self):
        mods = {name: importlib.import_module(f"pcanon.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("pcanon"), *mods.values()]
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in SPAN_ALIASES)):
                    wrappers[fn] = self._wrap(fn, SPAN_ALIASES.get(name, name), layer)
        no_carry = getattr(mods["wedge"], "_no_carry", None)
        if no_carry is not None:
            wrappers[no_carry] = self._counter(no_carry, "wedge.pairs_scanned")
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])
        return self

    def uninstall(self):
        for ns, attr, val in reversed(self._saved):
            setattr(ns, attr, val)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers --------------------------------------------------------
    def _counter(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, span, layer):
        rec = self

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            rec._stack.append(frame)
            rec._active[span] += 1
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                total = perf_counter() - frame[0]
                rec._stack.pop()
                rec._active[span] -= 1
                if rec._stack:
                    rec._stack[-1][1] += total
                if not rec._active[span]:
                    rec.busy[span] += total
                rec.self_s[span] += total - frame[1]
                rec.calls[layer] += 1
                if raised:
                    rec.failed[layer] += 1
                else:
                    rec._observe(span, args, result, total)

        traced.__wrapped__ = fn
        return traced

    def _observe(self, span, args, result, total):
        """Counters read off a finished call's arguments and result."""
        if span == "scalar.poly_factor":
            self.counts["scalar.roots_found"] += len(result.roots)
            if result.remainder.degree > 0:
                self.refused_factor_s += total
        elif span == "linalg.minpoly":
            self.maxima["linalg.minpoly_degree"] = max(
                self.maxima["linalg.minpoly_degree"], result.degree)
        elif span == "pcf.pcf_build":
            self.maxima["linalg.entry_bits"] = max(
                self.maxima["linalg.entry_bits"], _entry_bits(result))
        elif span == "kronmin.product_class_table":
            tuples = 1
            for spec in args[0]:
                tuples *= len(spec.nonzero)
            self.counts["kronmin.class_tuples"] += tuples
            self.counts["kronmin.classes"] += len(result.entries)
        elif span == "lrs.lrs_prefix":
            self.counts["lrs.eval_terms"] += len(result)
        elif span == "lrs.lrs_min_annihilator":
            self.maxima["lrs.annihilator_degree"] = max(
                self.maxima["lrs.annihilator_degree"], result.degree)
