"""Span tracing around the public functions of each surfcluster layer.

Nothing inside the program is changed: the tracer replaces public names
with timing wrappers, in the module that defines each name and in every
module that imported it by name (`expand` binds `height_exponents`,
`weight_exps`, ... at import time, so patching the defining module alone
would miss those calls).  `LaurentPoly.mul`, `div_exact` and
`canonical_text` are patched on the class.

A span is (name, start, end, parent span index, item id).  Spans are kept
in memory and written out when the run ends.  A layer's self time is the
duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

# span name -> (module, public names)
_FUNCTIONS = {
    "cli.parse": ("cli", ("parse_surface", "parse_arc", "parse_seed")),
    "surface.validate": ("surface", ("validate_surface", "validate_path")),
    "snake.build": ("snake", ("build_snake", "build_loop_graph")),
    "matchings.enumerate": ("matchings", ("enumerate_matchings",)),
    "matchings.symmetric": ("matchings", ("gamma_symmetric_filter",)),
    "matchings.end_restriction": ("matchings", ("perfect_end_restriction",)),
    "matchings.compatible": ("matchings", ("compatible_pairs",)),
    "matchings.height": ("matchings", ("height_exponents",)),
    "matchings.weight": ("matchings", ("weight_exps",)),
    "matchings.phi": ("matchings", ("phi_exps",)),
    "matchings.minmax": ("matchings", ("minimal_maximal",)),
    "expand": ("expand", ("expand_ordinary", "expand_single_notch",
                          "expand_double_notch", "expand_notched_loop")),
    "mutation.step": ("mutation", ("mutate_seed",)),
}
_MODULES = ("cli", "surface", "snake", "matchings", "expand", "mutation")

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "cli.parse_s": "s", "cli.parse_calls": "count",
    "surface.validate_s": "s",
    "snake.build_s": "s", "snake.graphs": "count", "snake.tiles": "count",
    "matchings.enumerate_s": "s", "matchings.enumerated": "count",
    "matchings.symmetric_s": "s", "matchings.symmetric_yield": "ratio",
    "matchings.end_restriction_s": "s",
    "matchings.compatible_s": "s", "matchings.pair_yield": "ratio",
    "matchings.height_s": "s", "matchings.height_calls": "count",
    "matchings.weight_s": "s", "matchings.weight_calls": "count",
    "matchings.phi_s": "s", "matchings.phi_calls": "count",
    "matchings.minmax_s": "s",
    "expand.self_s": "s", "expand.calls": "count",
    "expand.terms_out": "count",
    "poly.mul_s": "s", "poly.mul_calls": "count",
    "poly.mul_term_pairs": "count",
    "poly.div_monomial_s": "s",
    "poly.long_div_s": "s", "poly.long_div_calls": "count",
    "poly.long_div_quotient_terms": "count",
    "poly.canonical_text_s": "s",
    "mutation.step_s": "s", "mutation.self_s": "s",
    "mutation.steps": "count", "mutation.terms_out": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans while installed; restores every patched name on
    uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if on_result is not None:
                on_result(counts, parent, args, result)
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib
        mods = {m: importlib.import_module(f"surfcluster.{m}") for m in _MODULES}
        for span, (home, names) in _FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[home], fname)
                wrapper = self._wrap(span, original, _ON_RESULT.get(fname))
                for mod in mods.values():
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapper)
        from surfcluster.poly import LaurentPoly
        self._patch(LaurentPoly, "mul", self._wrap_mul(LaurentPoly.mul))
        self._patch(LaurentPoly, "div_exact",
                    self._wrap_div(LaurentPoly.div_exact))
        self._patch(LaurentPoly, "canonical_text",
                    self._wrap("poly.canonical_text",
                               LaurentPoly.canonical_text))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap_mul(self, mul):
        traced = self._wrap("poly.mul", mul)
        counts = self.counts

        @functools.wraps(mul)
        def counted(a, b):
            counts["poly.mul_calls"] += 1
            counts["poly.mul_term_pairs"] += a.num_terms() * b.num_terms()
            return traced(a, b)
        return counted

    def _wrap_div(self, div):
        # split by an observable property of the arguments
        mono = self._wrap("poly.div_monomial", div)
        long_ = self._wrap("poly.long_div", div)
        counts = self.counts

        @functools.wraps(div)
        def split(a, b):
            if b.is_monomial():
                return mono(a, b)
            q = long_(a, b)
            counts["poly.long_div_calls"] += 1
            counts["poly.long_div_quotient_terms"] += q.num_terms()
            return q
        return split

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def total_time(self, name):
        return sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)

    def layer_metrics(self):
        st, c = self.self_times(), self.counts
        n = {name: 0 for name in _FUNCTIONS}
        for span in self.spans:
            n[span[0]] = n.get(span[0], 0) + 1
        return {
            "cli.parse_s": st["cli.parse"],
            "cli.parse_calls": n["cli.parse"],
            "surface.validate_s": st["surface.validate"],
            "snake.build_s": st["snake.build"],
            "snake.graphs": c["snake.graphs"],
            "snake.tiles": c["snake.tiles"],
            "matchings.enumerate_s": st["matchings.enumerate"],
            "matchings.enumerated": c["matchings.enumerated"],
            "matchings.symmetric_s": st["matchings.symmetric"],
            "matchings.symmetric_yield": _ratio(c["matchings.symmetric_kept"],
                                                c["matchings.symmetric_in"]),
            "matchings.end_restriction_s": st["matchings.end_restriction"],
            "matchings.compatible_s": st["matchings.compatible"],
            "matchings.pair_yield": _ratio(c["matchings.pairs"],
                                           c["matchings.pair_candidates"]),
            "matchings.height_s": st["matchings.height"],
            "matchings.height_calls": n["matchings.height"],
            "matchings.weight_s": st["matchings.weight"],
            "matchings.weight_calls": n["matchings.weight"],
            "matchings.phi_s": st["matchings.phi"],
            "matchings.phi_calls": n["matchings.phi"],
            "matchings.minmax_s": st["matchings.minmax"],
            "expand.self_s": st["expand"],
            "expand.calls": c["expand.calls"],
            "expand.terms_out": c["expand.terms_out"],
            "poly.mul_s": st["poly.mul"],
            "poly.mul_calls": c["poly.mul_calls"],
            "poly.mul_term_pairs": c["poly.mul_term_pairs"],
            "poly.div_monomial_s": st["poly.div_monomial"],
            "poly.long_div_s": st["poly.long_div"],
            "poly.long_div_calls": c["poly.long_div_calls"],
            "poly.long_div_quotient_terms": c["poly.long_div_quotient_terms"],
            "poly.canonical_text_s": st["poly.canonical_text"],
            "mutation.step_s": self.total_time("mutation.step"),
            "mutation.self_s": st["mutation.step"],
            "mutation.steps": n["mutation.step"],
            "mutation.terms_out": c["mutation.terms_out"],
        }

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7),
                                     parent, item]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


# -- counters read from arguments and results --------------------------------


def _graphs(counts, parent, args, g):
    counts["snake.graphs"] += 1
    counts["snake.tiles"] += g.d


def _enumerated(counts, parent, args, ms):
    counts["matchings.enumerated"] += len(ms)


def _symmetric(counts, parent, args, kept):
    counts["matchings.symmetric_in"] += len(args[1])
    counts["matchings.symmetric_kept"] += len(kept)


def _pairs(counts, parent, args, pairs):
    # expand passes both symmetric-matching lists positionally
    counts["matchings.pairs"] += len(pairs)
    counts["matchings.pair_candidates"] += len(args[2]) * len(args[3])


def _expansion(counts, parent, args, e):
    # count the expansion the caller asked for, not the nested ones
    if parent < 0:
        counts["expand.calls"] += 1
        counts["expand.terms_out"] += e.poly.num_terms()


def _step(counts, parent, args, seed):
    counts["mutation.terms_out"] += seed.cluster[args[1]].num_terms()


_ON_RESULT = {
    "build_snake": _graphs,
    "enumerate_matchings": _enumerated,
    "gamma_symmetric_filter": _symmetric,
    "compatible_pairs": _pairs,
    "expand_ordinary": _expansion,
    "expand_single_notch": _expansion,
    "expand_double_notch": _expansion,
    "expand_notched_loop": _expansion,
    "mutate_seed": _step,
}
