"""In-memory span tracer that times imzv's modules from outside.

Tracer.install() replaces each traced public function on every module
that binds it.  The functions are imported by name into verify, cli, zeta
and closedforms, so patching only the defining module would miss those
calls.  A call made while a span of the same layer is open runs unwrapped,
so spans and call counts mark entries into a layer.  A few hot methods of
coeffs and halg are wrapped with plain counters and get no spans.

Spans are lists [name, layer, start, end, parent], kept in memory until
per_layer_metrics() summarises them.  A layer's busy time is the sum of
its spans' self time: duration minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from workloads import EXTRA_RUNNERS, SUITE_IDS

clock = time.perf_counter

SPAN_FUNCTIONS = {
    "words": ("parse_word", "parse_index", "index_from_word", "word_from_index", "dual"),
    "tshuffle": ("tshuffle_words", "tshuffle", "shuffle_words", "split_product",
                 "block_product"),
    "closedforms": ("pattern_product", "height_one_product", "expanded_height_one_product",
                    "height_two_product", "alternating_product_sum",
                    "alternating_product_closed_form", "alternating_product_weight4_form"),
    "zeta": ("zeta_map", "expand_interpolation", "star_expand", "parse_zeta_combo"),
    "mzvnum": ("eval_mzv", "eval_combo"),
    "cli": ("main",),
}

# position of the memo argument of the t-shuffle engines that take one
MEMO_ARG = {"tshuffle_words": 2, "tshuffle": 2, "shuffle_words": 2, "split_product": 3}

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [("tshuffle.busy_s", "s"), ("tshuffle.calls", "count"),
     ("tshuffle.terms_out", "count"), ("tshuffle.memo_entries", "count"),
     ("halg.add_calls", "count"), ("halg.add_terms_copied", "count"),
     ("coeffs.qtpoly_init", "count"), ("coeffs.qtpoly_add", "count"),
     ("coeffs.qtpoly_mul", "count"),
     ("closedforms.busy_s", "s"), ("closedforms.calls", "count"),
     ("closedforms.terms_out", "count"),
     ("zeta.busy_s", "s"), ("zeta.calls", "count"), ("zeta.terms_out", "count"),
     ("mzvnum.busy_s", "s"), ("mzvnum.evals", "count"), ("mzvnum.cache_hits", "count"),
     ("mzvnum.cascade_elems", "count"), ("mzvnum.tol_misses", "count"),
     ("verify.busy_s", "s")]
    + [("verify.%s.s" % sid, "s") for sid in SUITE_IDS]
    + [("cli.busy_s", "s"), ("cli.out_bytes", "bytes"),
       ("words.busy_s", "s"), ("words.calls", "count"),
       ("trace.overhead_frac", "ratio"), ("trace.coverage", "ratio")]
)


def _imzv_modules():
    return [m for n, m in sys.modules.items() if n == "imzv" or n.startswith("imzv.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # ---------------------------------------------------------------- wrappers

    def _timed(self, layer, name, fn, before=None, after=None):
        """Wrap fn in a span of `layer`.  before(args, kwargs) may rewrite the
        arguments and returns state for after(state, result, entry), which
        runs on every call; entry is False for calls nested in the layer."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            entry = not (stack and spans[stack[-1]][1] == layer)
            if entry:
                span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[2] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
                counts[layer + ".calls"] += 1
                terms = getattr(result, "terms", None)
                if terms is not None:
                    counts[layer + ".terms_out"] += len(terms)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(state, result, entry)
            return result

        return wrapper

    def _memo_hooks(self, pos):
        """Pass the engine an explicit memo when it got none (the engines
        make an empty one themselves) and count the entries it adds."""
        counts = self.counts

        def before(args, kwargs):
            memo = args[pos] if len(args) > pos else kwargs.get("cache")
            if memo is None:
                memo = {}
                if len(args) > pos:
                    args = args[:pos] + (memo,) + args[pos + 1:]
                else:
                    kwargs = dict(kwargs, cache=memo)
            return args, kwargs, (memo, len(memo))

        def after(state, result, entry):
            if entry:
                counts["tshuffle.memo_entries"] += len(state[0]) - state[1]

        return before, after

    def _eval_mzv_hooks(self):
        counts = self.counts

        def before(args, kwargs):
            index = args[0] if args else kwargs["index"]
            cutoff = args[2] if len(args) > 2 else kwargs.get("cutoff")
            cache = args[3] if len(args) > 3 else kwargs.get("cache")
            depth = len(getattr(index, "parts", index))
            return args, kwargs, (depth, cutoff, cache, None if cache is None else len(cache))

        def after(state, result, entry):
            depth, cutoff, cache, size = state
            counts["mzvnum.evals"] += 1
            if cutoff is None and cache is not None and len(cache) == size:
                counts["mzvnum.cache_hits"] += 1
            else:
                # the cascade holds one array of cutoff + 1 floats per part
                counts["mzvnum.cascade_elems"] += depth * (result.cutoff_used + 1)
            if entry and not result.tol_ok:
                counts["mzvnum.tol_misses"] += 1

        return before, after

    def _tol_hook(self):
        counts = self.counts

        def after(state, result, entry):
            if entry and not result.tol_ok:
                counts["mzvnum.tol_misses"] += 1

        return after

    def _counted(self, key, fn, copied=False):
        counts = self.counts
        if copied:
            def wrapper(self_, other):
                counts[key] += 1
                counts["halg.add_terms_copied"] += len(self_.terms)
                return fn(self_, other)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # ----------------------------------------------------------- install/undo

    def _patch(self, obj, name, value):
        self._undo.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    def _patch_everywhere(self, fn, wrapper):
        for mod in _imzv_modules():
            if mod.__dict__.get(fn.__name__) is fn:
                self._patch(mod, fn.__name__, wrapper)

    def install(self):
        for layer in list(SPAN_FUNCTIONS) + ["verify"]:
            importlib.import_module("imzv." + layer)
        for layer, names in SPAN_FUNCTIONS.items():
            home = sys.modules["imzv." + layer]
            for name in names:
                fn = getattr(home, name)
                before = after = None
                if name in MEMO_ARG:
                    before, after = self._memo_hooks(MEMO_ARG[name])
                elif name == "eval_mzv":
                    before, after = self._eval_mzv_hooks()
                elif name == "eval_combo":
                    after = self._tol_hook()
                wrapper = self._timed(layer, "%s.%s" % (layer, name), fn, before, after)
                self._patch_everywhere(fn, wrapper)

        verify = sys.modules["imzv.verify"]
        runners = dict(verify.SUITES)
        runners.update((sid, getattr(verify, attr)) for sid, attr in EXTRA_RUNNERS.items())
        for sid, fn in runners.items():
            wrapper = self._timed("verify", sid, fn)
            self._patch_everywhere(fn, wrapper)
            if verify.SUITES.get(sid) is fn:
                self._undo.append((verify.SUITES, sid, fn))
                verify.SUITES[sid] = wrapper

        qtpoly = sys.modules["imzv.coeffs"].QtPoly
        self._patch(qtpoly, "__init__", self._counted("coeffs.qtpoly_init", qtpoly.__init__))
        for op in ("add", "mul"):
            wrapper = self._counted("coeffs.qtpoly_" + op, qtpoly.__dict__["__%s__" % op])
            self._patch(qtpoly, "__%s__" % op, wrapper)
            self._patch(qtpoly, "__r%s__" % op, wrapper)
        helement = sys.modules["imzv.halg"].HElement
        self._patch(helement, "__add__",
                    self._counted("halg.add_calls", helement.__add__, copied=True))

    def uninstall(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[name] = value
            else:
                setattr(obj, name, value)

    # ----------------------------------------------------------------- report

    def per_layer_metrics(self, traced_wall_s, untraced_wall_s):
        """Every PER_LAYER metric for the work traced since install()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        busy = Counter()
        suite_s = Counter()
        for i, (name, layer, start, end, parent) in enumerate(spans):
            busy[layer] += (end - start) - child[i]
            if layer == "verify":
                suite_s[name] += end - start
        values = {}
        for metric, unit in PER_LAYER:
            layer, _, rest = metric.partition(".")
            if metric == "trace.overhead_frac":
                value = traced_wall_s / untraced_wall_s - 1.0
            elif metric == "trace.coverage":
                value = sum(busy.values()) / traced_wall_s
            elif rest == "busy_s":
                value = busy[layer]
            elif layer == "verify":
                value = suite_s[rest[:-2]]
            else:
                value = self.counts[metric]
            values[metric] = {"value": value, "unit": unit}
        return values
