"""Span recording and counters taken from outside the cqcalc package.

Nothing here edits the package: the tracer replaces module attributes with
wrappers for the length of one traced pass and puts the originals back
afterwards.  Wrappers go on the names as the *calling* module binds them,
because the package imports with `from .x import name`; wrapping the
defining module would miss those calls.
"""

from collections import Counter
from time import perf_counter

# (name, unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("quadrics.self_s", "s", "lower"),
    ("quadrics.reduce_calls", "count", "lower"),
    ("quadrics.memo_states", "count", "lower"),
    ("quadrics.memo_hit_ratio", "ratio", "higher"),
    ("quadrics.mixed_basis_solves", "count", "lower"),
    ("quadrics.poly_s", "s", "lower"),
    ("schubert.flag_integral_s", "s", "lower"),
    ("schubert.flag_integral_calls", "count", "lower"),
    ("schubert.flag_integral_evals", "count", "lower"),
    ("schubert.monk_covers", "count", "lower"),
    ("exactmath.solve_s", "s", "lower"),
    ("exactmath.solve_calls", "count", "lower"),
    ("exactmath.rank_s", "s", "lower"),
    ("exactmath.rank_calls", "count", "lower"),
    ("exactmath.interpolate_s", "s", "lower"),
    ("toric.fan_build_s", "s", "lower"),
    ("toric.multiply_s", "s", "lower"),
    ("toric.multiply_calls", "count", "lower"),
    ("toric.cone_lookups", "count", "lower"),
    ("toric.dual_functionals", "count", "lower"),
    ("toric.self_s", "s", "lower"),
    ("matroid.charpoly_s", "s", "lower"),
    ("matroid.rank_oracle_calls", "count", "lower"),
    ("matroid.self_s", "s", "lower"),
    ("cells.chow_s", "s", "lower"),
    ("cells.two_permutations", "count", "lower"),
    ("cells.verify_s", "s", "lower"),
    ("cells.self_s", "s", "lower"),
    ("segre.self_s", "s", "lower"),
    ("cli.handler_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("cli.contract_failures", "count", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Per-layer values that must repeat exactly for one seed.
DETERMINISTIC = tuple(
    name for name, unit, _ in LAYER_METRICS
    if unit == "count" or name == "quadrics.memo_hit_ratio"
)

# Per-layer values taken from a counting pass.  Their wrappers run inside
# the layers' spans, so they are kept out of the passes whose times are
# reported.
COUNTED = ("quadrics.reduce_calls", "quadrics.memo_hit_ratio", "matroid.rank_oracle_calls")

# Span name -> per-layer metric that sums the spans' durations.
_SPAN_TOTALS = {
    "quadrics.poly": "quadrics.poly_s",
    "schubert.flag_integral": "schubert.flag_integral_s",
    "exactmath.solve": "exactmath.solve_s",
    "exactmath.rank": "exactmath.rank_s",
    "exactmath.interpolate": "exactmath.interpolate_s",
    "toric.fan_build": "toric.fan_build_s",
    "toric.multiply": "toric.multiply_s",
    "matroid.charpoly": "matroid.charpoly_s",
    "cells.chow": "cells.chow_s",
    "cells.verify": "cells.verify_s",
}

# Span name -> per-layer metric that counts the spans.
_SPAN_COUNTS = {
    "schubert.flag_integral": "schubert.flag_integral_calls",
    "exactmath.solve": "exactmath.solve_calls",
    "exactmath.rank": "exactmath.rank_calls",
    "toric.multiply": "toric.multiply_calls",
}

_SELF_TIME_LAYERS = ("quadrics", "toric", "matroid", "cells", "segre")


class Tracer:
    """In-memory spans `[name, start, end, parent index, op id]` and counters.

    A span's layer is the part of its name before the first dot.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._installed = []
        self._fans = []

    def call(self, name, fn, *args):
        spans, stack = self.spans, self._stack
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args)
        finally:
            stack.pop()
            span[2] = perf_counter()

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        call = self.call

        def traced(*args):
            result = call(name, original, *args)
            if on_result is not None:
                on_result(result)
            return result

        self._replace(owner, attr, traced)

    def install(self, matroids=(), counting=False):
        """Wrap the layer boundaries in spans; with `counting`, count the
        calls of `_reduce` and of the `matroids`' rank oracles instead."""
        if counting:
            self._install_counters(matroids)
            return
        counts = self.counts
        q = self.lib.quadrics
        self._span(q, "flag_integral", "schubert.flag_integral")
        self._span(q, "solve_linear_system", "exactmath.solve")
        self._span(q, "interpolate", "exactmath.interpolate")
        self._span(self.lib.toric, "solve_linear_system", "exactmath.solve")
        self._span(self.lib.matroid, "matrix_rank", "exactmath.rank")
        self._span(self.lib.toric, "permutohedral_fan", "toric.fan_build", self._fans.append)
        self._span(self.lib.toric, "multiply_by_divisor", "toric.multiply")
        self._span(
            self.lib.cells, "enumerate_two_permutations", "cells.enumerate",
            lambda out: counts.update({"cells.two_permutations": len(out)}),
        )

    def _install_counters(self, matroids):
        counts, q = self.counts, self.lib.quadrics
        reduce_, memo = q._reduce, q._product_memo

        def counted_reduce(n, a, b, pick):
            counts["quadrics.reduce_calls"] += 1
            if pick is None and (n, a, b) in memo:
                counts["quadrics.memo_hits"] += 1
            return reduce_(n, a, b, pick)

        self._replace(q, "_reduce", counted_reduce)

        for m in matroids:
            oracle = m._rank

            def counted_rank(subset, oracle=oracle):
                counts["matroid.rank_oracle_calls"] += 1
                return oracle(subset)

            self._replace(m, "_rank", counted_rank)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def cache_sizes(self):
        q, s = self.lib.quadrics, self.lib.schubert
        return (
            len(q._product_memo),
            len(s._integral_memo),
            len(s._cover_cache),
            q._mixed_basis_expansion.cache_info().misses,
        )

    def add_cache_growth(self, before):
        """Count what one op added to the memo tables since `before`, and
        the cone and dual-functional caches of the fans it built."""
        after = self.cache_sizes()
        names = (
            "quadrics.memo_states",
            "schubert.flag_integral_evals",
            "schubert.monk_covers",
            "quadrics.mixed_basis_solves",
        )
        for name, old, new in zip(names, before, after):
            self.counts[name] += new - old
        for fan in self._fans:
            self.counts["toric.cone_lookups"] += len(fan._cone_lookup)
            self.counts["toric.dual_functionals"] += len(fan._dual_cache)
        self._fans.clear()

    def pass_metrics(self):
        """Per-layer values for the spans and counts recorded so far."""
        out = {name: 0 for name, _, _ in LAYER_METRICS}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            layer_self[name.split(".", 1)[0]] += duration - child[index]
            if name in _SPAN_TOTALS:
                out[_SPAN_TOTALS[name]] += duration
            if name in _SPAN_COUNTS:
                out[_SPAN_COUNTS[name]] += 1
        for layer in _SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for name in out:
            if name in self.counts:
                out[name] = self.counts[name]
        calls = self.counts["quadrics.reduce_calls"]
        if calls:
            out["quadrics.memo_hit_ratio"] = self.counts["quadrics.memo_hits"] / calls
        return out

    def reset(self):
        self.spans = []
        self.counts.clear()
        self._stack.clear()
        self._fans.clear()
