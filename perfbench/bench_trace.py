"""Spans around the calls into kronmul's layers, recorded from outside.

The tracer replaces, for the duration of a traced pass, the names through
which one module calls into the next (``ksint.pack``, ``ksint.mul``,
``modpoly._VARIANT_FUNCS``, ...) and the constructors that validate
(``ModPoly``, ``CoeffVec``, ``BiPoly``) with wrappers that record a span:
its name, its parent span, the operation it belongs to, start and end.
A layer's self time is its spans' durations minus the time of their
child spans.  Nothing in the library changes; removing the wrappers
restores the original objects.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Span names; "op" is the benchmark's own root span around one request.
ROOT = "op"
LAYER_SPANS = ("modpoly", "modpoly.validate", "pack.validate", "pack",
               "bignat.mul", "ksint", "bipoly")


def _magnitude_limbs(x) -> int:
    return (abs(int(x)).bit_length() + 63) // 64


def self_times(spans) -> tuple[Counter, Counter]:
    """Per-name self time (ns) and per-(parent name, name) call counts.

    ``spans`` holds (op, name, parent index or -1, start ns, end ns) tuples
    indexed by position.
    """
    child = [0] * len(spans)
    for _, _, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    own = Counter()
    calls = Counter()
    for (_, name, parent, t0, t1), inner in zip(spans, child):
        own[name] += t1 - t0 - inner
        calls[(spans[parent][1] if parent >= 0 else None, name)] += 1
    return own, calls


class Tracer:
    """Records spans while installed; ``fold`` turns them into totals."""

    def __init__(self, km):
        self.km = km
        self.stats = km.bignat.MulStats()
        self.spans: list = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = self._plan()

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped to record a span; ``count(args, result)`` runs
        after the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = stack[0] if stack else idx
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (op, name, parent, t0, t1)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _plan(self):
        # (namespace, attribute or key, original, wrapper) per call site.
        km = self.km
        mp, pk, ks, bp = km.modpoly, km.pack, km.ksint, km.bipoly
        counts = self.counts
        plan = []

        def attr(obj, name, span_name, count=None, fn=None):
            original = getattr(obj, name)
            plan.append((obj, name, original,
                         self.span(span_name, fn or original, count)))

        for cls, span_name in ((mp.ModPoly, "modpoly.validate"),
                               (pk.CoeffVec, "pack.validate"),
                               (bp.BiPoly, "bipoly")):
            attr(cls, "__init__", span_name)
        mod_mul = mp.mod_mul

        def mod_mul_counted(f, g, variant=mp.Variant.AUTO, **kwargs):
            return mod_mul(f, g, variant, stats=self.stats, **kwargs)

        attr(mp, "mod_mul", "modpoly", fn=mod_mul_counted)
        for method in ("bks_standard", "bks_reciprocal", "bks_negated",
                       "bks_four"):
            attr(bp, method, "bipoly")

        def bytes_out(args, packed):
            counts["pack.bytes_out"] += (abs(int(packed)).bit_length() + 7) // 8

        for name in ("pack", "pack_reversed", "pack_negated",
                     "pack_negated_reversed"):
            attr(ks, name, "pack", bytes_out)

        def limbs(args, product):
            counts["bignat.operand_limbs"] += (_magnitude_limbs(args[0])
                                               + _magnitude_limbs(args[1]))

        for name in ("mul", "mul_signed"):
            attr(ks, name, "bignat.mul", limbs)

        # modpoly dispatches through _VARIANT_FUNCS and compares with its
        # own ks1_mul binding, so both must see the same wrapper.
        table = mp._VARIANT_FUNCS
        for variant, fn in list(table.items()):
            key = variant.value

            def ran(args, result, key=key):
                counts["ksint." + key] += 1

            wrapped = self.span("ksint", fn, ran)
            plan.append((table, variant, fn, wrapped))
            if fn is mp.ks1_mul:
                plan.append((mp, "ks1_mul", fn, wrapped))
        return plan

    @staticmethod
    def _set(target, key, value):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        for target, key, _, traced in self._patches:
            self._set(target, key, traced)
        try:
            yield
        finally:
            for target, key, original, _ in self._patches:
                self._set(target, key, original)
            self.fold()

    def fold(self) -> None:
        """Add the recorded spans to the totals and drop them."""
        own, calls = self_times(self.spans)
        self.self_ns.update(own)
        self.calls.update(calls)
        self.spans.clear()
