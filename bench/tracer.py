"""Outside-in tracer for the axia benchmark.

The program has no spans of its own, so this module wraps its public
functions from outside: every public module-level function of each axia
module, plus a few hot methods, is replaced by a wrapper that records a
span (name, start, end, parent).  The replacement is made on every module
that imported the function, not only on the defining one, so
``cli.dump_json`` is traced as well as ``serialize.dump_json``.

Self time is kept online with a stack (a span's duration minus the time of
its direct children), so it stays exact when the span list is capped.
``self_times`` recomputes it offline from a list of spans; the benchmark's
self-test checks that both agree.

Counters are kept where a span per call would cost more than the call:
every ``Fraction`` and ``RationalFunction`` construction, the maximum
degree of a constructed rational function, the nontrivial ``poly_gcd``
results and the useful multiplications of ``Matrix.matvec``.
"""

from __future__ import annotations

import fractions
import functools
import time
import types
from collections import Counter

# The program's layers, in import order.
LAYERS = ("scalars", "linalg", "algebra", "completion", "catalog", "m4",
          "certify", "serialize", "cli")

# Methods traced as spans (module, class, method).
SPAN_METHODS = (("linalg", "Matrix", "matvec"), ("linalg", "Matrix", "matmul"),
                ("algebra", "Algebra", "mul"))

# Functions whose spans are kept apart for each scalar field.
BY_FIELD = frozenset({"certify.norton_matrix"})

# Public functions that run too often and too briefly to carry a span each:
# they are counted but their time stays in their caller's self time.
COUNT_ONLY = frozenset({"scalars.rat", "scalars.format_rational",
                        "scalars.rational_sign", "scalars.parse_rational",
                        "linalg.zero_vec", "linalg.unit_vec",
                        "linalg.vec_is_zero"})


class Tracer:
    """Spans and counts kept in memory; ``to_json`` writes them out."""

    def __init__(self, clock=time.perf_counter, max_spans=200_000):
        self.clock = clock
        self.max_spans = max_spans
        self.spans = []           # [name, start, end, parent index or -1]
        self.dropped = 0
        self.stats = {}           # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.max_degree = 0
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------
    def enter(self, name):
        start = self.clock()
        parent = self._stack[-1][4] if self._stack else -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        else:
            index = None
            self.dropped += 1
        # [start, child time, own span index, name, parent of children]
        self._stack.append([start, 0.0, index, name,
                            parent if index is None else index])

    def exit(self):
        end = self.clock()
        start, child_s, index, name, _ = self._stack.pop()
        duration = end - start
        if index is not None:
            self.spans[index][2] = end
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child_s

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def _wrap_by_field(self, name, fn):
        """A span named after the field of the first argument's algebra."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(alg, *args, **kwargs):
            enter(f"{name}[{alg.field.kind}]")
            try:
                return fn(alg, *args, **kwargs)
            finally:
                exit_()
        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation --------------------------------------------------------
    def install(self, modules, namespaces=()):
        """Wrap the public functions of ``modules`` (a dict layer -> module),
        the methods in SPAN_METHODS and the scalar constructors."""
        bindings_in = list(modules.values()) + list(namespaces)
        for layer, mod in modules.items():
            self.wrap_module(layer, mod, bindings_in)
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            wrapped = self.wrap(f"{layer}.{cls_name}.{meth}", fn)
            if (cls_name, meth) == ("Matrix", "matvec"):
                wrapped = self._matvec_counter(wrapped)
            self._patch(cls, meth, wrapped)
        self._count_constructions(modules["scalars"])

    def wrap_module(self, layer, mod, bindings_in):
        """Wrap each public function defined in ``mod`` and rebind every
        name bound to it in the namespaces ``bindings_in``."""
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name == "scalars.poly_gcd":
                wrapped = self.wrap(name, self._gcd_counter(fn))
            elif name in BY_FIELD:
                wrapped = self._wrap_by_field(name, fn)
            elif name in COUNT_ONLY:
                wrapped = self.count_calls(name, fn)
            else:
                wrapped = self.wrap(name, fn)
            for other in bindings_in:
                for oattr, value in list(vars(other).items()):
                    if value is fn:
                        self._patch(other, oattr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _gcd_counter(self, fn):
        counts = self.counts

        def poly_gcd(a, b):
            g = fn(a, b)
            if g.degree > 0:
                counts["scalars.poly_gcd.nontrivial"] += 1
            return g
        return poly_gcd

    def _matvec_counter(self, wrapped):
        counts = self.counts

        def matvec(m, v):
            is_zero = m.field.is_zero
            nz = [k for k, x in enumerate(v) if not is_zero(x)]
            counts["linalg.Matrix.matvec.mults"] += m.rows * len(v)
            counts["linalg.Matrix.matvec.useful_mults"] += sum(
                1 for row in m.data for k in nz if not is_zero(row[k]))
            return wrapped(m, v)
        return matvec

    def _count_constructions(self, scalars):
        counts = self.counts
        tracer = self
        frac_new = fractions.Fraction.__dict__["__new__"]
        frac_new_fn = frac_new.__func__

        def new(cls, *args, **kwargs):
            counts["scalars.Fraction"] += 1
            return frac_new_fn(cls, *args, **kwargs)
        self._patch(fractions.Fraction, "__new__", staticmethod(new))

        rf = scalars.RationalFunction
        rf_init = rf.__dict__["__init__"]

        def init(self, *args, **kwargs):
            rf_init(self, *args, **kwargs)
            counts["scalars.RationalFunction"] += 1
            d = max(len(self.num.coeffs), len(self.den.coeffs)) - 1
            if d > tracer.max_degree:
                tracer.max_degree = d
        self._patch(rf, "__init__", init)

    # -- output --------------------------------------------------------------
    def to_json(self):
        return {"spans": self.spans, "spans_dropped": self.dropped,
                "stats": {k: {"calls": c, "total_s": t, "self_s": s}
                          for k, (c, t, s) in sorted(self.stats.items())},
                "counts": dict(sorted(self.counts.items())),
                "max_degree": self.max_degree}


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


def self_times(spans):
    """Self time per span name from a complete span list: each span's
    duration minus the part of its interval that its children cover."""
    children = {}
    for index, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(index)
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        kids = sorted((max(spans[k][1], start), min(spans[k][2], end))
                      for k in children.get(index, ()))
        for a, b in kids:
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
