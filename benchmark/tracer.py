"""Span recording around bellforge's public functions, from outside the package.

:meth:`Tracer.install` replaces each public function of each bellforge
module, in every bellforge namespace that imported it, with a wrapper that
records a span ``(id, parent, name, start, end)``.  Self time is the span's
duration less its child spans.  Hot leaf functions whose bodies are a few
operations (argument checks, single divisor sums) are wrapped to count calls
only, since a span there would cost more than the call; their time stays in
the self time of the span that called them.

Run as a script it is a traced stand-in for ``python -m bellforge``::

    python3 benchmark/tracer.py --spans OUT.jsonl -- seq p --max 30

The spans go to ``OUT.jsonl`` as JSON lines before a ``meta`` line; stdout
and the exit code are the CLI's own.  :func:`summarise` turns spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

MODULES = ("arith", "supports", "partitions", "bellpoly", "series", "partfun", "verify", "errata", "cli")

COUNT_ONLY = {
    "arith.require_natural",
    "arith.require_positive",
    "arith.indicator",
    "arith.sigma",
    "bellpoly.faa_cap",
    "bellpoly.divisor_power_sum",
    "bellpoly.log_weight",
    "supports.divisors_in",
    "supports.spec_from_factors",
}

# methods that do series or divisor work, traced like module functions
METHODS = {
    "series": ("TruncatedSeries", ("mul", "reciprocal", "log", "exp", "int_pow")),
    "supports": ("SupportSet", ("divisors_in",)),
}


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def series_bits(series) -> int:
    return max(_bits(c) for c in series.coeffs)


def fold_ops(spec, order: int) -> int:
    """Inner-loop steps of the binomial fold for ``spec`` to ``order``: one
    pass of ``order - m + 1`` steps per support member ``m`` and per unit of
    ``|a|`` (computed from the spec, not counted inside the package)."""
    total = 0
    for f in spec.factors:
        s = f.support
        if s.kind == "all":
            members = range(1, order + 1)
        elif s.kind == "multiples":
            members = range(s.r, order + 1, s.r)
        else:
            members = [m for m in s.members if m <= order]
        total += abs(f.a) * sum(order - m + 1 for m in members)
    return total


class Tracer:
    """Records the spans of one thread; spans are lists
    ``[id, parent, name, start, end, child_time, child_count, attrs]``."""

    def __init__(self):
        self._stack: list[list] = []
        self._spans: list[list] = []
        self._ids = itertools.count(1)
        self.counts: dict[str, int] = {}
        self._last_series: dict = {}

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"bellforge.{name}") for name in MODULES}
        namespaces = [importlib.import_module("bellforge")] + list(mods.values())
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{name}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)
        for name, (cls_name, methods) in METHODS.items():
            cls = getattr(mods[name], cls_name)
            for meth in methods:
                wrapped = self._wrap(f"{name}.{meth}", getattr(cls, meth))
                setattr(cls, meth, wrapped)
                if meth == "mul":
                    cls.__mul__ = wrapped

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            counts = self.counts
            counts[name] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        after = _AFTER.get(name)
        stack = self._stack
        done = self._spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [next(ids), stack[-1][0] if stack else None, name, 0.0, 0.0, 0.0, 0, None]
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += end - span[3]
                    stack[-1][6] += 1
                done.append(span)
            if after is not None:
                span[7] = after(self, args, kwargs, result, span)
            return result

        return spanned

    def _wrap_generator(self, name: str, fn):
        # The span runs from the first item to exhaustion; items are counted.
        stack = self._stack
        done = self._spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [next(ids), stack[-1][0] if stack else None, name, 0.0, 0.0, 0.0, 0, None]
            stack.append(span)
            items = 0
            span[3] = clock()
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                end = span[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += end - span[3]
                    stack[-1][6] += 1
                span[7] = {"items": items}
                done.append(span)

        return spanned

    # --- output ---------------------------------------------------------

    def spans(self) -> list[dict]:
        """All finished spans as dicts, with ``self`` time and ``req``, the
        id of the root span of the request that caused them."""
        out = []
        root = {}
        for span in sorted(self._spans, key=lambda s: s[3]):
            sid, parent, name, start, end, child_s, _, attrs = span
            root[sid] = root.get(parent, sid) if parent is not None else sid
            rec = {"req": root[sid], "id": sid, "parent": parent, "name": name,
                   "start": start, "end": end, "self": end - start - child_s}
            if attrs:
                rec.update(attrs)
            out.append(rec)
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON lines, then a last line holding ``meta``,
        the call counts, and ``dump_s``, the time the dump itself took."""
        start = time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans():
                fh.write(json.dumps(rec) + "\n")
            meta = {**meta, "dump_s": time.perf_counter() - start}
            fh.write(json.dumps({"meta": meta, "counts": self.counts}) + "\n")


# --- per-function attributes, computed after the span has closed ----------

def _after_pps(tracer, args, kwargs, result, span):
    return {"n": args[0], "bits": _bits(result)}


def _after_weights(tracer, args, kwargs, result, span):
    return {"entries": len(result) - 1}


def _after_coefficients(tracer, args, kwargs, result, span):
    # a call that ran no closed sum returned a prefix already cached
    return {"hit": span[6] == 0}


def _after_ratio_series(tracer, args, kwargs, result, span):
    key = (args[0], args[1])
    prev = tracer._last_series.get(key)
    tracer._last_series[key] = result
    outcome = "hit" if prev is result else ("regrowth" if prev is not None else "miss")
    return {"outcome": outcome, "order": result.order}


def _after_expand(tracer, args, kwargs, result, span):
    return {"fold_ops": fold_ops(args[0], args[1]), "bits": series_bits(result)}


def _after_series_op(tracer, args, kwargs, result, span):
    return {"bits": series_bits(result)}


def _after_suite(tracer, args, kwargs, result, span):
    return {"checks": len(result)}


_AFTER = {
    "bellpoly.partition_power_sum": _after_pps,
    "bellpoly.log_weight_table": _after_weights,
    "bellpoly.product_coefficients": _after_coefficients,
    "bellpoly.reciprocal_coefficients": _after_coefficients,
    "partfun.ratio_series": _after_ratio_series,
    "series.expand_product": _after_expand,
    "series.mul": _after_series_op,
    "series.reciprocal": _after_series_op,
    "verify.run_suite": _after_suite,
}


# --- summary ---------------------------------------------------------------

# (metric name, unit); the per_layer list of BENCHMARK.json
PER_LAYER = (
    ("bellpoly.partition_power_sum.calls", "count"),
    ("bellpoly.partition_power_sum.self_s", "s"),
    ("bellpoly.partition_power_sum.terms_bound", "count"),
    ("bellpoly.partition_power_sum.max_bits", "bits"),
    ("bellpoly.log_weight_table.calls", "count"),
    ("bellpoly.log_weight_table.self_s", "s"),
    ("bellpoly.log_weight_table.entries", "count"),
    ("bellpoly.coefficients.calls", "count"),
    ("bellpoly.coefficients.hit_ratio", "ratio"),
    ("bellpoly.coefficients.self_s", "s"),
    ("series.expand_product.calls", "count"),
    ("series.expand_product.self_s", "s"),
    ("series.expand_product.fold_ops", "count"),
    ("series.reciprocal.calls", "count"),
    ("series.reciprocal.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.max_bits", "bits"),
    ("partfun.ratio_series.calls", "count"),
    ("partfun.ratio_series.self_s", "s"),
    ("partfun.ratio_series.hit_ratio", "ratio"),
    ("partfun.ratio_series.regrowths", "count"),
    ("partfun.ratio_series.max_order", "count"),
    ("partitions.iter_partitions.items", "count"),
    ("partitions.iter_partitions.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("verify.run_suite.checks", "count"),
    ("errata.build_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
) + tuple(
    (f"{module}.all.{stat}", unit) for module in MODULES for stat, unit in (("self_s", "s"), ("share", "ratio"))
) + (
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def tail_percentile(samples, highest=99.9):
    """``(q, value)``: the ``highest``-th percentile (nearest rank), or when
    fewer than ten samples lie above it, the highest percentile that has ten
    samples above it, so the value degrades smoothly as samples get fewer.
    Below 11 samples it is the median; ``(None, 0.0)`` for no samples."""
    data = sorted(samples)
    n = len(data)
    if not n:
        return None, 0.0
    if n < 11:
        return 50, data[(n - 1) // 2]
    rank = -int(-n * highest // 100) - 1
    if rank <= n - 11:
        return highest, data[rank]
    return 100 * (n - 10) / n, data[n - 11]


# metrics that are not totals, so are not divided by the request count
_NOT_PER_REQUEST = (".hit_ratio", ".share", ".max_bits", ".max_order")


def summarise(spans: list[dict], counts: dict, terms, requests: int) -> dict:
    """Per-layer metric values from spans.  A traced run lasts a fixed time,
    so a faster program serves more requests in it; totals (calls, items,
    self time, bytes) are therefore divided by ``requests`` and reported
    per request.  ``terms(n)`` gives the number of partitions of ``n``, for
    the computed ``terms_bound``."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def group(*names):
        return [s for n in names for s in by.get(n, ())]

    def self_s(*names):
        return sum(s["self"] for s in group(*names))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    pps = group("bellpoly.partition_power_sum")
    lwt = group("bellpoly.log_weight_table")
    coef = group("bellpoly.product_coefficients", "bellpoly.reciprocal_coefficients")
    rs = group("partfun.ratio_series")
    series_out = group("series.expand_product", "series.mul", "series.reciprocal")
    m = {
        "bellpoly.partition_power_sum.calls": len(pps),
        "bellpoly.partition_power_sum.self_s": self_s("bellpoly.partition_power_sum"),
        "bellpoly.partition_power_sum.terms_bound": sum(terms(s["n"]) for s in pps if "n" in s),
        "bellpoly.partition_power_sum.max_bits": max((s.get("bits", 0) for s in pps), default=0),
        "bellpoly.log_weight_table.calls": len(lwt),
        "bellpoly.log_weight_table.self_s": self_s("bellpoly.log_weight_table"),
        "bellpoly.log_weight_table.entries": sum(s.get("entries", 0) for s in lwt),
        "bellpoly.coefficients.calls": len(coef),
        "bellpoly.coefficients.hit_ratio": ratio(sum(s.get("hit", False) for s in coef), len(coef)),
        "bellpoly.coefficients.self_s": self_s("bellpoly.product_coefficients", "bellpoly.reciprocal_coefficients"),
        "series.expand_product.calls": len(by.get("series.expand_product", ())),
        "series.expand_product.self_s": self_s("series.expand_product"),
        "series.expand_product.fold_ops": sum(s.get("fold_ops", 0) for s in group("series.expand_product")),
        "series.reciprocal.calls": len(by.get("series.reciprocal", ())),
        "series.reciprocal.self_s": self_s("series.reciprocal"),
        "series.mul.calls": len(by.get("series.mul", ())),
        "series.mul.self_s": self_s("series.mul"),
        "series.max_bits": max((s.get("bits", 0) for s in series_out), default=0),
        "partfun.ratio_series.calls": len(rs),
        "partfun.ratio_series.self_s": self_s("partfun.ratio_series"),
        "partfun.ratio_series.hit_ratio": ratio(sum(s.get("outcome") == "hit" for s in rs), len(rs)),
        "partfun.ratio_series.regrowths": sum(s.get("outcome") == "regrowth" for s in rs),
        "partfun.ratio_series.max_order": max((s.get("order", 0) for s in rs), default=0),
        "partitions.iter_partitions.items": sum(s.get("items", 0) for s in group("partitions.iter_partitions")),
        "partitions.iter_partitions.self_s": self_s("partitions.iter_partitions"),
        "verify.run_suite.self_s": self_s("verify.run_suite"),
        "verify.run_suite.checks": sum(s.get("checks", 0) for s in group("verify.run_suite")),
        "errata.build_report.self_s": self_s("errata.build_report"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": counts.get("cli.stdout_bytes", 0),
    }
    total = sum(s["self"] for s in spans)
    for module in MODULES:
        layer = sum(s["self"] for s in spans if s["name"].startswith(module + "."))
        m[f"{module}.all.self_s"] = layer
        m[f"{module}.all.share"] = ratio(layer, total)
    return {k: v if k.endswith(_NOT_PER_REQUEST) else ratio(v, requests) for k, v in m.items()}


# --- traced CLI entry point --------------------------------------------------

class _CountingStream:
    """Pass-through text stream that counts the UTF-8 bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def _main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.jsonl -- BELLFORGE-ARGS...", file=sys.stderr)
        return 2
    path, cli_args = argv[1], argv[3:]
    import bellforge.cli

    tracer = Tracer()
    tracer.install()
    stream = _CountingStream(sys.stdout)
    sys.stdout = stream
    start = time.monotonic()
    try:
        code = bellforge.cli.main(cli_args)
    finally:
        end = time.monotonic()
        sys.stdout = stream.inner
        sys.stdout.flush()
        tracer.counts["cli.stdout_bytes"] = stream.bytes
        tracer.dump(path, {"main_start": start, "main_end": end})
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
