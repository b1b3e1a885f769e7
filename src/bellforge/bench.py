"""The ``bench`` command: time the three ``p(n)`` algorithms against each other.

The closed sum, the pentagonal recurrence and the series reciprocal each
compute the prefix ``0..hi`` for ``hi`` in buckets of 10 up to ``--max``,
every run from scratch since none of them keeps state; the best of
``--repeat`` runs is printed with whether the three agree, and any
disagreement exits 1.
"""

from __future__ import annotations

import time

from .bellpoly import ratio_coefficients, work_estimate
from .cli import UsageError, check_work
from .partfun import PARTITION_PRODUCT
from .partitions import pentagonal_values
from .series import expand_ratio


def cmd_bench(args) -> int:
    n_max, repeat = args["max"], args["repeat"]
    if repeat < 1:
        raise UsageError("--repeat must be >= 1")
    # buckets 10, 20, ..., n_max; pentagonal is bounded by the closed sum's estimate
    faa, series = (work_estimate(r, None, PARTITION_PRODUCT, n_max) for r in ("faa", "series"))
    runs = (len(range(10, n_max, 10)) + 1) * repeat
    check_work(f"bench --max {n_max} --repeat {repeat}", runs * (2 * faa + series))

    methods = {
        "closed-sum": lambda hi: ratio_coefficients(None, PARTITION_PRODUCT, hi),
        "pentagonal": pentagonal_values,
        "series": lambda hi: expand_ratio(None, PARTITION_PRODUCT, hi),
    }
    buckets = [*range(10, n_max, 10), n_max]

    print("n_max,method,seconds,agree")
    disagreement = False
    for hi in buckets:
        results = {}
        timings = {}
        for name, run in methods.items():
            best = None
            for _ in range(repeat):
                start = time.perf_counter()
                values = run(hi)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            results[name] = [int(v) for v in values]
            timings[name] = best
        agree = results["closed-sum"] == results["pentagonal"] == results["series"]
        disagreement |= not agree
        for name in methods:
            print(f"{hi},{name},{timings[name]:.6f},{str(agree).lower()}")
    return 1 if disagreement else 0
