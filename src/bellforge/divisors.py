"""Prime factorization and divisor sums, in plain unbounded-``int`` arithmetic.

The identity suites and the errata transcriptions use them; no closed-sum or
series request does.
"""

from __future__ import annotations

from math import comb

from .arith import require_positive

Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Prime factorization of ``n >= 1`` by trial division.

    Returns (prime, exponent) pairs with strictly increasing primes;
    ``factorize(1)`` is the empty list.
    """
    require_positive(n)
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def sigma(n: int) -> int:
    """Sum of all positive divisors of ``n``, by direct enumeration."""
    require_positive(n)
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            total += i
            j = n // i
            if j != i:
                total += j
        i += 1
    return total


def sigma_via_factorization(pairs: Factorization) -> int:
    """Divisor sum from a prime factorization, one alternating binomial sum
    per prime power:

        sigma(p^b) = sum_{k=0}^{floor(b/2)} (-1)^k C(b-k, k) p^k (1+p)^(b-2k)

    The empty factorization gives 1.
    """
    total = 1
    for p, b in pairs:
        term = 0
        for k in range(b // 2 + 1):
            summand = comb(b - k, k) * p**k * (1 + p) ** (b - 2 * k)
            term += -summand if k % 2 else summand
        total *= term
    return total
