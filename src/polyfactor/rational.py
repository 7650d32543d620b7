"""Exact rational arithmetic backend.

fractions.Fraction by default; gmpy2.mpq when the optional `fast` extra
(`pip install polyfactor[fast]`) has installed gmpy2.  Everything downstream
only relies on the common surface: two-argument constructor,
numerator/denominator, arithmetic with ints, hashing, and str() rendering as
"a/b" or "a".
"""

import math

try:
    from gmpy2 import mpq as Q
except ImportError:
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def clear_denominators(coeffs):
    """(ints, den): den is the lcm of the coefficients' denominators and
    ints[i] == den * coeffs[i] as a Python int.  Accepts rationals and ints."""
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        d = int(c.denominator)
        den = den * d // math.gcd(den, d)
    return [int(c.numerator) * (den // int(c.denominator)) for c in coeffs], den


def is_prime(n) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def primes(start=2):
    """The primes >= start, ascending, without end."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1

