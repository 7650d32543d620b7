"""Deterministic identity testing, nonzero-point search, and sparse
interpolation for the class of s-sparse n-variate degree-d polynomials.

The interpolation scheme is deterministic Prony (prime-power evaluation
points, a Berlekamp-Massey recurrence over Q, integer root extraction of the
term locator, then a transposed Vandermonde solve).  It fulfils the same
evaluate-then-solve contract as the Klivans-Spielman construction and reuses
the univariate factorizer for the locator roots.
"""

from itertools import islice, product

from .rational import Q, ONE, ZERO, primes
from .sparse import SparsePoly
from .basefactor import factor_lowvar
from .errors import CapError, InterpolationFailure, ZeroPolynomialError


def trivial_hitting_set(n, d, max_size=None):
    """The grid {1..d+1}^n as a tuple of points; exponential in n, usable
    for constant n."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    size = (d + 1) ** n
    if max_size is not None and size > max_size:
        raise CapError("hitting_set_size", size, max_size)
    return tuple(
        tuple(Q(v) for v in combo) for combo in product(range(1, d + 2), repeat=n)
    )


class ProbeCounter:
    """Tallies identity-test probes for the self-reduction budget assertion."""

    def __init__(self):
        self.count = 0


def find_nonzero_point(f, n, d, mode="whitebox", hitting_set=None, counter=None):
    """A point a with all coordinates nonzero and f(a) != 0.

    Whitebox mode takes a SparsePoly and assigns variables one at a time,
    scanning candidate values 1..d+1 (at most n*(d+1) probes).  Blackbox mode
    takes an evaluation callable plus a hitting set for f's class (a tuple
    of points, e.g. trivial_hitting_set(n, d)); a hit with
    zero coordinates is repaired by scanning the diagonal shifts
    a + (M+1+j), j = 0..d, with M the magnitude of the smallest coordinate.
    """
    if mode == "whitebox":
        if not isinstance(f, SparsePoly):
            raise TypeError("whitebox mode needs a SparsePoly")
        if f.is_zero():
            raise ZeroPolynomialError("no nonzero point: polynomial is zero")
        # the variable being assigned is always slot 1 of what is left
        current = f
        point = []
        for _ in range(n):
            if not current.degree_in(1):
                point.append(ONE)
                current = current.eval_var(1, ONE)
                continue
            chosen = None
            for v in range(1, d + 2):
                if counter is not None:
                    counter.count += 1
                candidate = current.eval_var(1, v)
                if not candidate.is_zero():
                    chosen = (Q(v), candidate)
                    break
            if chosen is None:  # pragma: no cover - impossible for nonzero f
                raise ZeroPolynomialError("self-reduction exhausted d+1 values")
            point.append(chosen[0])
            current = chosen[1]
        return tuple(point)

    if mode == "blackbox":
        if hitting_set is None:
            raise ValueError("blackbox mode needs a hitting set")
        evaluate = f if callable(f) else f.eval_point
        hit = None
        for a in hitting_set:
            if counter is not None:
                counter.count += 1
            if evaluate(a):
                hit = a
                break
        if hit is None:
            raise ZeroPolynomialError("no nonzero point: polynomial is zero")
        if all(coord != 0 for coord in hit):
            return tuple(hit)
        m_val = abs(min(hit))
        for j in range(d + 1):
            shift = m_val + 1 + j
            candidate = tuple(c + shift for c in hit)
            if counter is not None:
                counter.count += 1
            if evaluate(candidate):
                return candidate
        raise ZeroPolynomialError("shift search failed on a nonzero polynomial")

    raise ValueError("mode must be whitebox or blackbox")


def sparse_pit(f):
    """True iff f is identically zero (immediate on the canonical table)."""
    return f.is_zero()


def interpolation_plan(s, n):
    """The plan: a tuple of 2s evaluation points (p_1^i, ..., p_n^i),
    i = 0..2s-1, p_j the j-th prime; plans for larger sparsity bounds
    extend smaller ones."""
    if s < 1:
        raise ValueError("sparsity bound must be >= 1")
    bases = list(islice(primes(), n))
    return tuple(tuple(Q(p**i) for p in bases) for i in range(2 * s))


def berlekamp_massey(values):
    """Minimal LFSR coefficients c (monic char poly) for the sequence over Q.

    Returns the connection polynomial as an ascending coefficient list of the
    characteristic polynomial lambda^L - c_1 lambda^(L-1) - ... - c_L.
    """
    c = [ONE]
    b = [ONE]
    L = 0
    m = 1
    bb = ONE
    for i, val in enumerate(values):
        delta = val
        for j in range(1, L + 1):
            delta = delta + c[j] * values[i - j]
        if not delta:
            m += 1
            continue
        t = list(c)
        coef = delta / bb
        while len(c) < len(b) + m:
            c.append(ZERO)
        for j, bj in enumerate(b):
            c[j + m] = c[j + m] - coef * bj
        if 2 * L <= i:
            L = i + 1 - L
            b = t
            bb = delta
            m = 1
        else:
            m += 1
    # connection c(X) = 1 + c1 X + ...; char poly = X^L * c(1/X)
    char = [ZERO] * (L + 1)
    for j in range(min(len(c), L + 1)):
        char[L - j] = c[j]
    return char, L


def _integer_roots(char_coeffs):
    """Distinct integer roots of the locator polynomial, read off its
    univariate factorization; None when it does not split into distinct
    linear factors over Z."""
    poly = SparsePoly(1, {(i,): c for i, c in enumerate(char_coeffs) if c})
    roots = []
    for factor, mult in factor_lowvar(poly).factors:
        if factor.degree() != 1 or mult != 1:
            return None
        a1 = factor.terms.get((1,), ZERO)
        a0 = factor.terms.get((0,), ZERO)
        root = -a0 / a1
        if root.denominator != 1:
            return None
        roots.append(int(root.numerator))
    return sorted(roots)


def _monomial_from_locator(value, primes, d):
    """Greedy factorization of a locator root over the designated primes."""
    if value <= 0:
        return None
    exps = []
    for p in primes:
        e = 0
        while value % p == 0:
            value //= p
            e += 1
            if e > d:
                return None
        exps.append(e)
    if value != 1:
        return None
    return tuple(exps)


def sparse_interpolate(values, s, n, d):
    """Recover the unique polynomial of sparsity <= s and degree <= d from its
    evaluations on the points of interpolation_plan(s, n)."""
    values = [Q(v) for v in values]
    if len(values) != 2 * s:
        raise InterpolationFailure("expected exactly 2s evaluation values")
    if all(not v for v in values):
        return SparsePoly.zero(n)
    char, L = berlekamp_massey(values)
    if L > s or L == 0:
        raise InterpolationFailure("recovered sparsity exceeds the bound")
    bases = list(islice(primes(), n))
    roots = _integer_roots(char)
    if roots is None:
        raise InterpolationFailure("locator polynomial does not split over Z")
    monomials = []
    for root in roots:
        mono = _monomial_from_locator(root, bases, d)
        if mono is None:
            raise InterpolationFailure(
                "locator root %d is not a bounded prime-power product" % root
            )
        monomials.append((root, mono))
    # transposed Vandermonde: sum_j coeff_j * root_j^i = values[i]
    r = len(monomials)
    mat = [[Q(root) ** i for root, _ in monomials] for i in range(r)]
    rhs = values[:r]
    coeffs = _solve_linear(mat, rhs)
    if coeffs is None:
        raise InterpolationFailure("singular locator system")
    result = SparsePoly(
        n,
        {mono: c for (root, mono), c in zip(monomials, coeffs) if c},
    )
    if result.sparsity() > s or (result.degree() or 0) > d:
        raise InterpolationFailure("result violates the promised class")
    # residual check over all supplied points
    for point, expected in zip(interpolation_plan(s, n), values):
        if result.eval_point(point) != expected:
            raise InterpolationFailure("residual mismatch: input was off-promise")
    return result


def _solve_linear(mat, rhs):
    """Gaussian elimination over Q; None when singular."""
    r = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(r):
        pivot = None
        for row in range(col, r):
            if aug[row][col]:
                pivot = row
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for row in range(r):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [aug[i][r] for i in range(r)]
