"""Deterministic identity testing, nonzero-point search, and sparse
interpolation for the class of s-sparse n-variate degree-d polynomials.

The interpolation scheme is deterministic Prony (prime-power evaluation
points, a Berlekamp-Massey recurrence over Q, integer root extraction of the
term locator, then a transposed Vandermonde solve); when the caller knows
the monomial support, the solve alone runs on it, one degree at a time on
restrictions to lines (`interpolate_lines`).  It
fulfils the same evaluate-then-solve contract as the Klivans-Spielman
construction and reuses the univariate factorizer for the locator roots.
"""

import math
from itertools import count, islice, product

from .rational import Q, ONE, ZERO, clear_denominators, primes
from .sparse import SparsePoly
from .basefactor import factor_lowvar
from .errors import CapError, InterpolationFailure, ZeroPolynomialError
from .errors import VariableCountMismatch


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
        if n != f.n:
            raise VariableCountMismatch("point arity %d != %d" % (n, f.n))
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


def _plan_points(n):
    """The evaluation points (p_1^i, ..., p_n^i), i = 0, 1, ..., p_j the j-th
    prime, without end."""
    bases = list(islice(primes(), n))
    for i in count():
        yield tuple(Q(p**i) for p in bases)


def interpolation_plan(s, n):
    """The plan: a tuple of 2s evaluation points (p_1^i, ..., p_n^i),
    i = 0..2s-1, p_j the j-th prime; plans for larger sparsity bounds
    extend smaller ones."""
    if s < 1:
        raise ValueError("sparsity bound must be >= 1")
    return tuple(islice(_plan_points(n), 2 * s))


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


def _transposed_vandermonde(nodes, values):
    """The c with sum_j c_j * nodes[j]^i == values[i] for i < T = len(nodes),
    the nodes distinct integers, in O(T^2) (Zippel, J. Symb. Comp. 1990;
    Kaltofen-Yagati, EUROSAM 1988).  With P(z) = prod_k (z - nodes[k]) and
    P_j = P / (z - nodes[j]), which vanishes at every other node,
    sum_i [z^i]P_j * values[i] = c_j * P_j(nodes[j]).  Runs on integers:
    the values' denominators are cleared once."""
    ints, den = clear_denominators(values[: len(nodes)])
    master = [1]  # ascending coefficients of P
    for node in nodes:
        shifted = [0] + master
        for i, c in enumerate(master):
            shifted[i] -= node * c
        master = shifted
    coeffs = []
    for node in nodes:
        # synthetic division P / (z - node), highest coefficient first
        quotient = [0] * len(nodes)
        carry = 0
        for i in range(len(nodes), 0, -1):
            carry = master[i] + node * carry
            quotient[i - 1] = carry
        num = sum(q * v for q, v in zip(quotient, ints))
        at_node = 0
        for q in reversed(quotient):
            at_node = at_node * node + q
        if not at_node:
            raise InterpolationFailure("repeated interpolation node")
        coeffs.append(Q(num, den * at_node))
    return coeffs


def _graded_closure(support):
    """{k: the degree-k monomials of support's downward closure, sorted}:
    every exponent tuple componentwise below one of support's."""
    closure = {e for mono in support for e in product(*(range(k + 1) for k in mono))}
    graded = {}
    for e in sorted(closure):
        graded.setdefault(sum(e), []).append(e)
    return graded


def line_count(support):
    """N = max_k |S_k|, the lines `interpolate_lines` needs for `support`."""
    return max(len(monos) for monos in _graded_closure(support).values())


def interpolate_lines(rows, support, origin):
    """The g with monomials in `support` whose restrictions to the lines
    t -> origin + t omega_L, omega_L the L-th point of interpolation_plan,
    are the rows: rows[L] maps k to the t^k coefficient of g(origin +
    t omega_L).  With G(z) = g(origin + z), whose monomials lie in the
    downward closure of the support, that coefficient is sum_{|e| = k}
    G_e m_e^L, m_e = prod_i p_i^(e_i) over the plan's primes, so the
    degree-k monomials S_k of the closure and N_k = |S_k| lines fix G's
    degree-k part, one transposed Vandermonde system each (Zippel's
    known-support step).  Every further line must agree with the solution,
    and a nonzero t^k coefficient with S_k empty rejects the rows; both
    raise InterpolationFailure, as do fewer than `line_count` rows.
    Returns G shifted back by -origin."""
    graded = _graded_closure(support)
    if len(rows) < max(len(monos) for monos in graded.values()):
        raise InterpolationFailure("too few lines for the support")
    if any(c and k not in graded for row in rows for k, c in row.items()):
        raise InterpolationFailure("a line has a degree the support lacks")
    bases = list(islice(primes(), len(origin)))
    terms = {}
    for k, monos in graded.items():
        nodes = [math.prod(p**e for p, e in zip(bases, mono)) for mono in monos]
        values = [row.get(k, ZERO) for row in rows]
        coeffs = _transposed_vandermonde(nodes, values)
        for L in range(len(nodes), len(rows)):
            if sum(c * node**L for c, node in zip(coeffs, nodes)) != values[L]:
                raise InterpolationFailure("a further line disagrees")
        terms.update((mono, c) for mono, c in zip(monos, coeffs) if c)
    return SparsePoly(len(origin), terms).shift(tuple(-o for o in origin))


def sparse_interpolate(values, s, n, d):
    """Recover the unique polynomial of sparsity <= s and degree <= d from its
    2s evaluations on interpolation_plan(s, n) by Ben-Or-Tiwari: the
    Berlekamp-Massey recurrence's locator roots are the nodes m_j =
    prod_k p_k^(e_jk), each factored over the first n primes, and one
    transposed Vandermonde solve gives the coefficients.  The result must
    satisfy the degree and sparsity bounds and reproduce every value."""
    values = [Q(v) for v in values]
    if len(values) != 2 * s:
        raise InterpolationFailure("expected exactly %d evaluation values" % (2 * s))
    if all(not v for v in values):
        return SparsePoly.zero(n)
    bases = list(islice(primes(), n))
    char, L = berlekamp_massey(values)
    if L > s or L == 0:
        raise InterpolationFailure("recovered sparsity exceeds the bound")
    nodes = _integer_roots(char)
    if nodes is None:
        raise InterpolationFailure("locator polynomial does not split over Z")
    monomials = []
    for root in nodes:
        mono = _monomial_from_locator(root, bases, d)
        if mono is None:
            raise InterpolationFailure(
                "locator root %d is not a bounded prime-power product" % root
            )
        monomials.append(mono)
    coeffs = _transposed_vandermonde(nodes, values)
    result = SparsePoly(n, {mono: c for mono, c in zip(monomials, coeffs) if c})
    if result.sparsity() > s or (result.degree() or 0) > d:
        raise InterpolationFailure("result violates the promised class")
    # residual check over all supplied points
    for point, value in zip(_plan_points(n), values):
        if result.eval_point(point) != value:
            raise InterpolationFailure("residual mismatch: input was off-promise")
    return result
