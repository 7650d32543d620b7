"""Shared corpus builders and the acceptance report hook.

Corpus certification deliberately goes through sympy so that every
"irreducible by construction" input is vouched for by an implementation the
package shares no code with.
"""

import random

import pytest
import sympy
from hypothesis import assume, strategies as st

from polyfactor.basefactor import _Reading, _prime_avoiding
from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly, _int_table


def rng_for(name):
    return random.Random("polyfactor::" + name)


# ---------------------------------------------------------------------------
# reference reader (tests only): reads f into the lift's integer rows with
# the variables chosen by the caller, where `basefactor.read_table` chooses
# them from f's degrees


def int_rows(f, v=None, w=None):
    """(rows, den): f's terms as integers over their common denominator den,
    rows[ex] holding (v-exponent, w-exponent, integer) for each term of
    x-degree ex (x is variable 1; a variable None, or past f's n, has
    exponent 0: it reads the 0 appended to each exponent tuple)."""
    table, den = _int_table(f)
    iv, iw = (i - 1 if i and i <= f.n else f.n for i in (v, w))
    rows = [[] for _ in range((f.degree_in(1) or 0) + 1)]
    for exps, c in table.items():
        exps += (0,)
        rows[exps[0]].append((exps[iv], exps[iw], c))
    return rows, den


def read_rows(f, v, w):
    """f read for its probes and lifts in z_v, keeping z_w, as
    `read_table` reads it when z_v is f's side variable of largest degree:
    its integer rows over den (`int_rows`), its degrees (dx, dv, dw) and
    the prime P.  A bivariate f is read with w = 3, a variable it lacks,
    so dw = 0."""
    rows, den = int_rows(f, v, w)
    exps = [(ev, ew) for row in rows for ev, ew, _ in row]
    degrees = (len(rows) - 1,) + tuple(max(col) for col in zip(*exps))
    return _Reading(f, f.n, v, w, rows, den, degrees, _prime_avoiding(den))


# ---------------------------------------------------------------------------
# sympy bridge (tests only)


def to_sympy(f, syms=None):
    if syms is None:
        syms = sympy.symbols("z1:%d" % (f.n + 1))
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(int(c.numerator), int(c.denominator))
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        expr += term
    return expr, syms


def sympy_irreducible(f):
    """Independent irreducibility certificate for a nonconstant polynomial."""
    expr, _ = to_sympy(f)
    _, factors = sympy.factor_list(expr)
    nonconstant = [(b, e) for b, e in factors if b.free_symbols]
    return len(nonconstant) == 1 and nonconstant[0][1] == 1


def sympy_factor_count(f):
    expr, _ = to_sympy(f)
    _, factors = sympy.factor_list(expr)
    return sum(e for b, e in factors if b.free_symbols)


# ---------------------------------------------------------------------------
# random polynomial corpora


def random_poly(rng, n, d, terms, coeff_bound=9, ensure_nonzero=True):
    table = {}
    for _ in range(terms):
        exps = [0] * n
        budget = rng.randint(0, d)
        for i in range(n):
            take = rng.randint(0, budget)
            exps[i] = take
            budget -= take
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            table[tuple(exps)] = Q(c)
    f = SparsePoly(n, table)
    if ensure_nonzero and f.is_zero():
        return SparsePoly.const(n, 1)
    return f


def random_linear(rng, n, live=None):
    """Random nonconstant linear polynomial."""
    while True:
        table = {(0,) * n: Q(rng.randint(-4, 4))}
        vars_used = live or rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        for v in vars_used:
            exps = [0] * n
            exps[v - 1] = 1
            c = rng.randint(-3, 3)
            if c:
                table[tuple(exps)] = Q(c)
        f = SparsePoly(n, table)
        if f.degree() == 1:
            return f


def random_irreducible_quadratic(rng, n):
    """Random total-degree-2 irreducible, certified by sympy."""
    while True:
        support = rng.sample(range(1, n + 1), rng.randint(2, min(3, n)))
        table = {}
        anchor = support[0]
        exps = [0] * n
        exps[anchor - 1] = 2
        table[tuple(exps)] = Q(rng.choice([1, 1, 2, -1]))
        for v in support[1:]:
            exps = [0] * n
            exps[v - 1] = 2
            if rng.random() < 0.7:
                table[tuple(exps)] = Q(rng.choice([1, 2, 3, -1, -2]))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(support, 2) if len(support) >= 2 else (anchor, anchor)
            exps = [0] * n
            exps[a - 1] += 1
            exps[b - 1] += 1
            c = rng.randint(-3, 3)
            if c:
                table[tuple(exps)] = Q(c)
        if rng.random() < 0.8:
            table[(0,) * n] = Q(rng.choice([1, 2, 3, 5, 7, -2]))
        f = SparsePoly(n, table)
        if f.degree() == 2 and sympy_irreducible(f):
            return f


def random_irreducible(rng, n, delta):
    if delta == 1:
        return random_linear(rng, n)
    return random_irreducible_quadratic(rng, n)


def random_irreducible_cubic(rng, n):
    """Higher-degree certified-irreducible cofactor (support <= 3 vars)."""
    while True:
        support = rng.sample(range(1, n + 1), min(n, rng.randint(2, 3)))
        table = {}
        exps = [0] * n
        exps[support[0] - 1] = 3
        table[tuple(exps)] = Q(1)
        for v in support[1:]:
            exps = [0] * n
            exps[v - 1] = rng.choice([1, 2, 3])
            table[tuple(exps)] = Q(rng.choice([1, 2, -1, -3]))
        table[(0,) * n] = Q(rng.choice([2, 3, 5, 7, 11]))
        f = SparsePoly(n, table)
        if f.degree() == 3 and sympy_irreducible(f):
            return f


def random_su(rng, n, d, certified_irreducible=False):
    """Random sum-of-univariates; optionally retry until sympy-irreducible."""
    while True:
        table = {}
        live = rng.sample(range(1, n + 1), rng.randint(1, n))
        for v in live:
            deg = rng.randint(1, d)
            exps = [0] * n
            exps[v - 1] = deg
            c = rng.choice([1, 2, 3, -1, -2])
            table[tuple(exps)] = Q(c)
            if deg > 1 and rng.random() < 0.4:
                exps = [0] * n
                exps[v - 1] = 1
                c2 = rng.randint(-3, 3)
                if c2:
                    table[tuple(exps)] = Q(c2)
        if rng.random() < 0.8:
            table[(0,) * n] = Q(rng.randint(1, 9))
        f = SparsePoly(n, table)
        if f.is_constant() or f.degree() > d:
            continue
        if not certified_irreducible or sympy_irreducible(f):
            return f


@st.composite
def lowvar_products(draw):
    """scalar * prod g_i^e_i with small nonconstant factors g_i in 1-3
    variables: total degree <= 4 in one variable, <= 2 in more."""
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, n - 1), max_size=4 if n == 1 else 2).map(
        lambda slots: tuple(slots.count(i) for i in range(n))
    )
    factor = st.dictionaries(
        monomial, st.integers(-4, 4).filter(bool), min_size=2, max_size=4
    ).map(lambda table: SparsePoly(n, {e: Q(c) for e, c in table.items()}))
    parts = draw(
        st.lists(
            st.tuples(factor.filter(lambda g: not g.is_constant()), st.integers(1, 2)),
            min_size=1,
            max_size=3,
        )
    )
    assume(sum(g.degree() * e for g, e in parts) <= 8)
    f = SparsePoly.const(n, draw(st.sampled_from([Q(1), Q(-2), Q(3, 5)])))
    for g, e in parts:
        f = f * g**e
    return f


def sympy_factorization(f):
    """(scalar, {canonical factor: multiplicity}) from sympy.factor_list."""
    expr, syms = to_sympy(f)
    coeff, factors = sympy.factor_list(expr, *syms)
    scalar = Q(int(coeff.p), int(coeff.q))
    mults = {}
    for base, e in factors:
        terms = {
            exps: Q(int(c.p), int(c.q)) for exps, c in sympy.Poly(base, *syms).terms()
        }
        canon, unit = SparsePoly(f.n, terms).canonical_with_unit()
        scalar *= unit**e
        mults[canon] = mults.get(canon, 0) + e
    return scalar, mults


# ---------------------------------------------------------------------------
# acceptance report plumbing

ACCEPTANCE_RESULTS = []


def record_acceptance(number, description, passed):
    ACCEPTANCE_RESULTS.append((number, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            "criterion %2d: %s -- %s" % (number, verdict, description)
        )
