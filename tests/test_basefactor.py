"""Base factorizer: univariate, bivariate, trivariate."""

import math

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from polyfactor.rational import Q, ONE, ZERO, clear_denominators
from polyfactor.sparse import SparsePoly, _mul_into
from polyfactor.factors import divide_out, factor_sort_key
from polyfactor.parse import parse_poly, parse_product, render_poly
from polyfactor.basefactor import (
    factor_monic,
    factor_lowvar,
    is_irreducible_lowvar,
    lift_slice,
    PreparedBase,
    _AttemptFailed,
    _Dioph,
    _attempt_lift,
    _bezout_step,
    _cd_to_tau_series,
    _factor_bound,
    _factor_count_mod_p,
    _factor_monic_sparse,
    _factor_univariate_pairs,
    _int_rows,
    _read,
    _series_root,
    _series_to_qpoly,
    _shift_series,
    _up_primitive_z,
    _wcut,
    _zassenhaus,
    berlekamp,
    cd_pack,
    cd_reduce,
    cd_unpack,
    up_add,
    up_deg,
    up_deriv,
    up_gcd_p,
    up_mod,
    up_monic_p,
    up_mul,
    up_sub,
    up_xgcd_p,
)
from polyfactor.engine import monicize
from polyfactor.errors import PolyError, ZeroPolynomialError
from polyfactor.isolation import compact_scheme, psi_map

from conftest import (
    lowvar_products,
    random_poly,
    rng_for,
    sympy_factorization,
    sympy_irreducible,
)


def pairs(fl):
    return [(render_poly(p), m) for p, m in fl.factors]


def series(f, v, w, K, m):
    """The z_v-series of packed (x, w) dicts of f mod m, read off f's
    Fraction coefficients: denominators cleared once, then one inverse mod
    m (v or w None, or past f's n: exponent 0).  The reference for the
    lift's own integer reading."""
    ints, den = clear_denominators(f.terms.values())
    inv = pow(den, -1, m)
    ser = [dict() for _ in range(K)]
    for exps, c in zip(f.terms, ints):
        if c * inv % m:
            ev, ew = (exps[i - 1] if i and i <= f.n else 0 for i in (v, w))
            ser[ev][cd_pack(exps[0], ew)] = c * inv % m
    return ser


def test_x2_minus_1():
    fl = factor_lowvar(parse_poly("z1^2 - 1"))
    assert pairs(fl) == [("z1 - 1", 1), ("z1 + 1", 1)]


def test_x3_minus_2_irreducible():
    fl = factor_lowvar(parse_poly("z1^3 - 2"))
    assert pairs(fl) == [("z1^3 - 2", 1)]


def test_univariate_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        factor_lowvar(SparsePoly.zero(1))


def test_univariate_random_products_recompose():
    rng = rng_for("univariate-products")
    for _ in range(120):
        k = rng.randint(2, 4)
        f = SparsePoly.const(1, rng.choice([1, 2, -3]))
        for _ in range(k):
            f = f * random_poly(rng, 1, rng.randint(1, 4), 3)
        if f.is_constant():
            continue
        fl = factor_lowvar(f)
        assert fl.recompose() == f


def test_bivariate_difference_of_squares():
    fl = factor_monic(parse_poly("z1^2 - z2^2"))
    assert pairs(fl) == [("z1 - z2", 1), ("z1 + z2", 1)]


def test_bivariate_quartic_split():
    # the reducible Kronecker image x^2 - y^4
    fl = factor_monic(parse_poly("z1^2 - z2^4"))
    assert len(fl.factors) == 2
    assert fl.recompose() == parse_poly("z1^2 - z2^4")


def test_bivariate_random_monic_products():
    rng = rng_for("bivariate-products")
    for _ in range(60):
        f = SparsePoly.const(2, 1)
        for _ in range(rng.randint(2, 3)):
            g = random_poly(rng, 2, 2, 3)
            dx = g.degree_in(1) or 0
            # force a monic-in-x leading term
            g = g + SparsePoly.monomial(2, (dx + 1, 0))
            f = f * g
        fl = factor_monic(f)
        assert fl.recompose() == f


def test_trivariate_product_of_conjugates():
    fl = factor_monic(parse_product("(z1 - z2*z3)*(z1 + z2*z3)"))
    assert len(fl.factors) == 2
    for p, m in fl.factors:
        assert m == 1


def test_trivariate_multiplicities():
    f = parse_product("(z1 - z2 - z3)^2*(z1 + z2)")
    fl = factor_monic(f)
    assert sorted(m for _, m in fl.factors) == [1, 2]
    assert fl.recompose() == f


def test_trivariate_random_monic_products():
    rng = rng_for("trivariate-products")
    for _ in range(30):
        f = SparsePoly.const(3, 1)
        for _ in range(rng.randint(2, 3)):
            g = random_poly(rng, 3, 2, 3)
            dx = g.degree_in(1) or 0
            g = g + SparsePoly.monomial(3, (dx + 1, 0, 0))
            f = f * g**rng.randint(1, 2)
        fl = factor_monic(f)
        assert fl.recompose() == f
        for p, m in fl.factors:
            if (p.degree() or 0) <= 4:
                assert sympy_irreducible(p)


def test_is_irreducible_lowvar():
    assert is_irreducible_lowvar(parse_poly("z1^2 + z2^2 + 1"))
    assert not is_irreducible_lowvar(parse_poly("z1^2 - z2^2"))
    with pytest.raises(PolyError):
        is_irreducible_lowvar(SparsePoly.const(2, 5))


def test_factor_lowvar_nonmonic_with_content():
    f = parse_product("(2*z2 + 1)*(z2^2 + z1)*3")
    fl = factor_lowvar(f)
    assert fl.recompose() == f
    assert len(fl.factors) == 2


def test_determinism():
    f = parse_product("(z1 + z2)*(z1 - z2)*(z1^2 + z2 + 1)")
    a = factor_monic(f)
    b = factor_monic(f)
    assert a == b


def test_shift_preserves_irreducibility():
    # certified irreducible bivariate stays irreducible after z -> a x + z
    rng = rng_for("shift-irreducible")
    checked = 0
    while checked < 10:
        g = random_poly(rng, 2, 2, 4)
        if g.is_constant() or not is_irreducible_lowvar(g):
            continue
        a = [Q(rng.randint(1, 3)), Q(rng.randint(1, 3))]
        m = 3
        assignment = [
            SparsePoly.variable(m, 2) + SparsePoly.variable(m, 1).scale(a[0]),
            SparsePoly.variable(m, 3) + SparsePoly.variable(m, 1).scale(a[1]),
        ]
        shifted = g.substitute(assignment, m=m)
        assert is_irreducible_lowvar(shifted)
        checked += 1


# (product, variable count, v, w): lifted in z_v, with z_w kept in the base
# (w None: a bivariate f, read with w = 3, a variable it lacks, so dw = 0)
LIFT_CASES = [
    ("(z1 + z2^2 + 1)*(z1 - 3*z2 + 2)", 2, 2, None),
    ("(z1 + z2)^2*(z1^2 - z2 + 1/2)", 2, 2, None),
    ("(z1 + z2 + z3)*(z1 - z2 + 2*z3)", 3, 3, 2),
    ("(z1 + z3 + z2)*(z1 - z3 + 2*z2)", 3, 2, 3),
    ("(z1^2 + z2*z3 + z2^2 - 1)*(z1 + z2^2 - 2*z3)^2", 3, 2, 3),
    ("(z1 + 2*z2*z3 + z3^2)*(z1^2 - z2 + z3 + 3)*(z1 - z2^2)", 3, 2, 3),
]


@pytest.mark.parametrize("text, n, v, w", LIFT_CASES)
def test_attempt_lift_away_from_the_origin(text, n, v, w):
    """The lift translates its evaluation point to the origin and back: at
    every point that yields a result it is the complete factorization."""
    f = parse_product(text, n)
    want = list(factor_monic(f).factors)
    lifted = []
    for v0 in (0, 1, -1, 2):
        base = _factor_monic_sparse(f.eval_var(v, v0))
        try:
            result = _attempt_lift(_read(f, v, w or 3), v0, base)
        except _AttemptFailed:
            continue
        assert result == want, (v0, result)
        lifted.append(v0)
    assert set(lifted) - {0}, "no lift away from the origin: %s" % lifted


def test_attempt_lift_with_a_nonzero_w_point():
    # at v0 = 0 the base images (x + w) and (x - w) meet at w = 0, so the
    # lift must evaluate the base at some w0 != 0
    f = parse_product("(z1 + z3 + z2)*(z1 - z3 + 2*z2)", 3)
    base = _factor_monic_sparse(f.eval_var(2, 0))
    assert [u.eval_var(2, 0) for u, _ in base] == [parse_poly("z1")] * 2
    assert _attempt_lift(_read(f, 2, 3), 0, base) == list(factor_monic(f).factors)


def test_attempt_lift_recombines_the_pieces_of_a_split_factor():
    # cd pool entry 31's trivariate image: at v0 = 1 its irreducible cubic
    # factor splits into a linear and a quadratic factor whose lifts are
    # power series in w; only their product, cut at f's w-degree, is the
    # cubic
    f = parse_poly("-3*z2^3*z4^3 + z3^3*z4^3 - 3*z4^6 + 5*z4^3", 4)
    f3 = psi_map(monicize(f)[1], compact_scheme(4, 2)).to_sparse()
    want = list(factor_monic(f3).factors)
    for v0 in (0, 1, -1, 2):
        base = _factor_monic_sparse(f3.eval_var(2, v0))
        assert _attempt_lift(_read(f3, 2, 3), v0, base) == want, v0
    # the lift divides f down to a constant remainder, so the first factor
    # fixes the second
    assert [m for _, m in want] == [3, 1]
    assert want[0][0] == parse_poly("z2^12*z3 + z1 + z2", 3)
    assert want[1][0].degree_in(1) == 3
    # at z2 = 0 the quadratic splits into (z1 - z3)(z1 + z3)
    g = parse_product("(z1^2 - z2 - z3^2)*(z1 + z2 + 2*z3)", 3)
    base = _factor_monic_sparse(g.eval_var(2, 0))
    assert len(base) == 3
    assert _attempt_lift(_read(g, 2, 3), 0, base) == list(factor_monic(g).factors)


def test_attempt_lift_fails_at_a_point_that_merges_factors():
    # at z2 = 0 the first input's quadratic has the image z1^2, which is not
    # squarefree, and both linear factors of the second have the image z1:
    # no subset reconstructs a factor of f, so the lift raises and
    # factor_monic moves on to another point
    for text in ["(z1^2 - z2*z3 - z2)*(z1 + z3)", "(z1 + z2*z3)*(z1 - z2*z3 + z2)"]:
        f = parse_product(text, 3)
        with pytest.raises(_AttemptFailed):
            _attempt_lift(_read(f, 2, 3), 0, _factor_monic_sparse(f.eval_var(2, 0)))
        assert len(factor_monic(f).factors) == 2


def test_attempt_lift_stops_recombining_at_half_the_groups(monkeypatch):
    # the probe at z2 = 0 splits this irreducible f into 4 linear groups:
    # subsets of 1 and 2 groups are reconstructed (4 + 6), and the 4 groups
    # left then make f itself, with no larger subset built
    import polyfactor.basefactor as basefactor

    f = parse_product("(z1 - 1)*(z1 - 2)*(z1 - 3)*(z1 - 4) + z2", 2)
    base = _factor_monic_sparse(f.eval_var(2, 0))
    assert len(base) == 4
    calls = []
    reconstruct = basefactor._series_to_qpoly

    def counted(*args):
        calls.append(args)
        return reconstruct(*args)

    monkeypatch.setattr(basefactor, "_series_to_qpoly", counted)
    assert _attempt_lift(_read(f, 2, 3), 0, base) == [(f, 1)]
    assert len(calls) == 10


def recombination_log(monkeypatch):
    """A list of (subset, taken) per subset the shared recombination loop
    offers its caller, in order."""
    import polyfactor.basefactor as basefactor

    log = []
    recombine = basefactor._recombine

    def recorded(count, limit, accept):
        def logged(S):
            taken = accept(S)
            log.append((S, taken))
            return taken

        return recombine(count, limit, logged)

    monkeypatch.setattr(basefactor, "_recombine", recorded)
    return log


def test_zassenhaus_and_the_lift_share_one_subset_order(monkeypatch):
    log = recombination_log(monkeypatch)
    # x^4 - 10x^2 + 1 splits into two quadratics mod 5, and neither lifts
    # to a factor over Z
    F = [1, 0, -10, 0, 1]
    assert _zassenhaus(F) == [F]
    assert log == [((0,), False), ((1,), False)]
    # times x^2 - 2 it is first squarefree mod 7, as two linears and two
    # quadratics: no single group is a factor, the first pair is x^2 - 2,
    # and the two groups left are not split again
    log.clear()
    assert _zassenhaus(up_mul(F, [-2, 0, 1])) == [[-2, 0, 1], F]
    singles = [((i,), False) for i in range(4)]
    assert log == singles + [((0, 1), True)]
    # times x^3 - 3x + 1, mod 5: the cubic is taken alone, and the size-1
    # sweep then starts again on the groups left
    log.clear()
    assert _zassenhaus(up_mul(F, [1, -3, 0, 1])) == [[1, -3, 0, 1], F]
    assert log == [((0,), False), ((1,), False), ((2,), True), ((0,), False), ((1,), False)]
    # the lift offers the same order: the irreducible quartic's four linear
    # groups are tried alone and in pairs, ten subsets, and no triple
    f = parse_product("(z1 - 1)*(z1 - 2)*(z1 - 3)*(z1 - 4) + z2", 2)
    base = _factor_monic_sparse(f.eval_var(2, 0))
    log.clear()
    assert _attempt_lift(_read(f, 2, 3), 0, base) == [(f, 1)]
    assert log == singles + [(S, False) for S in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]


def test_complete_factorizations_are_not_multiplied_back_out(monkeypatch):
    # the exact divisions inside recombination prove the product, so
    # neither the lift nor the shear recomposes its result
    from polyfactor.factors import FactorList

    calls = []
    recompose = FactorList.recompose

    def counted(self):
        calls.append(self)
        return recompose(self)

    monkeypatch.setattr(FactorList, "recompose", counted)
    f = parse_product("(z1 + z2*z3 + 1)*(z1^2 - z2 + z3)^2*(z1 - z3 + 2*z2)", 3)
    g = parse_product("(z1*z2 + 1)*(z1^2*z3 - z2 + 2)*3", 3)
    results = [factor_monic(f), factor_lowvar(g)]
    assert calls == []
    assert [fl.recompose() for fl in results] == [f, g]
    assert [[m for _, m in fl.factors] for fl in results] == [[1, 1, 2], [1, 1]]


def test_the_lift_takes_what_is_left_without_dividing_it(monkeypatch):
    # three groups at z2 = 0: two factors are found by subsets and
    # divided out once each, and the group left, of multiplicity 1, is
    # what is left of f, recorded with no division by itself
    import polyfactor.basefactor as basefactor

    divisors = []
    divide = basefactor.divide_out

    def counted(f, g):
        divisors.append(g)
        return divide(f, g)

    f = parse_product("(z1 + z2*z3 + 1)*(z1^2 - z2 + z3)*(z1 - z3 + 2*z2)", 3)
    want = list(factor_monic(f).factors)
    base = _factor_monic_sparse(f.eval_var(2, 0))
    monkeypatch.setattr(basefactor, "divide_out", counted)
    assert _attempt_lift(_read(f, 2, 3), 0, base) == want
    rest = parse_poly("z1^2 - z2 + z3", 3)
    assert sorted(divisors, key=factor_sort_key) == [g for g, _ in want if g != rest]


def test_attempt_lift_reconstructs_in_the_original_coordinates():
    # a square with a 62-bit constant term: the lift reconstructs after the
    # shift back, where the coefficients are small, so its modulus needs no
    # translation term, and at v0 = 0 it must reach 2B^2 for f's factor bound
    u = parse_poly("z1^2 - 2441406248*z1 + z2 + 2980232236324936355/2", 2)
    f = u**2
    for v0 in (0, 1, -1):
        base = _factor_monic_sparse(f.eval_var(2, v0))
        assert _attempt_lift(_read(f, 2, 3), v0, base) == [(u, 2)], v0
    assert factor_monic(f).factors == ((u, 2),)


@st.composite
def translated_polys(draw):
    """(f, v, w, offsets): f in x and one or two side variables z_v, z_w
    with small rational coefficients, and a translation of the side
    variables (w is None for a bivariate f)."""
    n = draw(st.sampled_from([2, 3]))
    v = draw(st.integers(2, n))
    w = None if n == 2 else 5 - v
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Q, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4]))
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=8))
    offsets = [0] * n
    offsets[v - 1] = draw(st.integers(-3, 3))
    if w is not None:
        offsets[w - 1] = draw(st.integers(-3, 3))
    return SparsePoly(n, terms), v, w, offsets


@settings(derandomize=True, deadline=None, max_examples=100)
@given(translated_polys())
def test_shift_series_is_the_translation_mod_m(case):
    f, v, w, offsets = case
    m = 7**12
    K = (f.degree_in(v) or 0) + 1
    cv, cw = offsets[v - 1], (offsets[w - 1] if w is not None else 0)
    ser = series(f, v, w, K, m)
    shifted = _shift_series(ser, cv, cw, m)
    assert shifted == series(f.shift(offsets), v, w, K, m)
    assert _shift_series(shifted, -cv, -cw, m) == ser


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("offsets", [(0, 0), (2, -1), (-3, 2)])
def test_series_root_is_the_integer_root(e, offsets):
    """The e-th root taken in the truncated series ring, at the origin or
    after a translation, is SparsePoly.integer_root of the monic power U^e,
    whether the series is cut at U^e's degrees or only at U's."""
    cv, cw = offsets
    rng = rng_for("series-root-%d-%d-%d" % (e, cv, cw))
    m = 10007**8
    for _ in range(5):
        d = rng.randint(1, 3)
        # lower terms of total degree <= d keep x^d the graded-lex leading term
        terms = {(d, 0, 0): ONE}
        for _ in range(4):
            a = rng.randint(0, d - 1)
            b = rng.randint(0, d - a)
            terms[(a, b, rng.randint(0, d - a - b))] = Q(
                rng.randint(-5, 5), rng.choice([1, 2, 3])
            )
        U = SparsePoly(3, terms)
        W = U**e
        want = W.integer_root(e)
        assert want == U
        full = series(W, 2, 3, (W.degree_in(2) or 0) + 1, m)
        for K, wlen in [
            (len(full), (W.degree_in(3) or 0) + 1),
            ((U.degree_in(2) or 0) + 1, (U.degree_in(3) or 0) + 1),
        ]:
            ser = _shift_series(full, cv, cw, m, K, wlen)
            root = _shift_series(_series_root(ser, e, wlen, m), -cv, -cw, m)
            assert _series_to_qpoly(root, 2, 3, 3, m) == want, (K, wlen)


@st.composite
def bounded_products(draw):
    """(f, delta): a factor x + lower terms of t1-degree <= 2 and t2-degree
    <= 1, then 0-2 factors x^a + lower terms, a <= 3, of t1-degree <= 2a and
    t2-degree <= a, each to a power 1-3, in some draws times a factor of
    x-degree 4 whose side degrees may pass the bounds (delta, 2 delta,
    delta).  The linear factor is irreducible and lies within the
    proportional bounds (1, 2, 1) of every delta."""

    @st.composite
    def factor(draw, a, d1, d2):
        lower = st.tuples(st.integers(0, a - 1), st.integers(0, d1), st.integers(0, d2))
        table = draw(
            st.dictionaries(lower, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
        )
        table[(a, 0, 0)] = 1
        return SparsePoly(3, {e: Q(c) for e, c in table.items()})

    f = draw(factor(1, 2, 1)) ** draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(1, 3))
        f = f * draw(factor(a, 2 * a, a)) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = f * draw(factor(4, 6, 3))
    return f, draw(st.integers(1, 3))


def _check_bounded_factor_monic(f, delta):
    """Check factor_monic(f, bounds) for bounds (delta, 2 delta, delta):
    the unproved candidates hold every factor of the complete factorization
    within the proportional bounds, (a, 2a, a) for a factor of x-degree
    a <= delta, with its multiplicity, and may hold junk or products beside
    them, sorted as FactorList sorts.  Returns those factors."""
    bounds = (delta, 2 * delta, delta)
    want = [
        (g, e)
        for g, e in factor_monic(f).factors
        if g.degree_in(1) <= delta
        and all(
            (g.degree_in(i) or 0) * delta <= b * g.degree_in(1)
            for i, b in enumerate(bounds[1:], start=2)
        )
    ]
    got = factor_monic(f, bounds=bounds)
    assert all(pair in got.factors for pair in want)
    keys = [factor_sort_key(g) for g, _ in got.factors]
    assert keys == sorted(keys)
    assert got.scalar == 1
    return want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bounded_products())
def test_bounded_factor_monic_lists_every_factor_within_the_bounds(case):
    # every draw has a factor within the proportional bounds to list
    assert _check_bounded_factor_monic(*case)


def test_bounded_factor_monic_asks_only_for_the_proportional_bounds():
    # z2^3 + z1 + 1 lies within the box (2, 4, 2) but not within the
    # proportional bounds (1, 2, 1) of its x-degree, so the cut lift need
    # not list it: the only group of x-degree <= 2 is linear, so the lift
    # cuts the z2-order at 3
    g = parse_poly("z1 + z2^3 + 1", 3)
    f = g * parse_poly("z1^3 + z2 + z3 + 5", 3)
    assert (g, 1) in factor_monic(f).factors
    assert (g, 1) not in _check_bounded_factor_monic(f, 2)


def test_a_bounded_lift_stops_at_the_largest_subset_x_degree(monkeypatch):
    # the only group of x-degree <= bx = 2 is linear, so no candidate passes
    # x-degree 1: the lift runs mod z2^(floor(bv / bx) + 1) and z3^2 instead
    # of z2^(bv + 1) and z3^3, and still lists the linear factor, which lies
    # within the proportional bounds (1, bv / bx, bw / bx)
    import polyfactor.basefactor as basefactor

    linear = parse_poly("z1 + z2 + 2*z3 - 1", 3)
    f = linear * parse_poly("z1^3 + z1*z2 + z2^5*z3 + 2", 3)
    bounds = (2, 6, 2)
    orders = []
    lift_pair = basefactor._lift_pair

    def recorded(Fser, A0, B0, K, m, dioph):
        orders.append((K, dioph.length))
        return lift_pair(Fser, A0, B0, K, m, dioph)

    monkeypatch.setattr(basefactor, "_lift_pair", recorded)
    assert (linear.canonical(), 1) in factor_monic(f, bounds=bounds).factors
    # the lifts before f's own factor its bivariate base, with no bounds
    assert orders[-1] == (6 // 2 + 1, 2)
    assert all(length == 1 for _, length in orders[:-1])


@st.composite
def trivariate_monic_products(draw):
    """A product of 1-3 factors x^d + lower x-terms in (x, t1, t2), d <= 2,
    one of them possibly repeated; in some draws t2 is absent, in others the
    first factor gains the term t1^3 t2, so the t1-degree drops at t2 = 0."""
    no_t2 = draw(st.booleans())
    drop = not no_t2 and draw(st.booleans())

    @st.composite
    def factor(draw):
        d = draw(st.integers(1, 2))
        lower = st.tuples(
            st.integers(0, d - 1), st.integers(0, 2), st.integers(0, 0 if no_t2 else 2)
        ).filter(lambda e: e[1] + e[2] <= 2)
        coeff = st.integers(-3, 3).filter(bool)
        table = draw(st.dictionaries(lower, coeff, max_size=3))
        table[(d, 0, 0)] = 1
        return SparsePoly(3, {e: Q(c) for e, c in table.items()})

    parts = draw(st.lists(factor(), min_size=1, max_size=3))
    if drop:
        parts[0] = parts[0] + parse_poly("z2^3*z3", 3)
    f = SparsePoly.const(3, 1)
    for g in parts:
        f = f * g
    if draw(st.booleans()):
        f = f * parts[-1]
    return f


def _lift_slice_from_scratch_free(f, base):
    """lift_slice of f from base, prepared, with every factorization from
    scratch failing."""
    import polyfactor.basefactor as basefactor

    def no_scratch(*args):
        raise AssertionError("the slice should be lifted from its base")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_monic_sparse", no_scratch)
        return lift_slice(_read(f, f.n, 5 - f.n), PreparedBase(base), range(len(base)))


def _factors_by_image(f, base):
    """The factor of f over each group of base, in base's order, when f's
    factors keep base's pattern (their t2 = 0 images are base's groups,
    one each, with the same multiplicities); None otherwise."""
    by_image = {(g.eval_var(3, 0).canonical(), e): g for g, e in factor_monic(f).factors}
    if len(by_image) != len(base) or set(by_image) != set(base):
        return None
    return [by_image[pair] for pair in base]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(trivariate_monic_products())
def test_lift_slice_matches_factor_monic(f):
    # where f's factors keep the pattern of its t2 = 0 image, each group
    # lifts to the factor of f over it, even where t2 = 0 drops the
    # t1-degree; no draw is factored from scratch
    base = factor_monic(f.eval_var(3, 0)).factors
    want = _factors_by_image(f, base)
    lifted = _lift_slice_from_scratch_free(f, base)
    assert len(lifted) == len(base)
    if want is not None:
        assert [P.canonical() for P in lifted] == want
        assert all(P.terms[(P.degree_in(1), 0, 0)] == ONE for P in lifted)


def test_lift_slice_lifts_each_group_from_the_base():
    f = parse_product("(z1 - z2 - z3)*(z1 + z2 + z3^2)*(z1 + z3)^2", 3)
    base = factor_monic(f.eval_var(3, 0)).factors
    want = _factors_by_image(f, base)
    assert want is not None and len(want) == 3
    assert [P.canonical() for P in _lift_slice_from_scratch_free(f, base)] == want


@pytest.mark.parametrize(
    "text, base_text",
    [
        # base x - t1, x + t1 and f irreducible: each group alone lifts to
        # no factor of f
        ("z1^2 - z2^2 + z3", "z1^2 - z2^2"),
        # base x with multiplicity 2 and f no square: the root of f's lift
        # is x, which does not divide f
        ("z1^2 + z3", "z1^2"),
    ],
)
def test_lift_slice_of_an_irreducible_slice_divides_nothing(text, base_text):
    f = parse_poly(text, 3)
    base = factor_monic(parse_poly(base_text, 2)).factors
    lifted = _lift_slice_from_scratch_free(f, base)
    assert len(lifted) == len(base)
    for P in lifted:
        assert P is None or divide_out(f, P)[1] == 0


# f's images at the lift points hold a square, (z1 + z3)^2 up to the point,
# and a group whose x-leading coefficient is not 1 once read as integers
# (z2^2 + 2*z1 + 2 at z2 = 1, z1 + z2 + 1/2 at z3 = 1)
SQUARE_AND_NON_MONIC = "(z1 - z2 - z3)*(z1 + z2 + 1/2*z3^2)*(z1 + z3)^2"


def test_the_lift_rebuilds_no_group_over_q(monkeypatch):
    # every group is read as integers once: no lift scales a group monic or
    # raises it to its multiplicity as a SparsePoly
    f = parse_product(SQUARE_AND_NON_MONIC, 3)
    want = list(factor_monic(f).factors)
    bases = {v: _factor_monic_sparse(f.eval_var(v, 1)) for v in (2, 3)}
    assert all(any(e == 2 for _, e in base) for base in bases.values())
    slice_base = factor_monic(f.eval_var(3, 0)).factors
    slice_want = _factors_by_image(f, slice_base)
    assert slice_want is not None

    def rebuilt(*args):
        raise AssertionError("a group was rebuilt over Q")

    monkeypatch.setattr(SparsePoly, "scale", rebuilt)
    monkeypatch.setattr(SparsePoly, "__pow__", rebuilt)
    for v, base in bases.items():
        assert _attempt_lift(_read(f, v, 5 - v), 1, base) == want
        # bounded: the z2-order is cut below f's z2-degree
        assert set(want) <= set(_attempt_lift(_read(f, v, 5 - v), 1, base, (1, 1, 2)))
    lifted = lift_slice(_read(f, 3, 2), PreparedBase(slice_base), range(len(slice_base)))
    assert [P.canonical() for P in lifted] == slice_want


@pytest.mark.parametrize(
    "text, live",
    [
        ("(z1 + z2^2 + 1)*(z1 - 3*z2 + 2)^2", [1, 2]),  # z3 dead
        ("(z1 + z3^2 + 1)*(z1 - 3*z3 + 2)^2", [1, 3]),  # z2 dead
        ("(z1^2 - 2)*(z1 + 1)^2", [1]),  # both side variables dead
    ],
)
@pytest.mark.parametrize("bounds", [None, (2, 2, 2)])
def test_dead_side_variables_give_the_compacted_factorization(text, live, bounds):
    # a dead side variable is read as degree 0: the lift runs on f itself
    # and gives the factorization of f with its dead variables dropped,
    # re-embedded, with or without bounds
    f = parse_product(text, 3)
    low = f.map_variables({i - 1: slot for slot, i in enumerate(live)}, len(live))
    low_bounds = None if bounds is None else [bounds[i - 1] for i in live]
    back = [i - 1 for i in live]
    want = [(g.map_variables(back, 3).canonical(), e) for g, e in factor_monic(low, low_bounds).factors]
    assert list(factor_monic(f, bounds).factors) == want
    assert len(want) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_the_lift_prime_avoids_a_denominator_at_2_to_the_20(n):
    # 1048583 is the least prime >= 2^20; f's denominator is 1048583, so
    # the probes and the lift work mod the next prime, 1048589
    import polyfactor.basefactor as basefactor

    factors = {
        2: ["z1 + 1/1048583*z2 + 1", "z1 - z2^2 + 2"],
        3: ["z1 + 1/1048583*z2*z3 + 1", "z1 - z2^2 + z3"],
    }[n]
    f = parse_poly(factors[0], n) * parse_poly(factors[1], n)
    want = sorted((parse_poly(t, n).canonical() for t in factors), key=factor_sort_key)
    assert math.lcm(*(c.denominator for c in f.terms.values())) == 1048583
    primes_used = []
    node = basefactor.PreparedBase.node

    def recorded(prepared, p, *args):
        primes_used.append(p)
        return node(prepared, p, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor.PreparedBase, "node", recorded)
        assert factor_monic(f).factors == tuple((g, 1) for g in want)
    assert primes_used and set(primes_used) == {1048589}


@pytest.mark.parametrize(
    "text, n",
    [
        ("(z1 + z2^2 + 1)*(z1 - 3*z2 + 2)", 2),
        ("(z1 + z2*z3 + 1)*(z1^2 - z2 + z3)^2*(z1 - z3 + 2*z2)", 3),
        ("(z1 + z2)^4 + 1", 2),
    ],
)
def test_each_factor_monic_sparse_call_reads_its_input_once(text, n):
    # the probes and every lift attempt share one reading of f; its base
    # groups are read on their own
    import polyfactor.basefactor as basefactor

    frames, stack = [], []
    factor, read = basefactor._factor_monic_sparse, basefactor._int_table

    def counted_factor(g, *args):
        frame = [g, 0]
        frames.append(frame)
        stack.append(frame)
        try:
            return factor(g, *args)
        finally:
            stack.pop()

    def counted_read(g, *args):
        if stack and g is stack[-1][0]:
            stack[-1][1] += 1
        return read(g, *args)

    f = parse_product(text, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_monic_sparse", counted_factor)
        mp.setattr(basefactor, "_int_table", counted_read)
        assert factor_monic(f).recompose() == f
    assert len(frames) >= n
    assert [reads for _, reads in frames] == [1] * len(frames)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_int_rows_rebuild_the_polynomial(n):
    # random rational polynomials, some with integer content, some with a
    # negative x-leading coefficient, and never a term of x-degree 1, so
    # x-row 1 is always empty
    rng = rng_for("int-rows-%d" % n)
    # a slot past n, like None, reads exponent 0
    slots = {1: [(None, None), (3, 2)], 2: [(2, None), (None, 2), (2, 3)], 3: [(2, 3), (3, 2)]}[n]
    for trial in range(30):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            exps = (rng.choice([0, 2, 3]),) + tuple(rng.randint(0, 3) for _ in range(n - 1))
            terms[exps] = Q(rng.choice([-9, -4, -1, 1, 3, 6]), rng.choice([1, 2, 3, 5]))
        if trial % 3 == 0:
            terms = {e: Q(6 * c.numerator) for e, c in terms.items()}
        dx = max(e[0] for e in terms)
        if trial % 2:
            terms = {e: -abs(c) if e[0] == dx else c for e, c in terms.items()}
        f = SparsePoly(n, terms)
        for v, w in slots:
            rows, den = _int_rows(f, v, w)
            assert len(rows) == dx + 1 and (dx < 1 or rows[1] == [])
            assert den == math.lcm(*(c.denominator for c in terms.values()))
            back = {}
            for ex, row in enumerate(rows):
                for ev, ew, c in row:
                    assert type(c) is int
                    exps = [ex] + [0] * (n - 1)
                    for slot, e in ((v, ev), (w, ew)):
                        if slot and slot <= n:
                            exps[slot - 1] = e
                        else:
                            assert e == 0
                    back[tuple(exps)] = Q(c, den)
            assert SparsePoly(n, back) == f


@pytest.mark.parametrize(
    "text, n, v, w, v0",
    [
        ("(z1 - z2)*(z1 + z2^2 + 1/3)", 2, 2, 3, 1),
        (SQUARE_AND_NON_MONIC, 3, 2, 3, 1),
        (SQUARE_AND_NON_MONIC, 3, 3, 2, -1),
    ],
)
def test_the_lift_reads_the_series_the_fraction_path_gives(monkeypatch, text, n, v, w, v0):
    # f's series and each group u^e at the origin, read from Fractions:
    # u scaled monic in x and raised to e over Q, then taken mod m
    import polyfactor.basefactor as basefactor

    f = parse_product(text, n)
    base = _factor_monic_sparse(f.eval_var(v, v0))
    calls, images = [], []
    tree, read_images = basefactor._lift_tree, basefactor.PreparedBase.images

    def recorded(*args):
        calls.append(args)
        return tree(*args)

    def recorded_images(prepared, *args):
        images.append((args, read_images(prepared, *args)))
        return images[-1][1]

    monkeypatch.setattr(basefactor, "_lift_tree", recorded)
    monkeypatch.setattr(basefactor.PreparedBase, "images", recorded_images)
    assert _attempt_lift(_read(f, v, w), v0, base) == list(factor_monic(f).factors)
    Fser, K, m = calls[0][:3]
    # the lift's preparation reads the groups at the lift's modulus
    (_, wlen, images_m), groups = images[0]
    assert images_m == m

    def reference(w0):
        F = series(f, v, w, (f.degree_in(v) or 0) + 1, m)
        G = []
        for u, e in base:
            U = u.scale(ONE / u.terms[(u.degree_in(1),) + (0,) * (u.n - 1)]) ** e
            G.append(_shift_series(series(U, None, 2, 1, m), 0, w0, m, 1, wlen)[0])
        return _shift_series(F, v0, w0, m, K, wlen), G

    assert any(reference(w0) == (Fser, groups) for w0 in range(40))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(trivariate_monic_products(), st.sampled_from([2, 3]))
@example(parse_product("(z1^2 - z2 - z3^2)*(z1 + z2 + 2*z3)", 3), 2)
def test_attempt_lift_succeeds_where_the_base_keeps_the_squarefree_degree(f, v):
    # when the images of f's distinct factors are squarefree and pairwise
    # coprime, the base's squarefree x-degree is f's, and the lift recovers
    # f's factorization
    w = 5 - v
    want = list(factor_monic(f).factors)
    squarefree_degree = sum(u.degree_in(1) for u, _ in want)
    for v0 in (0, 1, -1):
        image = f.eval_var(v, v0)
        if (image.degree_in(2) or 0) != (f.degree_in(w) or 0):
            continue
        base = _factor_monic_sparse(image)
        if sum(u.degree_in(1) for u, _ in base) == squarefree_degree:
            assert _attempt_lift(_read(f, v, w), v0, base) == want, v0


def _random_monic_cd(rng, dx, dw, m):
    """x^dx plus lower x-terms whose coefficients have w-degree <= dw, mod m."""
    d = {cd_pack(dx, 0): 1}
    for ex in range(dx):
        for ew in range(dw + 1):
            d[cd_pack(ex, ew)] = rng.randint(-5, 5)
    return cd_reduce(d, m)


def _random_cd(rng, dx, dw, m):
    """Random (x, w) dict mod m with x-degree < dx and w-degree <= dw."""
    d = {}
    for ex in range(dx):
        for ew in range(dw + 1):
            d[cd_pack(ex, ew)] = rng.randrange(m)
    return cd_reduce(d, m)


def _coprime_monic_pair(rng, dxa, dxb, dw, p, m):
    """(A0, B0) monic in x whose w = 0 rows are coprime mod p."""
    while True:
        A0 = _random_monic_cd(rng, dxa, dw, m)
        B0 = _random_monic_cd(rng, dxb, dw, m)
        a0, b0 = (_cd_to_tau_series(d, 1)[0] for d in (A0, B0))
        if up_deg(up_gcd_p(a0, b0, p)) == 0:
            return A0, B0


@pytest.mark.parametrize("wdeg", [None, 1, 2])
def test_diophantine_solver_returns_the_known_corrections(wdeg):
    """e = dA*B0 + dB*A0 with deg_x dA < deg_x A0 and deg_x dB < deg_x B0
    has exactly one solution mod m; the solver must return it.  wdeg None is
    a bivariate lift: polynomials in x alone, one w-order."""
    rng = rng_for("diophantine-%s" % wdeg)
    p = 7
    m = p**9
    dw = wdeg or 0
    length = 1 if wdeg is None else 2 * wdeg + 3
    for _ in range(25):
        dxa, dxb = rng.randint(1, 3), rng.randint(1, 3)
        A0, B0 = _coprime_monic_pair(rng, dxa, dxb, dw, p, m)
        # w-degrees up to length - 1 - dw keep every product inside the solve
        dA = _random_cd(rng, dxa, length - 1 - dw, m)
        dB = _random_cd(rng, dxb, length - 1 - dw, m)
        e = cd_reduce(_mul_into(_mul_into({}, dA, B0), dB, A0), m)
        assert _Dioph(A0, B0, length, p, m).solve(e) == (dA, dB)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_diophantine_solutions_meet_their_degree_bounds(length):
    # any e of x-degree < D = deg A0 + deg B0, whatever its w-orders, has
    # its solution mod (w^length, m) within deg dA < deg A0 and deg dB <
    # deg B0, read from the solutions for x^i, i < D; an e of x-degree D
    # has none within them and is refused
    rng = rng_for("diophantine-columns-%d" % length)
    p = 11
    m = p**6
    for _ in range(20):
        dxa, dxb = rng.randint(1, 4), rng.randint(1, 4)
        A0, B0 = _coprime_monic_pair(rng, dxa, dxb, rng.randint(0, length), p, m)
        dioph = _Dioph(A0, B0, length, p, m)
        e = _random_cd(rng, dxa + dxb, length, m)
        dA, dB = dioph.solve(e)
        got = _mul_into(_mul_into({}, dA, B0), dB, A0)
        assert cd_reduce(_wcut(got, length), m) == _wcut(e, length)
        assert all(cd_unpack(key)[0] < dxa for key in dA)
        assert all(cd_unpack(key)[0] < dxb for key in dB)
        assert all(cd_unpack(key)[1] < length for key in (*dA, *dB))
        with pytest.raises(_AttemptFailed):
            dioph.solve({**e, cd_pack(dxa + dxb, 0): 1})


def test_bezout_step_keeps_the_identity():
    rng = rng_for("bezout-step")
    p = 5
    checked = 0
    while checked < 20:
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
        s, t, g = up_xgcd_p(a, b, p)
        if up_deg(g) != 0:
            continue
        M = p
        for _ in range(4):
            M *= M
            s, t = _bezout_step(M, a, b, s, t)
            assert up_mod(up_sub(up_add(up_mul(s, a), up_mul(t, b)), [1]), M) == []
        checked += 1


@pytest.mark.parametrize("wdeg", [None, 2])
def test_a_memoized_bezout_pair_is_the_fresh_one_at_every_precision(wdeg):
    # one tree node's memo serves lifts to precisions that rise, fall and
    # repeat; A0 and B0 are the same integers reduced mod each p^k, as a
    # node's groups are for every slice of one preparation
    rng = rng_for("bezout-memo-%s" % wdeg)
    p = 7
    dw = wdeg or 0
    precisions = [1, 3, 4, 2, 5, 5, 9, 7, 9, 3, 12, 6, 12]
    for _ in range(10):
        A0, B0 = _coprime_monic_pair(rng, rng.randint(1, 3), rng.randint(1, 3), dw, p, p**12)
        memo = {}
        for k in precisions:
            m = p**k
            A, B = cd_reduce(A0, m), cd_reduce(B0, m)
            shared, fresh = _Dioph(A, B, dw + 1, p, m, memo), _Dioph(A, B, dw + 1, p, m)
            assert (shared.s, shared.t) == (fresh.s, fresh.t), k
        assert memo[p][0] == p**12


def _tree_nodes(first, count):
    """The (first, count) of every inner node of a lift tree over count
    groups from index first, as `_lift_tree` visits them."""
    if count == 1:
        return []
    h = count // 2
    return [(first, count)] + _tree_nodes(first, h) + _tree_nodes(first + h, count - h)


@pytest.mark.parametrize(
    "text, n, w0, wlen",
    [
        # a line base: groups in x alone, one w-order
        ("(z1^2 + 3)*(z1 - 2)^2*(z1 + 5)*(z1^3 - z1 + 1)", 1, 0, 1),
        ("(z1 + 1/2)*(z1^2 - 7)", 1, 0, 1),
        # groups in (x, w), read at w0 = 1 with three w-orders
        ("(z1 + z2 + 1)*(z1^2 - z2^2 + 3)^2*(z1 - 2*z2)", 2, 1, 3),
    ],
)
def test_a_memoized_lift_tree_node_is_the_fresh_one_at_every_precision(text, n, w0, wlen):
    # one preparation serves lifts to precisions that rise, fall and repeat;
    # every node it returns mod m has the A0, B0 and Diophantine solutions
    # of a node built fresh mod m, though the tree may be kept at a larger
    # modulus and grows past the precision asked for
    base = factor_monic(parse_product(text, n)).factors
    p = 1048583
    prepared = PreparedBase(base)
    nodes = _tree_nodes(0, len(base))
    assert len(nodes) >= 1
    precisions = [1, 3, 4, 2, 5, 5, 9, 7, 9, 3, 12, 6, 12]
    moduli = set()
    for k in precisions:
        m = p**k
        fresh = PreparedBase(base)
        for first, count in nodes:
            A0, B0, dioph = prepared.node(p, w0, wlen, m, first, count)
            FA0, FB0, fdioph = fresh.node(p, w0, wlen, m, first, count)
            assert (A0, B0) == (FA0, FB0), (k, first, count)
            assert dioph.m == m and dioph.length == wlen
            assert (dioph.s, dioph.t, dioph.rows) == (fdioph.s, fdioph.t, fdioph.rows), k
        moduli.add(prepared.trees[p, w0, wlen][0])
    # the tree grew by squaring: one build and three rebuilds for seven
    # rises in precision
    assert sorted(moduli) == [p, p**3, p**6, p**12]
    assert prepared.trees[p, w0, wlen][0] == p**12


# ---------------------------------------------------------------------------
# Fraction reference: the squarefree decomposition over Q that the integer
# path replaced, kept here to check it part for part


def _uq_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _uq_divmod(f, g):
    rem = list(f)
    quot = [ZERO] * max(0, len(rem) - len(g) + 1)
    inv = ONE / g[-1]
    for k in range(len(rem) - len(g), -1, -1):
        c = rem[k + len(g) - 1]
        if not c:
            continue
        q = c * inv
        quot[k] = q
        for j, b in enumerate(g):
            rem[k + j] = rem[k + j] - q * b
    return _uq_trim(quot), _uq_trim(rem)


def _uq_gcd(f, g):
    a, b = _uq_trim(list(f)), _uq_trim(list(g))
    while b:
        _, r = _uq_divmod(a, b)
        a, b = b, r
    if a:
        inv = ONE / a[-1]
        a = [c * inv for c in a]
    return a


def _uq_deriv(f):
    return _uq_trim([c * i for i, c in enumerate(f)][1:])


def _uq_sub(f, g):
    out = [ZERO] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = out[i] - c
    return _uq_trim(out)


def _yun_q(f):
    """Squarefree decomposition [(monic part, multiplicity)] of monic f."""
    fp = _uq_deriv(f)
    u = _uq_gcd(f, fp)
    if not u or len(u) == 1:
        return [(f, 1)]
    v, _ = _uq_divmod(f, u)
    w, _ = _uq_divmod(fp, u)
    out = []
    i = 1
    while len(v) > 1:
        z = _uq_sub(w, _uq_deriv(v))
        if not z:
            out.append(([c / v[-1] for c in v], i))
            break
        h = _uq_gcd(v, z)
        if len(h) > 1:
            out.append((h, i))
        v, _ = _uq_divmod(v, h)
        w, _ = _uq_divmod(z, h)
        i += 1
    return out


def _random_repeated_product(rng):
    """c * prod g_i^e_i over Q, degree <= 40, repeated and shared factors."""
    coeff = lambda: Q(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    f = SparsePoly.const(1, Q(rng.choice([1, -1, 2, -6, 15]), rng.choice([1, 4, 9])))
    bases = []
    while True:
        if bases and rng.random() < 0.25:
            g = rng.choice(bases)  # the same factor again, other exponent
        else:
            deg = rng.randint(1, 5)
            terms = {(i,): coeff() for i in range(deg)}
            terms[(deg,)] = Q(rng.choice([1, -1, 3, -2, 5]), rng.choice([1, 2]))
            g = SparsePoly(1, terms)
            bases.append(g)
        e = rng.randint(1, 4)
        if (f.degree() or 0) + e * g.degree() > 40:
            return f
        f = f * g**e


def test_univariate_squarefree_parts_match_fraction_yun():
    rng = rng_for("univariate-yun-over-z")
    top = 0
    for _ in range(40):
        f = _random_repeated_product(rng)
        top = max(top, f.degree() or 0)
        pairs = _factor_univariate_pairs(_int_rows(f)[0], 1)
        # the product of the factors of each multiplicity, made monic, is
        # Yun's part of that multiplicity over Q
        parts = {}
        for g, mult in pairs:
            parts[mult] = parts.get(mult, SparsePoly.const(1, 1)) * g
        got = {
            mult: [p.terms.get((i,), ZERO) / p.leading_coefficient()
                   for i in range(p.degree() + 1)]
            for mult, p in parts.items()
        }
        coeffs = [f.terms.get((i,), ZERO) for i in range(f.degree() + 1)]
        monic = [c / coeffs[-1] for c in coeffs]
        reference = _yun_q(monic)
        assert got == dict((m, part) for part, m in reference)
        # and the factors themselves are those Zassenhaus gave the old path
        expected = []
        for part, mult in reference:
            ints = _up_primitive_z(clear_denominators(part)[0])
            for fac in _zassenhaus(ints):
                g = SparsePoly(1, {(i,): Q(c) for i, c in enumerate(fac) if c})
                expected.append((g.canonical(), mult))
        expected.sort(key=lambda pm: factor_sort_key(pm[0]))
        assert pairs == expected
    assert top >= 30


def _sympy_factor_heights(f):
    """The largest |coefficient| of each primitive integer factor G^e of f
    that sympy finds, e the multiplicity of G."""
    heights = []
    for g, e in sympy_factorization(f)[1].items():
        ints = clear_denominators((g ** int(e)).terms.values())[0]
        heights.append(max(abs(c) for c in ints) // math.gcd(*ints))
    return heights


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lowvar_products())
def test_factor_bound_bounds_every_sympy_factor(f):
    ints, den = clear_denominators(f.terms.values())
    bound = _factor_bound(ints, sum(f.degree_in(i) or 0 for i in range(1, f.n + 1)))
    assert max(_sympy_factor_heights(f.scale(Q(den)))) <= bound


def test_factor_bound_covers_a_factor_larger_than_its_product():
    # the 105th cyclotomic polynomial has the coefficient -2, larger than
    # any coefficient of x^105 - 1
    f = parse_poly("z1^105 - 1")
    heights = _sympy_factor_heights(f)
    assert max(heights) == 2
    assert max(heights) <= _factor_bound([-1] + [0] * 104 + [1], 105)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lowvar_products())
def test_factor_lowvar_matches_sympy(f):
    fl = factor_lowvar(f)
    scalar, mults = sympy_factorization(f)
    assert dict(fl.factors) == mults
    assert fl.scalar == scalar


# ---------------------------------------------------------------------------
# probe ranking by images mod primes, and the mod-q irreducibility certificate


def test_factor_count_mod_p_matches_berlekamp():
    # for small p the count is the length of Berlekamp's split; at p near
    # 2^20, where the split would loop over p values, sympy's factor count
    rng = rng_for("factor-count-mod-p")
    x = sympy.Symbol("x")
    checked = {3: 0, 7: 0, 1048583: 0}
    while min(checked.values()) < 20:
        p = rng.choice(sorted(checked))
        f = up_monic_p([rng.randrange(p) for _ in range(rng.randint(2, 7))] + [1], p)
        if up_deg(up_gcd_p(f, up_deriv(f), p)) != 0:
            continue
        if p < 100:
            expected = len(berlekamp(f, p))
        else:
            poly = sympy.Poly(list(reversed(f)), x, modulus=p)
            expected = len(poly.factor_list()[1])
        assert _factor_count_mod_p(f, p) == expected, (f, p)
        checked[p] += 1


@st.composite
def monic_products(draw):
    """(f, factor count): a product of 1-3 factors x^d + lower terms, d <= 3,
    in (x, t1) or (x, t1, t2) with small integer coefficients, the first
    possibly repeated."""
    n = draw(st.sampled_from([2, 3]))
    exps = st.tuples(*[st.integers(0, 2)] * (n - 1))

    @st.composite
    def factor(draw):
        d = draw(st.integers(1, 3))
        lower = st.tuples(st.integers(0, d - 1), exps).map(lambda e: (e[0],) + e[1])
        table = draw(st.dictionaries(lower, st.integers(-3, 3).filter(bool), max_size=3))
        table[(d,) + (0,) * (n - 1)] = 1
        return SparsePoly(n, {e: Q(c) for e, c in table.items()})

    parts = draw(st.lists(factor(), min_size=1, max_size=3))
    if draw(st.booleans()):
        parts.append(parts[0])
    f = SparsePoly.const(n, 1)
    for g in parts:
        f = f * g
    return f, len(parts)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(monic_products())
def test_factor_monic_matches_sympy_on_monic_products(case):
    f, _ = case
    fl = factor_monic(f)
    scalar, mults = sympy_factorization(f)
    assert dict(fl.factors) == mults
    assert fl.scalar == scalar


def _count_probes_and_lifts(f):
    """factor_monic(f) with, per _factor_monic_sparse call, [probes factored
    over Q, lifts tried, lifts that succeeded]."""
    import polyfactor.basefactor as basefactor

    frames, stack = [], []
    factor, lift = basefactor._factor_monic_sparse, basefactor._attempt_lift

    def counted_factor(g, *args):
        if stack:
            stack[-1][0] += 1
        frame = [0, 0, 0]
        frames.append(frame)
        stack.append(frame)
        try:
            return factor(g, *args)
        finally:
            stack.pop()

    def counted_lift(*args):
        stack[-1][1] += 1
        result = lift(*args)
        stack[-1][2] += 1
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_monic_sparse", counted_factor)
        mp.setattr(basefactor, "_attempt_lift", counted_lift)
        fl = factor_monic(f)
    return fl, frames


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    monic_products().filter(
        lambda case: case[1] >= 2
        and all(case[0].degree_in(i) for i in range(2, case[0].n + 1))
    )
)
def test_one_probe_is_factored_over_q_per_lift(case):
    # f is reducible and uses every side variable, so each level's probes
    # keep their variables: a level factors over Q only the probe it lifts
    # from, one per lift tried, and ends with one successful lift; the
    # univariate bottom level lifts nothing
    f, _ = case
    fl, frames = _count_probes_and_lifts(f)
    assert fl.recompose() == f
    assert len(frames) == f.n
    for probes, tried, lifted in frames[:-1]:
        assert probes == tried and lifted == 1
    assert frames[-1] == [0, 0, 0]


@pytest.mark.parametrize(
    "text, n",
    [
        ("(z1 + z2)^4 + 1", 2),
        ("(z1 + z2 + z3)^4 + 1", 3),
        ("(z1 + z2*z3)^4 - 10*(z1 + z2*z3)^2 + 1", 3),
    ],
)
def test_images_reducible_mod_every_prime_fall_back_to_q(text, n):
    # x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Q but reducible mod
    # every prime, and so is every univariate image of these translates:
    # the certificate never fires, and factoring a probe over Q proves f
    # irreducible
    import polyfactor.basefactor as basefactor

    f = parse_product(text, n)
    counts = []

    def spy(g, p):
        counts.append(_factor_count_mod_p(g, p))
        return counts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_count_mod_p", spy)
        fl, frames = _count_probes_and_lifts(f)
    assert fl.factors == ((f, 1),)
    assert counts and 1 not in counts
    assert frames[0][0] == 1  # one probe factored over Q, no lift
    assert all(tried == 0 for _, tried, _ in frames)


@pytest.mark.parametrize("text", ["z1^2 + z2^2 + z3^2 + 1", "z1^4 + z2^2*z3 + z1 + 1"])
def test_irreducible_image_mod_q_certifies_without_a_probe(text):
    # a probe's image is squarefree of full degree and irreducible mod the
    # least prime that keeps it squarefree, so f is irreducible with no
    # probe factored and no lift
    f = parse_poly(text, 3)
    fl, frames = _count_probes_and_lifts(f)
    assert fl.factors == ((f, 1),)
    assert frames == [[0, 0, 0]]
    assert sympy_irreducible(f)


@pytest.mark.parametrize("extra, n", [("z2", 2), ("z2 + z3", 3)])
def test_a_probe_that_splits_into_linears_is_not_lifted_from(extra, n):
    # f = (x - 1)...(x - 12) + extra is irreducible, but its earliest probe,
    # at 0, splits into 12 linear factors; lifting from it would try
    # thousands of subsets before the whole set.  Its image has 12 factors
    # mod every prime that keeps it squarefree, more than a generic probe's
    # image, so the ranking passes it over and no lift is tried
    linears = "*".join("(z1 - %d)" % i for i in range(1, 13))
    f = parse_product(linears + " + " + extra, n)
    fl, frames = _count_probes_and_lifts(f)
    assert fl.factors == ((f, 1),)
    assert all(tried == 0 for _, tried, _ in frames)
    assert factor_lowvar(f).factors == ((f, 1),)
