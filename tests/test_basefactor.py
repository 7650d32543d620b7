"""Base factorizer: univariate, bivariate, trivariate."""

import math
from collections import Counter
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from polyfactor.rational import Q, ONE, ZERO, clear_denominators
from polyfactor.sparse import SparsePoly, _int_table, _mul_into
from polyfactor.factors import divide_out, factor_sort_key
from polyfactor.parse import parse_poly, parse_product, render_poly
from polyfactor.basefactor import (
    factor_candidates,
    factor_monic,
    factor_lowvar,
    is_irreducible_lowvar,
    lift_slice,
    PreparedBase,
    _AttemptFailed,
    _DegeneratePoint,
    _Dioph,
    _attempt_lift,
    _bezout_step,
    _factor_bound,
    _factor_count_mod_p,
    _factor_monic_sparse,
    _factor_univariate_pairs,
    _lift_pair,
    _series_mul,
    _series_root,
    _series_to_qpoly,
    _shift_series,
    _up_primitive_z,
    _zassenhaus,
    berlekamp,
    up_add,
    up_deg,
    up_deriv,
    up_gcd_p,
    up_mod,
    up_monic_p,
    up_mul,
    up_divmod,
    up_sub,
    up_trim,
    up_xgcd_p,
)
from polyfactor.engine import monicize
from polyfactor.errors import PolyError, ZeroPolynomialError
from polyfactor.isolation import compact_scheme, psi_map

from conftest import (
    at_z3_0,
    int_rows,
    lowvar_products,
    random_poly,
    read_rows,
    restricted_pairs,
    rng_for,
    sympy_factorization,
    sympy_irreducible,
)


def pairs(fl):
    return [(render_poly(p), m) for p, m in fl.factors]


# ---------------------------------------------------------------------------
# dict form (tests only): the references keep each element of a v-series as
# an (x, w) dict on packed keys ex * STRIDE + ew, which add componentwise, so
# the sparse kernel's _mul_into multiplies two; the lift's one form, rows by
# w-order of x coefficients, is compared with them through rows_of and dict_of

STRIDE = 1 << 20


def cd_pack(ex, ew):
    return ex * STRIDE + ew


def cd_unpack(key):
    return key // STRIDE, key % STRIDE


def cd_reduce(a, m):
    """The nonzero entries of a mod m."""
    return {k: v % m for k, v in a.items() if v % m}


def wcut(d, wlen):
    """The entries of an (x, w) dict below w-order wlen."""
    return {k: c for k, c in d.items() if k % STRIDE < wlen}


def rows_of(d, L):
    """The (x, w) dict d as L rows by w-order, each a list of x
    coefficients as long as d's x-degree allows; entries of w-order >= L
    are dropped."""
    rows = [[0] * (max(d, default=0) // STRIDE + 1) for _ in range(L)]
    for key, c in d.items():
        ex, ew = divmod(key, STRIDE)
        if ew < L:
            rows[ew][ex] = c
    return rows


def dict_of(rows):
    """Rows by w-order back to an (x, w) dict of their nonzero entries."""
    return {cd_pack(ex, ew): c for ew, row in enumerate(rows) for ex, c in enumerate(row) if c}


def terms_of(ser):
    """The terms (ex, ev, ew, c) of a v-series of (x, w) dicts, as
    `_shift_series` takes them."""
    return [
        (key // STRIDE, ev, key % STRIDE, c) for ev, d in enumerate(ser) for key, c in d.items()
    ]


def shift_series(ser, cv, cw, m, vlen=None, wlen=None):
    """`_shift_series` on a v-series of (x, w) dicts, its rows read back as
    dicts; vlen or wlen None cuts nothing."""
    if vlen is None:
        vlen = len(ser)
    if wlen is None:
        wlen = 1 + max((key % STRIDE for d in ser for key in d), default=0)
    return [dict_of(rows) for rows in _shift_series(terms_of(ser), cv, cw, m, vlen, wlen)]


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


def univariate_base(f, v, v0, w0=0):
    """f's factorization over Q with z_v at v0 and its other side variable,
    if any, at w0: the univariate base a lift of f starts from."""
    image = f.eval_var(v, v0)
    return _factor_monic_sparse(image.eval_var(2, w0) if image.n > 1 else image)


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
    """The lift translates its evaluation point (v0, w0) to the origin and
    back: at every point that yields a result it is the complete
    factorization."""
    f = parse_product(text, n)
    want = list(factor_monic(f).factors)
    lifted = []
    for v0 in (0, 1, -1, 2):
        for w0 in (0, 1, -1) if w else (0,):
            base = univariate_base(f, v, v0, w0)
            try:
                result = _attempt_lift(read_rows(f, v, w or 3), v0, base, None, w0)
            except _AttemptFailed:
                continue
            assert result == want, (v0, w0, result)
            lifted.append((v0, w0))
    assert set(lifted) - {(0, 0)}, "no lift away from the origin: %s" % lifted


def test_attempt_lift_with_a_nonzero_w_point():
    # at v0 = 0 the slice's factors (x + w) and (x - w) meet at w = 0: the
    # base there, x^2, lifts in w to x^2 - w^2, no square, so the point is
    # degenerate, and the lift from w0 = 1 gives f's factorization
    f = parse_product("(z1 + z3 + z2)*(z1 - z3 + 2*z2)", 3)
    reading = read_rows(f, 2, 3)
    assert univariate_base(f, 2, 0, 0) == [(parse_poly("z1"), 2)]
    with pytest.raises(_DegeneratePoint):
        _attempt_lift(reading, 0, univariate_base(f, 2, 0, 0), None, 0)
    base = univariate_base(f, 2, 0, 1)
    assert _attempt_lift(reading, 0, base, None, 1) == list(factor_monic(f).factors)


def test_attempt_lift_recombines_the_pieces_of_a_split_factor():
    # cd pool entry 31's trivariate image: its irreducible cubic factor
    # splits at each point into groups whose lifts are power series in v
    # and w; only their product, cut at f's degrees, is the cubic
    f = parse_poly("-3*z2^3*z4^3 + z3^3*z4^3 - 3*z4^6 + 5*z4^3", 4)
    f3 = psi_map(monicize(f)[1], compact_scheme(4, 2)).to_sparse()
    want = list(factor_monic(f3).factors)
    for v0 in (0, 1, -1, 2):
        lifted = []
        for w0 in (0, 1, -1, 2):
            base = univariate_base(f3, 2, v0, w0)
            try:
                lifted.append(_attempt_lift(read_rows(f3, 2, 3), v0, base, None, w0))
            except _AttemptFailed:
                continue
        assert lifted and all(result == want for result in lifted), v0
    # the lift divides f down to a constant remainder, so the first factor
    # fixes the second
    assert [m for _, m in want] == [3, 1]
    assert want[0][0] == parse_poly("z2^12*z3 + z1 + z2", 3)
    assert want[1][0].degree_in(1) == 3
    # at z2 = 0 the quadratic splits into (z1 - z3)(z1 + z3), whose images
    # at z3 = 1 are two of the three groups
    g = parse_product("(z1^2 - z2 - z3^2)*(z1 + z2 + 2*z3)", 3)
    base = univariate_base(g, 2, 0, 1)
    assert len(base) == 3
    assert _attempt_lift(read_rows(g, 2, 3), 0, base, None, 1) == list(factor_monic(g).factors)


def test_attempt_lift_fails_at_a_point_that_merges_factors():
    # at z2 = 0 the first input's quadratic has the image z1^2, which is not
    # squarefree, and both linear factors of the second have the image z1:
    # at every w0 no subset reconstructs a factor of f, so the lift raises
    # and factor_monic moves on to another point
    for text in ["(z1^2 - z2*z3 - z2)*(z1 + z3)", "(z1 + z2*z3)*(z1 - z2*z3 + z2)"]:
        f = parse_product(text, 3)
        for w0 in (0, 1, 2):
            with pytest.raises(_AttemptFailed):
                _attempt_lift(read_rows(f, 2, 3), 0, univariate_base(f, 2, 0, w0), None, w0)
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
    assert _attempt_lift(read_rows(f, 2, 3), 0, base) == [(f, 1)]
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
    assert _attempt_lift(read_rows(f, 2, 3), 0, base) == [(f, 1)]
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
    # three groups at (z2, z3) = (0, 1): two factors are found by subsets and
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
    base = univariate_base(f, 2, 0, 1)
    assert len(base) == 3
    monkeypatch.setattr(basefactor, "divide_out", counted)
    assert _attempt_lift(read_rows(f, 2, 3), 0, base, None, 1) == want
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
        assert _attempt_lift(read_rows(f, 2, 3), v0, base) == [(u, 2)], v0
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
    shifted = shift_series(ser, cv, cw, m)
    assert shifted == series(f.shift(offsets), v, w, K, m)
    assert shift_series(shifted, -cv, -cw, m) == ser


def shift_series_dicts(ser, cv, cw, m, vlen=None, wlen=None):
    """The reference for `_shift_series`: the same Taylor shift, each term
    expanded by binomials into one dict per v-order, v as well as w, every
    value reduced mod m, a zero shift's too."""
    if vlen is None:
        vlen = len(ser)

    def taylor(e, c, n):
        """The coefficients of (z + c)^e below z^n (all for n None), ascending."""
        top = e + 1 if n is None else min(e + 1, n)
        return [math.comb(e, j) * c ** (e - j) for j in range(top)]

    rows = ser
    if cw:
        rows = []
        for row in ser:
            out = {}
            for key, val in row.items():
                ew = key % STRIDE
                for j, b in enumerate(taylor(ew, cw, wlen)):
                    out[key - ew + j] = out.get(key - ew + j, 0) + val * b
            rows.append(out)
    elif wlen is not None:
        rows = [wcut(row, wlen) for row in ser]
    if cv:
        out = [dict() for _ in range(min(vlen, len(rows)))]
        for ev, row in enumerate(rows):
            for target, b in zip(out, taylor(ev, cv, vlen)):
                for key, val in row.items():
                    target[key] = target.get(key, 0) + val * b
        rows = out
    return [cd_reduce(row, m) for row in rows[:vlen]]


def _random_series(rng, K, dx, dw, low, high):
    """A v-series of K (x, w) dicts with x-degree <= dx and w-degree <= dw,
    about half the keys present, values drawn from [low, high]."""
    return [
        {
            cd_pack(ex, ew): rng.randint(low, high)
            for ex in range(dx + 1)
            for ew in range(dw + 1)
            if rng.random() < 0.5
        }
        for _ in range(K)
    ]


@pytest.mark.parametrize("K", [1, 2, 5, 13, 41])
def test_packed_shift_is_the_dict_shift(K):
    # reduced, unreduced and negative values; a negative, zero and positive
    # v-shift, with and without a w-shift, and cuts in v and w
    rng = rng_for("packed-shift-%d" % K)
    m = 1000003**3
    for low, high in [(0, m - 1), (-5 * m, 5 * m), (-9, 9)]:
        for cv in (-3, -1, 0, 1, 2, 7):
            for cw, vlen, wlen in [(0, None, None), (-2, None, 3), (3, (K + 1) // 2, 2), (0, 1, 1)]:
                ser = _random_series(rng, K, 3, 3, low, high)
                want = shift_series_dicts(ser, cv, cw, m, vlen, wlen)
                assert shift_series(ser, cv, cw, m, vlen, wlen) == want, (low, cv, cw, vlen)


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
            ser = _shift_series(terms_of(full), cv, cw, m, K, wlen)
            root = _series_root(ser, e, wlen, m)
            assert len(root) == K and all(len(rows) == wlen for rows in root)
            root = _shift_series(terms_of(map(dict_of, root)), -cv, -cw, m, K, wlen)
            assert _series_to_qpoly(root, 2, 3, 3, m) == want, (K, wlen)


def packed_vxw(ser):
    """A v-series as one dict on packed (v, x, w) keys, which the sparse
    kernel's _mul_into multiplies."""
    return {
        (ev * STRIDE + ex) * STRIDE + ew: c
        for ev, rows in enumerate(ser)
        for ew, r in enumerate(rows)
        for ex, c in enumerate(r)
        if c
    }


def sparse_series_product(A, B, K, L, m):
    """The reference for `_series_mul`: A B on packed (v, x, w) keys, cut
    at (v^K, w^L) and reduced mod m."""
    want = cd_reduce(_mul_into({}, packed_vxw(A), packed_vxw(B)), m)
    return {key: c for key, c in want.items() if key // STRIDE**2 < K and key % STRIDE < L}


@pytest.mark.parametrize("K", [1, 2, 3, 17, 41])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_series_mul_is_the_sparse_product(K, L):
    # v-series as `_lift_pair` leaves them: L rows by w-order per v-order,
    # rows untrimmed, () where a solve was skipped, [] in a skipped v-order,
    # of x-degree up to 3; their product is the sparse kernel's product of
    # the same series on packed (v, x, w) keys, cut at (v^K, w^L) and
    # reduced mod m
    rng = rng_for("series-mul-%d-%d" % (K, L))
    m = 1048583**3

    def row():
        kind = rng.random()
        if kind < 0.2:
            return ()
        if kind < 0.3:
            return []
        return [rng.randrange(m) for _ in range(rng.randint(1, 4))] + [0] * rng.randint(0, 1)

    def draw():
        ser = [[row() for _ in range(L)] for _ in range(K)]
        if K > 1 and rng.random() < 0.3:
            ser[rng.randrange(1, K)] = [[] for _ in range(L)]
        return ser

    for _ in range(30):
        A, B = draw(), draw()
        got = _series_mul(A, B, K, L, m)
        assert len(got) == K and all(len(rows) == L for rows in got)
        assert all(not r or r[-1] for rows in got for r in rows)
        assert packed_vxw(got) == sparse_series_product(A, B, K, L, m)


@pytest.mark.parametrize("K, L", [(1, 1), (41, 1), (41, 3), (41, 4)])
def test_packed_series_mul_digits_reach_their_bound(K, L):
    # every coefficient m - 1, m just below 2^61, at every (v, w, x) of
    # x-degree 3: digit K - 1 of entry (L - 1, 3) sums K X L products of
    # (m - 1)^2, X = 4 the row length, the most the digit width admits, and
    # no digit may carry into the next
    m = (1 << 61) - 1
    A = [[[m - 1] * 4 for _ in range(L)] for _ in range(K)]
    got = _series_mul(A, A, K, L, m)
    assert packed_vxw(got) == sparse_series_product(A, A, K, L, m)
    assert got[K - 1][L - 1][3] == K * 4 * L % m


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


def held(raw, want):
    """Whether the bounded candidates raw, a list of (factor, multiplicity)
    before FactorList adds the multiplicities of equal ones, hold each
    wanted pair at z3 = 0 as often as want does: the restrictions of two
    factors, or of a factor and junk, may be equal."""
    return not Counter((at_z3_0(g).canonical(), e) for g, e in want) - Counter(raw)


def _check_bounded_factor_monic(f, delta):
    """Check factor_candidates(f, bounds) for bounds (delta, 2 delta, delta):
    the unproved candidates, restrictions to z3 = 0, hold the restriction
    of every factor of the complete factorization within the proportional
    bounds, (a, 2a, a) for a factor of x-degree a <= delta, with its
    multiplicity (`held`), and may hold junk or products beside them,
    sorted as FactorList sorts.  Returns those factors, unrestricted."""
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
    got = factor_candidates(f, bounds)
    assert held(_factor_monic_sparse(f, bounds), want)
    assert all(at_z3_0(g) == g for g, _ in got.factors)
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
    # x-degree 1: the lift runs mod z2^(floor(bv / bx) + 1) instead of
    # z2^(bv + 1), and still lists the linear factor, which lies within the
    # proportional bounds (1, bv / bx, bw / bx), at z3 = 0
    import polyfactor.basefactor as basefactor

    linear = parse_poly("z1 + z2 + 2*z3 - 1", 3)
    f = linear * parse_poly("z1^3 + z1*z2 + z2^5*z3 + 2", 3)
    bounds = (2, 6, 2)
    orders = []
    lift_pair = basefactor._lift_pair

    def recorded(Fser, A0, B0, K, m, dioph):
        orders.append((K, len(A0)))
        return lift_pair(Fser, A0, B0, K, m, dioph)

    monkeypatch.setattr(basefactor, "_lift_pair", recorded)
    assert (at_z3_0(linear).canonical(), 1) in factor_candidates(f, bounds).factors
    # the popped point has w0 = 0 and no repeated group, so no w-lift runs,
    # and the z2-lift carries one z3-order: the candidates are cut at z3 = 0
    assert orders == [(6 // 2 + 1, 1)]


def test_a_bounded_lift_from_w0_other_than_0_shifts_back_then_cuts(monkeypatch):
    # the slice's w-probes are forced to pop w0 = 3 first: the lift carries
    # the 2 z3-orders of its cut in both passes, and each candidate is
    # shifted back to z3 = 0 before it is cut there, so the linear factor
    # is listed at z3 = 0 and no candidate keeps a z3-term
    import polyfactor.basefactor as basefactor

    linear = parse_poly("z1 + z2 + 2*z3 - 1", 3)
    f = linear * parse_poly("z1^3 + z1*z2 + z2^5*z3 + 2", 3)
    probes, lift, lift_pair = basefactor._probes, basefactor._attempt_lift, basefactor._lift_pair
    points, orders = [], []

    def w0_3_first(reading):
        if reading.n == 3:
            yield from probes(reading)
            return
        yield 3
        yield from (t0 for t0 in probes(reading) if t0 != 3)

    def recorded_lift(reading, v0, base, bounds, w0, plane):
        points.append(w0)
        return lift(reading, v0, base, bounds, w0, plane)

    def recorded(Fser, A0, B0, K, m, dioph):
        orders.append((K, len(A0)))
        return lift_pair(Fser, A0, B0, K, m, dioph)

    monkeypatch.setattr(basefactor, "_probes", w0_3_first)
    monkeypatch.setattr(basefactor, "_attempt_lift", recorded_lift)
    monkeypatch.setattr(basefactor, "_lift_pair", recorded)
    got = factor_candidates(f, (2, 6, 2)).factors
    assert points == [3]
    assert orders == [(2, 1), (6 // 2 + 1, 2)]
    assert (parse_poly("z1 + z2 - 1", 3), 1) in got
    assert all(at_z3_0(g) == g for g, _ in got)


@pytest.mark.parametrize("w0", [0, 3])
def test_the_w_lift_reads_the_plane_and_the_forward_shift_the_v_lifts_w_orders(
    monkeypatch, w0
):
    # f's linear factor is squared, so the w-lift and its power guard carry
    # wg = 3 z3-orders, while the z2-lift carries L: 1 at w0 = 0, where the
    # candidates are cut at z3 = 0, and wcut = 2 at w0 = 3; the probes are
    # forced to pop v0 = 2, where the plane F(x, 2, z3) is integral while f
    # has denominator 4, and w0 first.  The forward shift of f is asked for
    # L z3-orders only, and the w-lift's rows, the plane shifted by w0, are
    # v-order 0 of f's whole shift
    import polyfactor.basefactor as basefactor

    linear = parse_poly("z1 + 1/2*z2 + 2*z3 - 1", 3)
    f = linear**2 * parse_poly("z1^3 + z1*z2 + z2^5*z3 + 2", 3)
    probes, lift = basefactor._probes, basefactor._attempt_lift
    shift, tree = basefactor._shift_series, basefactor._lift_tree
    points, shifts, trees = [], [], []

    def forced(reading):
        first = 2 if reading.n == 3 else w0
        yield first
        yield from (t0 for t0 in probes(reading) if t0 != first)

    def recorded_lift(reading, v0, base, bounds, w0, plane):
        points.append((v0, w0))
        return lift(reading, v0, base, bounds, w0, plane)

    def recorded_shift(terms, cv, cw, m, vlen, wlen, den=1):
        shifts.append((cv, cw, vlen, wlen))
        return shift(terms, cv, cw, m, vlen, wlen, den)

    def recorded_tree(Fser, K, m, node, first, count):
        trees.append((Fser, K, m))
        return tree(Fser, K, m, node, first, count)

    monkeypatch.setattr(basefactor, "_probes", forced)
    monkeypatch.setattr(basefactor, "_attempt_lift", recorded_lift)
    monkeypatch.setattr(basefactor, "_shift_series", recorded_shift)
    monkeypatch.setattr(basefactor, "_lift_tree", recorded_tree)
    got = factor_candidates(f, (2, 6, 2)).factors
    assert (at_z3_0(linear).canonical(), 2) in got
    assert points == [(2, w0)]
    v0, L = 2, 1 if w0 == 0 else 2
    # the first tree is the w-lift's, over the plane's rows, the last the
    # z2-lift's: f is shifted to its K z2-orders and L z3-orders, then the
    # plane to wg z3-orders
    wser, wg, m = trees[0]
    assert shifts[:2] == [(v0, w0, trees[-1][1], L), (w0, 0, 3, 1)]
    assert wg == 3 and all(len(rows) == 1 for rows in wser)
    full = shift_series(series(f, 2, 3, f.degree_in(2) + 1, m), v0, w0, m, 1, wg)
    assert dict_of([rows[0] for rows in wser]) == full[0]


def test_a_bounded_lift_stops_at_the_largest_x_degree_of_one_multiplicity(monkeypatch):
    # f = g1^3 g2 c, c a cubic: the groups of x-degree <= bx = 2 are g1's,
    # of multiplicity 3, and g2's, of 1, and a candidate that mixes
    # multiplicities is None, so no candidate passes x-degree 1: the
    # z2-lift runs mod z2^(bv // bx + 1), not z2^(2 bv // bx + 1), and the
    # raw candidates still hold every factor sympy finds within the bounds
    import polyfactor.basefactor as basefactor

    g1 = parse_poly("z1 + z2 + z3 - 1", 3)
    g2 = parse_poly("z1 - z2 + 2*z3 + 1", 3)
    f = g1**3 * g2 * parse_poly("z1^3 + z1*z2 + z2^5*z3 + 2", 3)
    bx, bv, bw = bounds = (2, 6, 2)
    orders = []
    lift_pair = basefactor._lift_pair

    def recorded(Fser, A0, B0, K, m, dioph):
        orders.append(K)
        return lift_pair(Fser, A0, B0, K, m, dioph)

    monkeypatch.setattr(basefactor, "_lift_pair", recorded)
    raw = _factor_monic_sparse(f, bounds)
    want = [
        (g, e)
        for g, e in sympy_factorization(f)[1].items()
        if g.degree_in(1) <= bx
        and (g.degree_in(2) or 0) * bx <= bv * g.degree_in(1)
        and (g.degree_in(3) or 0) * bx <= bw * g.degree_in(1)
    ]
    assert len(want) == 2 and held(raw, want)
    # the w-lift's pairs, then the z2-lift's, over three groups
    assert len(orders) == 4 and orders[2:] == [bv // bx + 1] * 2


def test_a_bounded_certificate_is_cut_at_z3_0():
    # every image of f is x^2 + c with c > 0, irreducible over Q, so f is
    # certified irreducible; with bounds it comes back at z3 = 0, as every
    # bounded candidate does, and a bivariate f, which lacks z3, whole
    f = parse_poly("z1^2 + z2^2 + z2*z3 + z3^2 + 1", 3)
    assert factor_monic(f).factors == ((f, 1),)
    assert factor_candidates(f, (2, 2, 2)).factors == ((parse_poly("z1^2 + z2^2 + 1", 3), 1),)
    assert _factor_monic_sparse(read_rows(f, 2, 3), (2, 2, 2)) == [(at_z3_0(f), 1)]
    g = parse_poly("z1^2 + z2^2 + 1", 2)
    assert factor_candidates(g, (2, 2)).factors == ((g, 1),)


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


def test_a_point_that_merges_two_factors_is_passed_over(monkeypatch):
    # f's slices hold (x + v0 + w)(x + v0 + 2w), whose images meet at
    # w0 = 0, and the w-probes are forced to try w0 = 0 first: the base
    # (x + v0)^2 lifts in w to no square, so the guard makes the point
    # degenerate, the next w-probe is lifted from, and both the complete
    # and the bounded factorization are whole
    import polyfactor.basefactor as basefactor

    f = parse_product("(z1 + z2 + z3)*(z1 + z2 + 2*z3)*(z1 - z2 + 3)", 3)
    texts = ["z1 + z2 + z3", "z1 + z2 + 2*z3", "z1 - z2 + 3"]
    want = {(parse_poly(t, 3).canonical(), 1) for t in texts}
    assert set(sympy_factorization(f)[1].items()) == want
    probes, lift = basefactor._probes, basefactor._attempt_lift
    tried = []

    def merging_first(reading):
        if reading.n == 3:  # f's own v-probes keep their order
            yield from probes(reading)
            return
        yield 0
        yield from (t0 for t0 in probes(reading) if t0 != 0)

    def recorded(reading, v0, base, bounds, w0, plane):
        try:
            return lift(reading, v0, base, bounds, w0, plane)
        except _DegeneratePoint:
            tried.append(w0)
            raise

    monkeypatch.setattr(basefactor, "_probes", merging_first)
    monkeypatch.setattr(basefactor, "_attempt_lift", recorded)
    assert set(factor_monic(f).factors) == want
    assert tried == [0]
    # the bounded candidates are cut at z3 = 0, where the first two factors
    # meet: their restriction is listed once, with multiplicity 2
    restricted = set(restricted_pairs(want))
    assert (parse_poly("z1 + z2", 3), 2) in restricted
    assert restricted <= set(factor_candidates(f, (2, 2, 2)).factors)
    assert tried == [0, 0]
    # the bounds (1, 1, 1) cut the lift at w^2, where (x + v0)^2 does lift
    # to a square, (x + v0 + 3/2 w)^2; the guard's w-lift runs to w^3
    assert restricted <= set(factor_candidates(f, (1, 1, 1)).factors)
    assert tried == [0, 0, 0]


def _lift_slice_from_scratch_free(f, base):
    """lift_slice of f from base, prepared, with every factorization from
    scratch failing."""
    import polyfactor.basefactor as basefactor

    def no_scratch(*args):
        raise AssertionError("the slice should be lifted from its base")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_monic_sparse", no_scratch)
        return lift_slice(read_rows(f, f.n, 5 - f.n), PreparedBase(base), range(len(base)))


def _origin_base(f):
    """The factorization of f(x, 0, 0), f in (x, t1, t2): the univariate
    base `lift_slice` lifts f from."""
    return factor_monic(f.eval_var(3, 0).eval_var(2, 0)).factors


def _factors_by_image(f, base):
    """The factor of f over each group of base, in base's order, when f's
    factors keep base's pattern (their images at t1 = t2 = 0 are base's
    groups, one each, with the same multiplicities); None otherwise."""
    by_image = {
        (g.eval_var(3, 0).eval_var(2, 0).canonical(), e): g for g, e in factor_monic(f).factors
    }
    if len(by_image) != len(base) or set(by_image) != set(base):
        return None
    return [by_image[pair] for pair in base]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(trivariate_monic_products())
def test_lift_slice_matches_factor_monic(f):
    # where f's factors keep the pattern of its image at t1 = t2 = 0, each
    # group lifts, in t1 and then in t2, to the factor of f over it, even
    # where t2 = 0 drops the t1-degree; no draw is factored from scratch
    base = _origin_base(f)
    want = _factors_by_image(f, base)
    lifted = _lift_slice_from_scratch_free(f, base)
    assert len(lifted) == len(base)
    if want is not None:
        assert [P.canonical() for P in lifted] == want
        assert all(P.terms[(P.degree_in(1), 0, 0)] == ONE for P in lifted)


def test_lift_slice_lifts_each_group_from_the_base():
    f = parse_product("(z1 - z2 - z3 + 1)*(z1 + z2 + z3^2 + 2)*(z1 + z3 - 3)^2", 3)
    base = _origin_base(f)
    want = _factors_by_image(f, base)
    assert want is not None and len(want) == 3
    assert [P.canonical() for P in _lift_slice_from_scratch_free(f, base)] == want


@pytest.mark.parametrize(
    "text, base_text",
    [
        # base x - 1, x + 1 and f irreducible: each group alone lifts to
        # no factor of f
        ("z1^2 - z2^2 + z3 - 1", "z1^2 - 1"),
        # base x with multiplicity 2 and f no square: the root of f's lift
        # is x, which does not divide f
        ("z1^2 + z3", "z1^2"),
    ],
)
def test_lift_slice_of_an_irreducible_slice_divides_nothing(text, base_text):
    f = parse_poly(text, 3)
    base = factor_monic(parse_poly(base_text, 1)).factors
    assert base == _origin_base(f)
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
    bases = {v: univariate_base(f, v, 1, 1) for v in (2, 3)}
    assert all(any(e == 2 for _, e in base) for base in bases.values())
    # f moved by (1, 1), so that its images at the origin are apart
    x, t1, t2 = (SparsePoly.variable(3, i) for i in (1, 2, 3))
    moved = f.substitute([x, t1 + SparsePoly.const(3, 1), t2 + SparsePoly.const(3, 1)], m=3)
    slice_base = _origin_base(moved)
    slice_want = _factors_by_image(moved, slice_base)
    assert slice_want is not None

    def rebuilt(*args):
        raise AssertionError("a group was rebuilt over Q")

    monkeypatch.setattr(SparsePoly, "scale", rebuilt)
    monkeypatch.setattr(SparsePoly, "__pow__", rebuilt)
    for v, base in bases.items():
        assert _attempt_lift(read_rows(f, v, 5 - v), 1, base, None, 1) == want
        # bounded: the z2-order is cut below f's z2-degree, and the
        # candidates at z3 = 0, z3 being z_w or z_v
        assert held(_attempt_lift(read_rows(f, v, 5 - v), 1, base, (1, 1, 2), 1), want)
    lifted = lift_slice(read_rows(moved, 3, 2), PreparedBase(slice_base), range(len(slice_base)))
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

    def factored(g, b):
        return factor_monic(g) if b is None else factor_candidates(g, b)

    want = [(g.map_variables(back, 3).canonical(), e) for g, e in factored(low, low_bounds).factors]
    if bounds is not None:  # bounded candidates are cut at z3 = 0
        want = list(restricted_pairs(want))
    assert list(factored(f, bounds).factors) == want
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
    # one call per factorization, since no probe is factored by a call of
    # its own: the probes, the slices and every lift attempt share one
    # reading of f; its base groups are read on their own
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
    assert [reads for _, reads in frames] == [1]


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
            rows, den = int_rows(f, v, w)
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
    "text, n, v, w, v0, w0",
    [
        ("(z1 - z2)*(z1 + z2^2 + 1/3)", 2, 2, 3, 1, 0),
        (SQUARE_AND_NON_MONIC, 3, 2, 3, 1, 1),
        (SQUARE_AND_NON_MONIC, 3, 3, 2, -1, 1),
    ],
)
def test_the_lift_reads_the_series_the_fraction_path_gives(monkeypatch, text, n, v, w, v0, w0):
    # f's series and each group u^e, read from Fractions: u scaled monic in
    # x and raised to e over Q, then taken mod m; a trivariate f's w-lift
    # lifts the groups over its slice at v0 first
    import polyfactor.basefactor as basefactor

    f = parse_product(text, n)
    base = univariate_base(f, v, v0, w0)
    want = list(factor_monic(f).factors)
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
    assert _attempt_lift(read_rows(f, v, w), v0, base, None, w0) == want
    # each pass's top call lifts every group; the v-lift is the last pass,
    # its series wlen rows by w-order per v-order
    tops = [args for args in calls if args[4:] == (0, len(base))]
    Fser, K, m = tops[-1][:3]
    wlen = (f.degree_in(w) or 0) + 1 if w <= n else 1
    F = series(f, v, w, (f.degree_in(v) or 0) + 1, m)
    assert all(len(rows) == wlen for rows in Fser)
    assert [dict_of(rows) for rows in Fser] == shift_series(F, v0, w0, m, K, wlen)
    # the lift's preparation reads the groups at the lift's modulus
    ((images_m,), groups), = images
    assert images_m == m
    G = []
    for u, e in base:
        U = u.scale(ONE / u.terms[(u.degree_in(1),)]) ** e
        G.append(series(U, None, None, 1, m)[0])
    assert [dict_of([g]) for g in groups] == G
    if wlen > 1:
        # the w-lift: f's slice at v0, moved by w0, one row per w-order
        Sser, wlen_w, m_w = tops[0][:3]
        assert (len(tops), wlen_w, m_w) == (2, wlen, m)
        assert all(len(rows) == 1 for rows in Sser)
        slice_ = dict_of(Fser[0])
        assert [dict_of(rows) for rows in Sser] == [
            {k - j: c for k, c in slice_.items() if k % STRIDE == j} for j in range(wlen)
        ]
    else:
        assert len(tops) == 1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(trivariate_monic_products(), st.sampled_from([2, 3]))
@example(parse_product("(z1^2 - z2 - z3^2)*(z1 + z2 + 2*z3)", 3), 2)
def test_attempt_lift_succeeds_where_the_base_keeps_the_squarefree_degree(f, v):
    # when the images of f's distinct factors at (v0, w0) are squarefree
    # and pairwise coprime, the base's squarefree x-degree is f's, and the
    # lift recovers f's factorization
    w = 5 - v
    want = list(factor_monic(f).factors)
    squarefree_degree = sum(u.degree_in(1) for u, _ in want)
    for v0 in (0, 1, -1):
        image = f.eval_var(v, v0)
        if (image.degree_in(2) or 0) != (f.degree_in(w) or 0):
            continue
        for w0 in (0, 1, -1):
            base = _factor_monic_sparse(image.eval_var(2, w0))
            if sum(u.degree_in(1) for u, _ in base) == squarefree_degree:
                assert _attempt_lift(read_rows(f, v, w), v0, base, None, w0) == want, (v0, w0)


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


# ---------------------------------------------------------------------------
# reference: the w-series Diophantine solver the lift used before it solved
# one w-order at a time with the univariate `_Dioph`, and its dict helpers


def cd_sub(a, b, m):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return cd_reduce(out, m)


def cd_to_tau_series(d, length):
    """(x, w) dict -> list over w-order of x coefficient lists."""
    rows = [dict() for _ in range(length)]
    for key, v in d.items():
        ex, ew = cd_unpack(key)
        if ew < length:
            rows[ew][ex] = v
    out = []
    for row in rows:
        lst = [0] * (max(row, default=-1) + 1)
        for ex, v in row.items():
            lst[ex] = v
        out.append(up_trim(lst))
    return out


class SeriesDioph:
    """Solve dA*B0 + dB*A0 = e mod (w^length, m) for (x, w) dicts, A0 and
    B0 monic in x, deg_x e < D = deg_x A0 + deg_x B0, with deg_x dA <
    deg_x A0 and deg_x dB < deg_x B0, by dot products with precomputed
    solutions (sigma_i, tau_i) for each x^i, i < D, each a series in w:
    column 0, for 1, is expanded w-adically from a Bezout pair s a0 + t b0
    = 1 of the w = 0 rows; each next column is x times the last, minus q A0
    and plus q B0, q its x^(deg A0) coefficient, a series in w."""

    def __init__(self, A0, B0, length, p, m):
        self.m = m
        self.length = length
        A0tau = cd_to_tau_series(A0, length)
        B0tau = cd_to_tau_series(B0, length)
        a0, b0 = A0tau[0], B0tau[0]
        s, t, g = up_xgcd_p(a0, b0, p)
        assert up_deg(g) == 0
        mu = p
        while mu < m:
            mu *= mu
            s, t = _bezout_step(mu, a0, b0, s, t)
        s, t = up_mod(s, m), up_mod(t, m)
        na, nb = up_deg(a0), up_deg(b0)
        self.D = D = na + nb
        span = 1 + max(j for j in range(length) if A0tau[j] or B0tau[j])
        sigma, tau = [[] for _ in range(length)], [[] for _ in range(length)]
        residual = [[1]] + [[] for _ in range(length - 1)]
        for k, c in enumerate(residual):
            if not c:
                continue
            q, sigma[k] = up_divmod(up_mul(t, c, m), a0, m)
            tau[k] = up_add(up_mul(s, c, m), up_mul(q, b0, m), m)
            for j in range(1, min(length - k, span)):
                upd = up_add(up_mul(sigma[k], B0tau[j], m), up_mul(tau[k], A0tau[j], m), m)
                residual[k + j] = up_sub(residual[k + j], upd, m)

        def padded(series, n):
            return [row[:n] + [0] * (n - len(row)) for row in series]

        A_low, B_low = padded(A0tau, na), padded(B0tau, nb)

        def step(rows, low, q, sign):
            return [
                [
                    (c + sign * sum(q[j] * low[k - j][i] for j in range(k + 1))) % m
                    for i, c in enumerate([0] + row[:-1])
                ]
                for k, row in enumerate(rows)
            ]

        columns = [(padded(sigma, na), padded(tau, nb))]
        for _ in range(1, D):
            sig, ta = columns[-1]
            q = [row[-1] for row in sig]
            columns.append((step(sig, A_low, q, -1), step(ta, B_low, q, 1)))
        self.rows = [
            [
                (cd_pack(i, k), [col[side][k - j][i] for j in range(k + 1) for col in columns])
                for k in range(length)
                for i in range(n)
            ]
            for side, n in ((0, na), (1, nb))
        ]

    def solve(self, e):
        D, m = self.D, self.m
        E = [0] * (D * self.length)
        for key, c in e.items():
            ex, ew = cd_unpack(key)
            if ex >= D:
                raise _AttemptFailed("diophantine right side of x-degree >= D")
            if ew < self.length:
                E[ew * D + ex] = c
        return tuple(
            {key: c for key, row in rows if (c := sum(a * b for a, b in zip(row, E)) % m)}
            for rows in self.rows
        )


def _coprime_monic_pair(rng, dxa, dxb, dw, p, m):
    """(A0, B0) monic in x whose w = 0 rows are coprime mod p."""
    while True:
        A0 = _random_monic_cd(rng, dxa, dw, m)
        B0 = _random_monic_cd(rng, dxb, dw, m)
        a0, b0 = (cd_to_tau_series(d, 1)[0] for d in (A0, B0))
        if up_deg(up_gcd_p(a0, b0, p)) == 0:
            return A0, B0


def lift_pair_rows(Fser, A0, B0, K, L, p, m, dioph=None):
    """`_lift_pair` on the rows (`rows_of`) of these (x, w) dicts cut at
    w-order L, by default with the univariate `_Dioph` of A0's and B0's
    w = 0 rows, its series read back as dicts."""
    A0, B0 = rows_of(A0, L), rows_of(B0, L)
    if dioph is None:
        dioph = _Dioph(A0[0], B0[0], p, m)
    A, B = _lift_pair([rows_of(d, L) for d in Fser], A0, B0, K, m, dioph)
    return [dict_of(rows) for rows in A], [dict_of(rows) for rows in B]


def solve_by_lift(A0, B0, e, L, p, m):
    """(dA, dB) solving dA B0 + dB A0 = e mod (w^L, m) as the lift solves
    it: one v-order of `_lift_pair` over A0 B0, e its residual, one w-order
    at a time with the univariate `_Dioph` of the w = 0 rows."""
    F0 = cd_reduce(wcut(_mul_into({}, A0, B0), L), m)
    A, B = lift_pair_rows([F0, e], A0, B0, 2, L, p, m)
    return A[1], B[1]


@pytest.mark.parametrize("wdeg", [None, 1, 2])
def test_diophantine_solver_returns_the_known_corrections(wdeg):
    """e = dA*B0 + dB*A0 with deg_x dA < deg_x A0 and deg_x dB < deg_x B0
    has exactly one solution mod (w^length, m); the univariate solver on
    e's w = 0 row, the lift solving e one w-order at a time, and the series
    reference must each return it.  wdeg None is a bivariate lift:
    polynomials in x alone, one w-order."""
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
        a0, b0 = (rows_of(d, 1)[0] for d in (A0, B0))
        da0, db0 = _Dioph(a0, b0, p, m).solve(rows_of(e, 1)[0])
        assert (len(da0), len(db0)) == (dxa, dxb)
        assert (dict_of([da0]), dict_of([db0])) == (wcut(dA, 1), wcut(dB, 1))
        assert solve_by_lift(A0, B0, e, length, p, m) == (dA, dB)
        assert SeriesDioph(A0, B0, length, p, m).solve(e) == (dA, dB)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_diophantine_solutions_meet_their_degree_bounds(length):
    # any e of x-degree < D = deg A0 + deg B0, whatever its w-orders, has
    # its solution mod (w^length, m) within deg dA < deg A0 and deg dB <
    # deg B0, solved one w-order at a time from the solutions for x^i,
    # i < D, as the series reference solves it; an e of x-degree D has
    # none within them and is refused
    rng = rng_for("diophantine-columns-%d" % length)
    p = 11
    m = p**6
    for _ in range(20):
        dxa, dxb = rng.randint(1, 4), rng.randint(1, 4)
        A0, B0 = _coprime_monic_pair(rng, dxa, dxb, rng.randint(0, length), p, m)
        e = _random_cd(rng, dxa + dxb, length, m)
        dA, dB = solve_by_lift(A0, B0, e, length, p, m)
        assert (dA, dB) == SeriesDioph(A0, B0, length, p, m).solve(e)
        got = _mul_into(_mul_into({}, dA, B0), dB, A0)
        assert cd_reduce(wcut(got, length), m) == wcut(e, length)
        assert all(cd_unpack(key)[0] < dxa for key in dA)
        assert all(cd_unpack(key)[0] < dxb for key in dB)
        assert all(cd_unpack(key)[1] < length for key in (*dA, *dB))
        with pytest.raises(_AttemptFailed):
            solve_by_lift(A0, B0, {**e, cd_pack(dxa + dxb, 0): 1}, length, p, m)
        dioph = _Dioph(*(rows_of(d, 1)[0] for d in (A0, B0)), p, m)
        with pytest.raises(_AttemptFailed):
            dioph.solve([0] * (dxa + dxb) + [1])


def lift_pair_dicts(Fser, A0, B0, K, m, dioph):
    """The reference for `_lift_pair`: one dict of unreduced products per
    v-order, every product formed in full, each v-order solved at once by
    the series reference `SeriesDioph`."""
    A = [dict(A0)] + [dict() for _ in range(K - 1)]
    B = [dict(B0)] + [dict() for _ in range(K - 1)]
    AB = [dict() for _ in range(K)]
    if cd_sub(wcut(_mul_into({}, A0, B0), dioph.length), Fser[0], m):
        raise _AttemptFailed("base product mismatch")
    for j in range(1, K):
        E = cd_sub(Fser[j], AB[j], m)
        if not E:
            continue
        dA, dB = dioph.solve(E)
        for i in range(1, min(j, K - j)):
            _mul_into(AB[i + j], dB, A[i])
            _mul_into(AB[i + j], dA, B[i])
        if 2 * j < K:
            _mul_into(AB[2 * j], dA, dB)
        A[j] = dA
        B[j] = dB
    return A, B


def _lift_case(rng, K, L, p, m):
    """(Fser, A0, B0, dioph): coprime monic A0, B0 of w-degree < L, a
    v-series of K orders over their product, random past order 0, and the
    series reference solver."""
    dxa, dxb = rng.randint(1, 3), rng.randint(1, 3)
    A0, B0 = _coprime_monic_pair(rng, dxa, dxb, L - 1, p, m)
    F0 = cd_reduce(wcut(_mul_into({}, A0, B0), L), m)
    Fser = [F0] + [_random_cd(rng, dxa + dxb, L - 1, m) for _ in range(K - 1)]
    return Fser, A0, B0, SeriesDioph(A0, B0, L, p, m)


@pytest.mark.parametrize("K", [2, 3, 6, 9, 25, 41])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_packed_lift_is_the_dict_lift(K, L):
    # the lift on rows, one w-order at a time with the univariate solver,
    # is the dict lift with the series solver
    rng = rng_for("packed-lift-%d-%d" % (K, L))
    p = 1048583
    m = p**7
    for _ in range(3):
        Fser, A0, B0, dioph = _lift_case(rng, K, L, p, m)
        want = lift_pair_dicts(Fser, A0, B0, K, m, dioph)
        assert lift_pair_rows(Fser, A0, B0, K, L, p, m) == want
        # residuals only at w-orders >= L, which the rows drop, and a base
        # product that does not match
        Fser[1] = {cd_pack(0, L): 1}
        want = lift_pair_dicts(Fser, A0, B0, K, m, dioph)
        assert lift_pair_rows(Fser, A0, B0, K, L, p, m) == want
        Fser[0] = {**Fser[0], cd_pack(0, 0): (Fser[0].get(0, 0) + 1) % m}
        with pytest.raises(_AttemptFailed):
            lift_pair_rows(Fser, A0, B0, K, L, p, m)


class _FullSolver:
    """A stand-in for `_Dioph` whose every correction has all its
    coefficients at m - 1, the largest a lift coefficient takes; it records
    each right side it is given, one w-order's row."""

    def __init__(self, na, nb, m):
        self.D = na + nb
        self.full = ([m - 1] * na, [m - 1] * nb)
        self.residuals = []

    def solve(self, e):
        self.residuals.append(list(e))
        return tuple(map(list, self.full))


class _FullSeriesSolver:
    """`_FullSolver` for the series reference: every correction full at
    every w-order below length, each residual recorded at those w-orders."""

    def __init__(self, na, nb, length, m):
        self.D, self.length = na + nb, length
        self.full = [
            {cd_pack(ex, ew): m - 1 for ex in range(n) for ew in range(length)} for n in (na, nb)
        ]
        self.residuals = []

    def solve(self, e):
        self.residuals.append(wcut(e, self.length))
        return tuple(map(dict, self.full))


def test_packed_lift_digits_reach_their_bound():
    # with every coefficient at m - 1 each digit the lift reads is as large
    # as a lift's digit can be; any carry between digits changes a residual.
    # Every w-order's row is solved, so the rows' residuals, L per v-order,
    # are the series reference's
    m = (1 << 61) - 1
    for K, na, nb, L in [(41, 2, 2, 3), (41, 1, 3, 3), (9, 3, 3, 1), (25, 2, 2, 2)]:
        A0 = {cd_pack(na, 0): 1}
        B0 = {cd_pack(nb, 0): 1}
        # a 1 at every w-order keeps each row's right side nonzero
        ones = {cd_pack(0, ew): 1 for ew in range(L)}
        Fser = [{cd_pack(na + nb, 0): 1}] + [dict(ones) for _ in range(K - 1)]
        got, want = _FullSolver(na, nb, m), _FullSeriesSolver(na, nb, L, m)
        lifted = lift_pair_rows(Fser, A0, B0, K, L, None, m, got)
        assert lifted == lift_pair_dicts(Fser, A0, B0, K, m, want)
        rows = got.residuals
        assert len(rows) == L * (K - 1)
        assert [dict_of(rows[i : i + L]) for i in range(0, len(rows), L)] == want.residuals


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
    # repeat; a0 and b0, the w = 0 rows of A0 and B0, are the same integers
    # reduced mod each p^k, as a node's groups are for every slice of one
    # preparation, and the solver built on the memo solves as a fresh one
    rng = rng_for("bezout-memo-%s" % wdeg)
    p = 7
    dw = wdeg or 0
    precisions = [1, 3, 4, 2, 5, 5, 9, 7, 9, 3, 12, 6, 12]
    for _ in range(10):
        A0, B0 = _coprime_monic_pair(rng, rng.randint(1, 3), rng.randint(1, 3), dw, p, p**12)
        a0, b0 = (rows_of(d, 1)[0] for d in (A0, B0))
        memo = {}
        for k in precisions:
            m = p**k
            a, b = up_mod(a0, m), up_mod(b0, m)
            shared, fresh = _Dioph(a, b, p, m, memo), _Dioph(a, b, p, m)
            assert (shared.s, shared.t) == (fresh.s, fresh.t), k
            e = [rng.randrange(m) for _ in range(shared.D)]
            assert shared.solve(e) == fresh.solve(e), k
        assert memo[p][0] == p**12


def _tree_nodes(first, count):
    """The (first, count) of every inner node of a lift tree over count
    groups from index first, as `_lift_tree` visits them."""
    if count == 1:
        return []
    h = count // 2
    return [(first, count)] + _tree_nodes(first, h) + _tree_nodes(first + h, count - h)


@pytest.mark.parametrize(
    "text",
    [
        "(z1^2 + 3)*(z1 - 2)^2*(z1 + 5)*(z1^3 - z1 + 1)",
        "(z1 + 1/2)*(z1^2 - 7)",
        "(z1 + 1)*(z1^2 + 3)^2*(z1 - 2)",
    ],
)
def test_a_memoized_lift_tree_node_is_the_fresh_one_at_every_precision(text):
    # one preparation serves lifts to precisions that rise, fall and repeat;
    # every node it returns mod m has the a0, b0, Bezout pair and
    # Diophantine solutions of a node built fresh mod m, though the tree may
    # be kept at a larger modulus and grows past the precision asked for
    rng = rng_for("tree-node-memo-" + text)
    base = factor_monic(parse_product(text, 1)).factors
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
            A0, B0, dioph = prepared.node(p, m, first, count)
            FA0, FB0, fdioph = fresh.node(p, m, first, count)
            assert (A0, B0) == (FA0, FB0), (k, first, count)
            assert dioph.m == m and len(A0) == len(B0) == 1
            assert (dioph.s, dioph.t) == (fdioph.s, fdioph.t), k
            for _ in range(3):
                e = [rng.randrange(m) for _ in range(dioph.D)]
                assert dioph.solve(e) == fdioph.solve(e), (k, e)
        moduli.add(prepared.trees[p][0])
    # the tree grew by squaring: one build and three rebuilds for seven
    # rises in precision
    assert sorted(moduli) == [p, p**3, p**6, p**12]
    assert prepared.trees[p][0] == p**12


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
        pairs = _factor_univariate_pairs(int_rows(f)[0], 1)
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
def monic_products(draw, n=None):
    """(f, factor count): a product of 1-3 factors x^d + lower terms, d <= 3,
    in (x, t1) or (x, t1, t2) (n, when given, picks one) with small integer
    coefficients, the first possibly repeated."""
    n = n or draw(st.sampled_from([2, 3]))
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


@settings(derandomize=True, deadline=None, max_examples=80)
@given(monic_products(3), st.sampled_from([(1, 2, 2), (2, 2, 2), (3, 6, 3)]))
def test_bounded_candidates_hold_every_sympy_factor_within_the_bounds(case, bounds):
    # the bounded path, which proves no factorization of a slice, still
    # lists every factor sympy finds within the proportional bounds, of
    # x-degree a <= bx and within (a, a bv / bx, a bw / bx), at z3 = 0 with
    # its multiplicity (`held`)
    f, _ = case
    bx = bounds[0]
    want = [
        (g, e)
        for g, e in sympy_factorization(f)[1].items()
        if g.degree_in(1) <= bx
        and all(
            (g.degree_in(i) or 0) * bx <= b * g.degree_in(1) for i, b in zip((2, 3), bounds[1:])
        )
    ]
    got = dict(factor_candidates(f, bounds).factors)
    assert held(_factor_monic_sparse(f, bounds), want), (want, got)
    assert all(at_z3_0(g).canonical() in got for g, _ in want)


def _count_probes_and_lifts(f):
    """factor_monic(f) with, per _factor_monic_sparse call, [univariate
    images factored over Q, lifts tried, lifts that succeeded]; each lift
    starts from the image factored last, f at its point (v0, w0)."""
    import polyfactor.basefactor as basefactor

    frames, stack = [], []
    factor, lift = basefactor._factor_monic_sparse, basefactor._attempt_lift
    univariate = basefactor._factor_univariate_pairs
    bases = []

    def counted_factor(g, *args):
        frame = [0, 0, 0]
        frames.append(frame)
        stack.append(frame)
        try:
            return factor(g, *args)
        finally:
            stack.pop()

    def counted_univariate(*args):
        stack[-1][0] += 1
        bases.append(univariate(*args))
        return bases[-1]

    def counted_lift(*args):
        reading, v0, base, _, w0, _ = args
        assert base is bases[-1]
        image = reading.f.eval_var(reading.v, v0)
        product = SparsePoly.const(1, 1)
        for u, e in base:
            product = product * u**e
        assert product == (image.eval_var(2, w0) if image.n > 1 else image)
        stack[-1][1] += 1
        result = lift(*args)
        stack[-1][2] += 1
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_factor_monic_sparse", counted_factor)
        mp.setattr(basefactor, "_factor_univariate_pairs", counted_univariate)
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
    # f is reducible and uses every side variable: the one call factors
    # over Q only the univariate image each lift starts from, F(x, v0) or
    # F(x, v0, w0), one per lift tried, ends with one successful lift, and
    # factors no bivariate slice
    f, _ = case
    fl, frames = _count_probes_and_lifts(f)
    assert fl.recompose() == f
    [[probes, tried, lifted]] = frames
    assert probes == tried and lifted == 1


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
    assert frames == [[1, 0, 0]]  # one image factored over Q, no lift
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


# ---------------------------------------------------------------------------
# the probe ranking against its per-term reference


def eval_rows(rows, den, v0, w0, p):
    """rows / den at z_v = v0, z_w = w0 mod the prime p, term by term, as
    an ascending list of x-coefficients: the reference for `_fold`,
    `_row_values` and `_images`."""
    scale = pow(den, -1, p)
    vp = {ev: pow(v0, ev, p) for ev in {ev for row in rows for ev, _, _ in row}}
    wp = {ew: pow(w0, ew, p) for ew in {ew for row in rows for _, ew, _ in row}}
    return [sum(c * vp[ev] * wp[ew] for ev, ew, c in row) * scale % p for row in rows]


def probes_by_terms(reading, evaluate=eval_rows):
    """`_probes` as it was before the fold: every probe's image evaluated
    term by term mod P, and again mod each small prime q it tries."""
    from polyfactor.basefactor import _RANK_SIDE, _MAX_EVAL_ATTEMPTS, _eval_points
    from polyfactor.errors import LiftFailure
    from polyfactor.rational import primes

    rows, den, (dx, _, dw), P = reading.rows, reading.den, reading.degrees, reading.prime
    top_w = [[(ev, c) for ev, ew, c in row if ew == dw] for row in reversed(rows)]
    points = _eval_points()
    consumed = 0
    pool = []
    while True:
        while len(pool) < 4 and consumed < _MAX_EVAL_ATTEMPTS:
            v0 = next(points)
            consumed += 1
            if not any(sum(c * v0**ev for ev, c in row) for row in top_w):
                continue
            img = evaluate(rows, den, v0, _RANK_SIDE, P)
            quality = dx - up_deg(up_gcd_p(img, up_deriv(img), P))
            count = 0
            if quality == dx:
                for q in primes(3):
                    if den % q:
                        small = evaluate(rows, den, v0, _RANK_SIDE, q) if q < P else img
                        if q == P or up_deg(up_gcd_p(small, up_deriv(small), q)) == 0:
                            break
                count = _factor_count_mod_p(small, q)
                if count == 1:
                    yield None
                    return
            pool.append([quality, count, consumed, v0])
        if not pool:
            raise LiftFailure("no good evaluation point found")
        pool.sort(key=lambda t: (-t[0], t[1], t[2]))
        yield pool.pop(0)[3]


def _ranked(probes, reading, most=None):
    """The first `most` points probes(reading) yields (all by default),
    ending with "no point" where it runs out."""
    from polyfactor.errors import LiftFailure

    out = []
    try:
        for v0 in probes(reading):
            out.append(v0)
            if len(out) == most:
                break
    except LiftFailure:
        out.append("no point")
    return out


def _pool_readings():
    """Every reading the three benchmark pools make: each one `_probes`
    ranks (psi images, r_hat and the other bivariate images, their slices)
    and each one the engine reads (psi images and line slices); and each
    base `slice_point` scans, with the point it found."""
    import polyfactor.basefactor as basefactor
    import polyfactor.engine as engine
    from test_golden import PIPELINES, load_pool

    seen, points = {}, []
    probes, read, slice_point = basefactor._probes, engine.read_table, engine.slice_point

    def record(reading):
        seen[id(reading)] = reading
        return probes(reading)

    def recorded_read(*args, **kwargs):
        reading = read(*args, **kwargs)
        seen[id(reading)] = reading
        return reading

    def recorded_point(base):
        found = slice_point(base)
        points.append((base, None if found is None else found[0]))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basefactor, "_probes", record)
        mp.setattr(engine, "read_table", recorded_read)
        mp.setattr(engine, "slice_point", recorded_point)
        for workload, call in sorted(PIPELINES.items()):
            for item in load_pool(workload):
                call(parse_poly(item["poly"], item["n"]))
    return list(seen.values()), points


def slice_point_by_terms(base):
    """The w0 of `slice_point`, its images evaluated term by term."""
    from polyfactor.basefactor import _group_tables, _prime_avoiding

    tables = _group_tables(base)
    d = sum(e * (u.degree_in(2) or 0) for u, e in base)
    P = _prime_avoiding(math.lcm(*(lc for _, lc in tables)))

    def coprime(w0):
        images = [eval_rows(rows, lc, 0, w0, P) for rows, lc in tables]
        return all(up_deg(up_gcd_p(a, b, P)) == 0 for a, b in combinations(images, 2))

    return next((w0 for w0 in range(2 * d * len(tables) ** 2 + 3) if coprime(w0)), None)


def test_probes_rank_every_pool_reading_as_the_terms_do():
    # and every line base meets the point the term-by-term images find
    import polyfactor.basefactor as basefactor

    readings, points = _pool_readings()
    assert len(readings) > 1000 and len(points) > 100
    assert {r.n for r in readings} >= {2, 3}
    for reading in readings:
        want = _ranked(probes_by_terms, reading, 6)
        assert _ranked(basefactor._probes, reading, 6) == want
    for base, w0 in points:
        assert slice_point_by_terms(base) == w0


@st.composite
def trivariates_over_3_or_5(draw):
    """A product of two monic factors in (x, t1, t2) with coefficients over
    3 or 5, so the product's denominator skips q = 3 or q = 5."""
    den = draw(st.sampled_from([3, 5, 15, 9]))
    parts = []
    for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)):
        lower = st.tuples(st.integers(0, d - 1), st.integers(0, 2), st.integers(0, 2))
        # numerators prime to den keep it in every factor, and by Gauss's
        # lemma in the product
        coeff = st.sampled_from([-7, -4, -2, -1, 1, 2, 4, 7]).map(lambda c: Q(c, den))
        table = draw(st.dictionaries(lower, coeff, min_size=1, max_size=4))
        table[(d, 0, 0)] = ONE
        parts.append(SparsePoly(3, table))
    f = parts[0]
    for g in parts[1:]:
        f = f * g
    return f


@settings(derandomize=True, deadline=None, max_examples=60)
@given(trivariates_over_3_or_5())
def test_probes_rank_trivariates_over_3_or_5_as_the_terms_do(f):
    # the whole sequence, to the certificate or the end of the points
    import polyfactor.basefactor as basefactor

    reading = basefactor.read_table(3, *_int_table(f), f=f)
    assert reading.den % 3 == 0 or reading.den % 5 == 0
    assert _ranked(basefactor._probes, reading) == _ranked(probes_by_terms, reading)


@pytest.mark.parametrize(
    "text, n",
    [
        ("(z1 + 1/3*z2 + z3)*(z1^2 - 2/5*z2*z3 + 1)", 3),
        ("(z1 + z2)^2*(z1 - z2 + 1)", 2),
        ("z1^4 + z2^2*z3 + z1 + 1", 3),
    ],
)
def test_each_probe_is_evaluated_once(monkeypatch, text, n):
    # the reference evaluates a full-degree probe mod P and again mod q;
    # the ranking now evaluates the folded rows once per probe
    import polyfactor.basefactor as basefactor

    f = parse_product(text, n)
    reading = basefactor.read_table(n, *_int_table(f), f=f)
    at_P = []

    def counted(rows, den, v0, w0, p):
        if p == reading.prime:
            at_P.append(v0)
        return eval_rows(rows, den, v0, w0, p)

    evaluated = []
    row_values = basefactor._row_values

    def counted_values(folded, v0):
        evaluated.append(v0)
        return row_values(folded, v0)

    want = _ranked(lambda r: probes_by_terms(r, counted), reading, 4)
    monkeypatch.setattr(basefactor, "_row_values", counted_values)
    assert _ranked(basefactor._probes, reading, 4) == want
    assert evaluated == at_P and evaluated
