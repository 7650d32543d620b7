"""Identity testing, nonzero points, and sparse interpolation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product
from polyfactor.pit import (
    ProbeCounter,
    _transposed_vandermonde,
    berlekamp_massey,
    find_nonzero_point,
    interpolate_lines,
    interpolation_plan,
    line_count,
    sparse_interpolate,
    sparse_pit,
    trivial_hitting_set,
)
from polyfactor.oracles import constant_degree_oracle, su_oracle
from polyfactor.errors import (
    CapError,
    InterpolationFailure,
    VariableCountMismatch,
    ZeroPolynomialError,
)

from conftest import rng_for, random_poly


def test_grid_univariate():
    h = trivial_hitting_set(1, 2)
    assert [tuple(map(int, p)) for p in h] == [(1,), (2,), (3,)]


def test_grid_two_vars():
    h = trivial_hitting_set(2, 1)
    assert sorted(tuple(map(int, p)) for p in h) == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]


def test_grid_hits_every_nonzero():
    rng = rng_for("grid-hits")
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        f = random_poly(rng, n, d, 4)
        grid = trivial_hitting_set(n, f.degree() or 0)
        assert any(f.eval_point(p) for p in grid)


def test_grid_cap():
    with pytest.raises(CapError):
        trivial_hitting_set(10, 9, max_size=100)


def test_whitebox_first_probe():
    f = parse_poly("z1*z2")
    assert find_nonzero_point(f, 2, 2) == (Q(1), Q(1))


def test_whitebox_skips_roots():
    f = parse_product("(z1-1)*(z2-1)")
    point = find_nonzero_point(f, 2, 2)
    assert point == (Q(2), Q(2))
    assert f.eval_point(point) != 0


def test_whitebox_budget():
    rng = rng_for("probe-budget")
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, 4, 5)
        d = f.degree() or 0
        counter = ProbeCounter()
        point = find_nonzero_point(f, n, d, counter=counter)
        assert f.eval_point(point) != 0
        assert all(c != 0 for c in point)
        assert counter.count <= n * (d + 1)


def test_whitebox_point_has_one_coordinate_per_variable():
    f = parse_poly("z1^2 + 3*z2 + 1")
    assert len(find_nonzero_point(f, 2, 2)) == 2
    for n in (1, 3):
        with pytest.raises(VariableCountMismatch):
            find_nonzero_point(f, n, 2)


def test_whitebox_zero_poly():
    with pytest.raises(ZeroPolynomialError):
        find_nonzero_point(SparsePoly.zero(2), 2, 1)


def test_blackbox_shift_repair():
    f = parse_poly("z1 - z2")
    grid = trivial_hitting_set(2, 1)
    point = find_nonzero_point(
        f.eval_point, 2, 1, mode="blackbox", hitting_set=grid
    )
    assert all(c != 0 for c in point)
    assert f.eval_point(point) != 0


def test_sparse_pit():
    assert sparse_pit(SparsePoly.zero(3))
    assert not sparse_pit(parse_poly("z1 - z1 + 1"))
    expanded = parse_product("(z1+z2)^2") - parse_poly(
        "z1^2 + 2*z1*z2 + z2^2"
    )
    assert sparse_pit(expanded)


def test_plan_shape():
    plan = interpolation_plan(1, 1)
    assert [tuple(map(int, p)) for p in plan] == [(1,), (2,)]
    plan = interpolation_plan(2, 2)
    assert [tuple(map(int, p)) for p in plan] == [
        (1, 1),
        (2, 3),
        (4, 9),
        (8, 27),
    ]


def test_plan_size_and_prefix():
    rng = rng_for("plan-size")
    for _ in range(20):
        s = rng.randint(1, 20)
        n = rng.randint(1, 5)
        plan = interpolation_plan(s, n)
        assert len(plan) == 2 * s
        assert len(set(plan)) == 2 * s
        bigger = interpolation_plan(s + rng.randint(1, 4), n)
        assert bigger[: 2 * s] == plan


def test_interpolate_worked_example():
    f = parse_poly("3*z1*z2 + 5*z2^2")
    plan = interpolation_plan(2, 2)
    values = [f.eval_point(p) for p in plan]
    assert [int(v) for v in values[:2]] == [8, 63]
    assert sparse_interpolate(values, 2, 2, 2) == f


def test_interpolate_zero():
    values = [Q(0)] * 6
    assert sparse_interpolate(values, 3, 2, 4).is_zero()


def test_interpolate_round_trip():
    rng = rng_for("interp-round-trip")
    for _ in range(100):
        n = rng.randint(1, 4)
        d = rng.randint(1, 6)
        f = random_poly(rng, n, d, rng.randint(1, 8), ensure_nonzero=False)
        s = max(1, f.sparsity())
        plan = interpolation_plan(s, n)
        values = [f.eval_point(p) for p in plan]
        assert sparse_interpolate(values, s, n, d) == f


def test_interpolate_rejects_off_promise():
    # a polynomial with more terms than the declared sparsity bound
    f = parse_poly("z1^3 + z1^2 + z1 + 1")
    plan = interpolation_plan(2, 1)
    values = [f.eval_point(p) for p in plan]
    with pytest.raises(InterpolationFailure):
        sparse_interpolate(values, 2, 1, 3)


def test_berlekamp_massey_recurrence():
    # geometric-mixture sequence: roots 6 and 9
    values = [Q(v) for v in (8, 63, 513, 4293)]
    char, L = berlekamp_massey(values)
    assert L == 2
    assert [int(c) for c in char] == [54, -15, 1]


@st.composite
def class_members(draw):
    """(support, f): the SU or constant-degree support of a random n and
    degree, and a member of it with integer coefficients, some of them zero
    (the member may miss part of the support), some negative."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        deg = draw(st.integers(1, 3))
        support = su_oracle(n, deg).support_for_degree(deg)
    else:
        deg = draw(st.integers(1, 3 if n <= 2 else 2))
        support = constant_degree_oracle(deg, n, deg).support_for_degree(deg)
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(support), max_size=len(support)))
    f = SparsePoly(n, {mono: Q(c) for mono, c in zip(support, coeffs) if c})
    return support, f


@st.composite
def members_on_lines(draw):
    """(support, f, origin): a class member (`class_members`) and an
    origin with integer or rational coordinates."""
    support, f = draw(class_members())
    if draw(st.booleans()):
        coordinate = st.integers(-4, 4).map(Q)
    else:
        coordinate = st.builds(Q, st.integers(-9, 9), st.integers(2, 5))
    return support, f, tuple(draw(st.lists(coordinate, min_size=f.n, max_size=f.n)))


def _line_rows(f, origin, count):
    """rows[L]: {k: the t^k coefficient of f(origin + t omega_L)}, omega_L
    the L-th plan point, for L < count."""
    rows = []
    for omega in interpolation_plan(count, f.n)[:count]:
        line = [SparsePoly.linear((w,), o) for w, o in zip(omega, origin)]
        rows.append({e[0]: c for e, c in f.substitute(line, m=1).terms.items()})
    return rows


@settings(derandomize=True, deadline=None, max_examples=80)
@given(members_on_lines())
def test_line_restrictions_give_back_the_member(member):
    # N = max_k |S_k| lines fix the member; one line fewer does not
    support, f, origin = member
    N = line_count(support)
    rows = _line_rows(f, origin, N + 2)
    assert interpolate_lines(rows[:N], support, origin) == f
    assert interpolate_lines(rows, support, origin) == f
    with pytest.raises(InterpolationFailure):
        interpolate_lines(rows[: N - 1], support, origin)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(members_on_lines(), st.integers(0, 3), st.integers(1, 5))
def test_a_line_coefficient_above_the_degree_is_refused(member, line, c):
    support, f, origin = member
    deg = max(sum(mono) for mono in support)
    rows = _line_rows(f, origin, line_count(support) + line)
    rows[line][deg + 1] = Q(c)
    with pytest.raises(InterpolationFailure):
        interpolate_lines(rows, support, origin)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(members_on_lines(), st.data())
def test_a_disagreeing_further_line_is_refused(member, data):
    # the line past the N the support needs is further for every degree
    support, f, origin = member
    deg = max(sum(mono) for mono in support)
    N = line_count(support)
    rows = _line_rows(f, origin, N + 1)
    k = data.draw(st.integers(0, deg))
    rows[N][k] = rows[N].get(k, Q(0)) + data.draw(st.sampled_from([Q(1), Q(-1, 3)]))
    with pytest.raises(InterpolationFailure):
        interpolate_lines(rows, support, origin)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(class_members())
def test_known_support_solve_matches_ben_or_tiwari(member):
    # the plan's points are the lines' t = 1 points from the origin, so the
    # known-support solve of N lines and Ben-Or-Tiwari of 2T values agree
    support, f = member
    T = len(support)
    d = max(sum(mono) for mono in support)
    values = [f.eval_point(p) for p in interpolation_plan(T, f.n)]
    rows = _line_rows(f, (Q(0),) * f.n, 2 * T)
    assert [sum(row.values(), Q(0)) for row in rows] == values
    known = interpolate_lines(rows[: line_count(support)], support, (Q(0),) * f.n)
    assert known == sparse_interpolate(values, T, f.n, d) == f


def test_repeated_support_monomial_is_refused():
    # two equal nodes, as a repeated monomial of a support gives, leave
    # the transposed Vandermonde system singular
    values = [Q(3), Q(5), Q(7)]
    with pytest.raises(InterpolationFailure):
        _transposed_vandermonde([1, 2, 2], values)
    assert _transposed_vandermonde([1, 2, 3], [Q(3), Q(6), Q(14)]) == [Q(1), Q(1), Q(1)]


def test_su_supports_take_n_lines():
    # SU: S_0 = {1} and S_k = {z_1^k, ..., z_n^k}, so n lines, not n deg + 1
    # points; the constant-degree support needs its top degree's monomials
    for n in range(1, 5):
        for deg in range(1, 4):
            assert line_count(su_oracle(n, deg).support_for_degree(deg)) == n
            cd = constant_degree_oracle(deg, n, deg).support_for_degree(deg)
            assert line_count(cd) == math.comb(n + deg - 1, deg)
