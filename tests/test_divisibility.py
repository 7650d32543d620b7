"""Divisibility: exact division against the identity-based witness."""

import pytest

from polyfactor.rational import Q, ONE
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product
from polyfactor.divisibility import (
    constant_degree_divides,
    divides_exact,
    divisibility_witness,
    quotient_from_witness,
    truncation_weights,
)
from polyfactor.errors import ZeroDivisorError

from conftest import rng_for, random_poly


def truncated_series_quotient(f, g, alpha, d):
    """Brute-force reference: degree-<=d truncation of f(z+alpha)/g(z+alpha)
    computed by term-by-term power series division; ValueError when
    g(alpha) = 0."""
    F = f.shift(alpha)
    G = g.shift(alpha)
    g0 = G.constant_value()
    if g0 == 0:
        raise ValueError("g vanishes at alpha: the series f/g does not exist")
    u = SparsePoly.const(f.n, 1) - G.scale(ONE / g0)  # no constant term
    inv = SparsePoly.zero(f.n)
    upow = SparsePoly.const(f.n, 1)
    for _ in range(d + 1):
        inv = inv + upow
        upow = _truncate(upow * u, d)
    inv = _truncate(inv, d).scale(ONE / g0)
    return _truncate(F * inv, d)


def _truncate(f, d):
    return SparsePoly(f.n, {e: c for e, c in f.terms.items() if sum(e) <= d})


def test_divides_exact_basic():
    ok, q = divides_exact(parse_poly("z1^2 - z2^2"), parse_poly("z1 + z2"))
    assert ok and q == parse_poly("z1 - z2")
    ok, q = divides_exact(parse_poly("z1^2 + 1"), parse_poly("z1 + 1"))
    assert not ok and q is None


def test_zero_divisor():
    with pytest.raises(ZeroDivisorError):
        divides_exact(parse_poly("z1"), SparsePoly.zero(1))
    with pytest.raises(ZeroDivisorError):
        divisibility_witness(parse_poly("z1"), SparsePoly.zero(1))


def test_divides_exact_agrees_with_multiply_back():
    rng = rng_for("divides-multiply-back")
    for _ in range(300):
        n = rng.randint(1, 4)
        g = random_poly(rng, n, 3, 3)
        h = random_poly(rng, n, 3, 3)
        ok, q = divides_exact(g * h, g)
        assert ok and q == h


def test_witness_divisible_case():
    f = parse_poly("z1^2 - z2^2")
    g = parse_poly("z1 + z2")
    w = divisibility_witness(f, g)
    assert w.holds
    # g(z + alpha) * h~ reproduces the shifted f
    shifted_f = f.shift(w.alpha)
    shifted_g = g.shift(w.alpha)
    assert shifted_g * w.h_tilde == shifted_f
    assert quotient_from_witness(w) == parse_poly("z1 - z2")


def test_witness_non_divisible_case():
    w = divisibility_witness(parse_poly("z1^2 + 1"), parse_poly("z1 + 1"))
    assert not w.holds


def test_witness_never_evaluates_divisor_at_root():
    rng = rng_for("witness-alpha")
    for _ in range(20):
        n = rng.randint(1, 3)
        g = random_poly(rng, n, 2, 3)
        f = g * random_poly(rng, n, 2, 3)
        w = divisibility_witness(f, g)
        assert g.eval_point(w.alpha) != 0


def test_witness_agrees_with_exact_division():
    rng = rng_for("witness-agreement")
    for trial in range(60):
        n = rng.randint(1, 3)
        g = random_poly(rng, n, 2, 3)
        h = random_poly(rng, n, 2, 3)
        f = g * h
        w = divisibility_witness(f, g)
        assert w.holds
        assert quotient_from_witness(w) == h
        spoiled = f + SparsePoly.const(n, 1)
        expect = divides_exact(spoiled, g)[0]
        assert divisibility_witness(spoiled, g).holds == expect


def test_constants_match_series_oracle():
    # the assembled h~ must equal the brute-force truncated power series
    rng = rng_for("witness-series")
    for _ in range(10):
        n = rng.randint(1, 2)
        g = random_poly(rng, n, 2, 2)
        f = g * random_poly(rng, n, 2, 2)
        d = max(f.degree() or 0, g.degree() or 0, 1)
        w = divisibility_witness(f, g)
        oracle = truncated_series_quotient(f, g, w.alpha, d)
        assert w.h_tilde == oracle


def test_series_quotient_rejects_a_root_of_g():
    f = parse_poly("z1^2 + z2")
    g = parse_poly("z1 - z2")
    with pytest.raises(ValueError):
        truncated_series_quotient(f, g, (1, 1), 2)


def test_constant_degree_wrapper_backends_agree():
    rng = rng_for("cd-divides")
    for _ in range(40):
        n = rng.randint(1, 3)
        g = random_poly(rng, n, 2, 2)
        f = g * random_poly(rng, n, 2, 3)
        assert constant_degree_divides(f, g)
        assert divisibility_witness(f, g).holds
        spoiled = f + SparsePoly.const(n, 3)
        assert (
            constant_degree_divides(spoiled, g)
            == divisibility_witness(spoiled, g).holds
        )


def test_truncation_weights_defining_property():
    # sum_b lambda_b q(b) = sum of q's coefficients of degree <= d for every
    # q of degree <= D; by linearity it suffices to check q = X^k
    for d, D in [(0, 0), (1, 2), (2, 8), (3, 18), (4, 32), (2, 5)]:
        lam = truncation_weights(d, D)
        assert sorted(lam) == list(range(1, D + 2))
        for k in range(D + 1):
            total = sum(weight * Q(b) ** k for b, weight in lam.items())
            assert total == (1 if k <= d else 0), (d, D, k)
