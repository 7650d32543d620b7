"""Projection oracles: membership, support rules, and the preservation
contract certified through the bivariate factorizer."""

import math
from itertools import islice

import pytest

from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product
from polyfactor.oracles import (
    constant_degree_oracle,
    su_decide_irreducible,
    su_is_irreducible_by_support,
    su_membership,
    su_oracle,
)
from polyfactor.engine import factor_su, monicize, _project
from polyfactor.basefactor import factor_lowvar, factor_monic, is_irreducible_lowvar

from conftest import rng_for, random_poly, random_su, random_irreducible_quadratic


def test_su_membership():
    assert su_membership(parse_poly("z1^3 + z2^2 + 7"))
    assert not su_membership(parse_poly("z1*z2"))


def test_su_membership_on_constructions():
    rng = rng_for("su-membership")
    for _ in range(100):
        f = random_su(rng, rng.randint(1, 5), 3)
        assert su_membership(f)


def test_su_support_rule():
    assert su_is_irreducible_by_support(parse_poly("z1^2 + z2^2 + z3^2")) is True
    assert su_is_irreducible_by_support(parse_poly("z1^2 - z2^2")) is None
    assert su_is_irreducible_by_support(parse_poly("z1 + z2")) is None
    with pytest.raises(ValueError):
        su_is_irreducible_by_support(parse_poly("z1*z2"))


def test_su_decide_irreducible():
    assert su_decide_irreducible(parse_poly("z1^2 + z2^2 + z3^2"))
    assert not su_decide_irreducible(parse_poly("z1^2 - z2^2"))
    assert su_decide_irreducible(parse_poly("z1 + z2"))


def test_su_theorem_cross_check():
    # SU with >= 3 live variables is irreducible: cross-validate the support
    # rule against the dense factorizer on 3-variable instances
    rng = rng_for("su-theorem")
    checked = 0
    while checked < 20:
        f = random_su(rng, 3, 3)
        if len(f.var_support()) < 3:
            continue
        assert is_irreducible_lowvar(f)
        checked += 1


def preserving_pair_exists(g, oracle, limit=None):
    shift, _ = monicize(g)
    scaled = g.scale(1 / shift.normalizer)
    for idx, pair in enumerate(oracle.pairs(shift.alpha)):
        if limit is not None and idx >= limit:
            return False
        image = _project(scaled, shift.alpha, [pair.beta], pair.gamma)
        fl = factor_monic(image)
        if len(fl.factors) == 1 and fl.factors[0][1] == 1:
            return True
    return False


def test_su_oracle_contract_d1_exhaustive():
    # degree-1 sums of univariates over n=4: every irreducible input gets a
    # preserving pair (certified by the bivariate factorizer)
    oracle = su_oracle(4, 1)
    coeffs = [-1, 1, 2]
    count = 0
    for c1 in coeffs:
        for c2 in coeffs:
            for c4 in coeffs:
                g = SparsePoly(
                    4,
                    {
                        (1, 0, 0, 0): Q(c1),
                        (0, 1, 0, 0): Q(c2),
                        (0, 0, 0, 1): Q(c4),
                        (0, 0, 0, 0): Q(1),
                    },
                )
                assert preserving_pair_exists(g, oracle)
                count += 1
    assert count == 27


def test_su_oracle_contract_d2_samples():
    rng = rng_for("su-oracle-d2")
    oracle = su_oracle(3, 2)
    checked = 0
    while checked < 10:
        g = random_su(rng, 3, 2, certified_irreducible=True)
        if g.degree() != 2:
            continue
        assert preserving_pair_exists(g, oracle, limit=4000)
        checked += 1


def test_su_oracle_prefix_is_deterministic():
    oracle_a = su_oracle(3, 2)
    oracle_b = su_oracle(3, 2)
    alpha = (Q(1), Q(1), Q(1))
    prefix = list(islice(oracle_a.pairs(alpha), 50))
    assert prefix == list(islice(oracle_b.pairs(alpha), 50))
    assert len(prefix) == 50


def test_constant_degree_oracle_contract():
    rng = rng_for("cd-oracle")
    oracle = constant_degree_oracle(2, 3, 4)
    checked = 0
    while checked < 10:
        g = random_irreducible_quadratic(rng, 3)
        assert preserving_pair_exists(g, oracle, limit=300)
        checked += 1


def test_constant_degree_oracle_linear_exhaustive_small():
    oracle = constant_degree_oracle(1, 3, 2)
    rng = rng_for("cd-oracle-lin")
    for _ in range(20):
        g = SparsePoly(
            3,
            {
                (1, 0, 0): Q(rng.randint(1, 3)),
                (0, 1, 0): Q(rng.randint(-3, 3)),
                (0, 0, 1): Q(rng.randint(-3, 3)),
                (0, 0, 0): Q(rng.randint(-2, 2)),
            },
        )
        assert preserving_pair_exists(g, oracle, limit=50)


def test_support_for_degree_contract():
    # each oracle's support at a degree is the class's whole monomial set
    # there: n*deg + 1 monomials for SU, C(n + deg, deg) for constant degree,
    # with no duplicates, holding every monomial of a class member
    rng = rng_for("support-contract")
    for n in range(1, 5):
        for deg in range(1, 4):
            su = su_oracle(n, deg).support_for_degree
            cd = constant_degree_oracle(deg, n, deg).support_for_degree(deg)
            assert len(su(deg)) == n * deg + 1
            assert len(cd) == math.comb(n + deg, deg)
            for support in (su(deg), cd):
                assert len(set(support)) == len(support)
                assert all(len(mono) == n for mono in support)
            for _ in range(5):
                member = random_su(rng, n, deg)
                assert set(member.terms) <= set(su(member.degree()))
                member = random_poly(rng, n, deg, rng.randint(1, 6))
                assert set(member.terms) <= set(cd)


def test_su_factors_of_univariate_products_are_the_complete_ones():
    # every univariate polynomial is a sum of univariates, so the SU search
    # on one variable, through its single projection pair, finds every
    # factor the complete factorization has
    rng = rng_for("su-univariate")
    checked = 0
    for _ in range(40):
        f = SparsePoly.const(1, rng.choice([1, -2, 3]))
        for _ in range(rng.randint(1, 3)):
            h = random_poly(rng, 1, 3, 3)
            if not h.is_constant():
                f = f * h ** rng.randint(1, 2)
        if f.is_constant():
            continue
        assert factor_su(f).factors == factor_lowvar(f).factors, f
        checked += 1
    assert checked >= 30
