"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks
at desk scale.  Every emission that claims to be a factor with multiplicity
is also recorded for the unconditional soundness gate at the end.
"""

import pytest
import sympy

from polyfactor.rational import Q, ONE
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product, render_poly
from polyfactor.engine import (
    constant_degree_factors,
    factor_constant_degree_promise,
    factor_multiplicity,
    factor_su,
    sparse_factors,
    sparse_irreducible_test,
)
from polyfactor.oracles import constant_degree_oracle, su_oracle
from polyfactor.isolation import (
    apply_phi,
    compact_scheme,
    monomials_up_to,
    psi_invert,
    psi_map,
    recover_from_phi,
)
from polyfactor.basefactor import (
    factor_lowvar,
    factor_monic,
    is_irreducible_lowvar,
)
from polyfactor.divisibility import (
    divides_exact,
    divisibility_witness,
    quotient_from_witness,
)
from polyfactor.pit import interpolation_plan, sparse_interpolate
from polyfactor.factors import divide_out
from polyfactor.dense import to_dense
from polyfactor.errors import NotInCodomain, PromiseViolation

from conftest import (
    record_acceptance,
    rng_for,
    random_irreducible,
    random_irreducible_cubic,
    random_irreducible_quadratic,
    random_linear,
    random_poly,
    random_su,
    sympy_irreducible,
)

# (f, g, e) emissions accumulated across criteria for the soundness gate
EMISSIONS = []


def criterion(number, description):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                record_acceptance(number, description, False)
                raise
            record_acceptance(number, description, True)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


def build_product(rng, n, max_small=2):
    """(f, expected) with f = prod g_i^{e_i}, distinct small irreducibles."""
    expected = {}
    f = SparsePoly.const(n, 1)
    degree_budget = 6
    for _ in range(rng.randint(1, max_small)):
        delta = rng.choice([1, 1, 2])
        g = random_irreducible(rng, n, delta).canonical()
        if g in expected:
            continue
        e = rng.randint(1, 3 if delta == 1 else 2)
        if delta * e > degree_budget:
            continue
        degree_budget -= delta * e
        expected[g] = e
        f = f * g**e
    if not expected:
        g = random_linear(rng, n).canonical()
        expected[g] = 1
        f = f * g
    return f, expected


@criterion(1, "constant-degree completeness on 100 constructed products")
def test_criterion_1_constant_degree_completeness():
    rng = rng_for("acceptance-1")
    sizes = [2] * 45 + [3] * 30 + [4] * 15 + [5] * 10
    for n in sizes:
        f, expected = build_product(rng, n)
        h = random_irreducible_cubic(rng, n)
        f = f * h
        fl = constant_degree_factors(f, 2)
        got = {g: e for g, e in fl.factors}
        assert got == expected, (render_poly(f), len(got), len(expected))
        for g, e in fl.factors:
            EMISSIONS.append((f, g, e))


@criterion(2, "promise path agrees with the general path; violations raise")
def test_criterion_2_promise_path():
    rng = rng_for("acceptance-2")
    sizes = [2] * 50 + [3] * 35 + [4] * 15
    for n in sizes:
        f, expected = build_product(rng, n)
        a2 = factor_constant_degree_promise(f, 2)
        a3 = constant_degree_factors(f, 2)
        assert set(a2.factors) == set(a3.factors)
        assert {g: e for g, e in a2.factors} == expected
        assert a2.recompose() == f
        for g, e in a2.factors:
            EMISSIONS.append((f, g, e))
    for _ in range(20):
        n = rng.randint(2, 3)
        f, _ = build_product(rng, n, max_small=1)
        f = f * random_irreducible_cubic(rng, n)
        with pytest.raises(PromiseViolation):
            factor_constant_degree_promise(f, 2)


@criterion(3, "derivative multiplicity equals division multiplicity, 200x")
def test_criterion_3_multiplicity():
    # the worked case first
    f = parse_product("(z1+z2)^2*z1")
    g = parse_poly("z1+z2")
    assert factor_multiplicity(f, g) == 2 == divide_out(f, g)[1]
    rng = rng_for("acceptance-3")
    done = 0
    while done < 200:
        n = rng.randint(2, 4)
        g = random_irreducible(rng, n, rng.choice([1, 2]))
        h = random_poly(rng, n, 3, 3)
        if h.is_zero() or h.exact_divide(g) is not None:
            continue
        k = rng.randint(0, 4)
        f = g**k * h
        m1 = factor_multiplicity(f, g)
        m2 = divide_out(f, g)[1]
        assert m1 == m2 == k
        done += 1


@criterion(4, "witness divisibility agrees with exact division on 300 pairs")
def test_criterion_4_divisibility_equivalence():
    rng = rng_for("acceptance-4")
    for trial in range(150):
        n = rng.randint(1, 3)
        g = random_poly(rng, n, 2, 3)
        h = random_poly(rng, n, 2, 3)
        f = g * h
        w = divisibility_witness(f, g)
        ok, q = divides_exact(f, g)
        assert ok and w.holds
        assert quotient_from_witness(w) == q
    for trial in range(150):
        n = rng.randint(1, 3)
        g = random_poly(rng, n, 2, 3)
        f = g * random_poly(rng, n, 2, 3) + SparsePoly.const(
            n, rng.randint(1, 5)
        )
        w = divisibility_witness(f, g)
        ok, q = divides_exact(f, g)
        assert w.holds == ok
        if ok:
            assert quotient_from_witness(w) == q


@criterion(5, "isolation schemes: injectivity, homomorphism, worked example")
def test_criterion_5_isolation():
    # exhaustive pairwise injectivity on the bounded monomial sets
    for n, delta in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (5, 1)]:
        scheme = compact_scheme(n, delta)
        for weights in (scheme.w, scheme.w_prime):
            values = [
                sum(e * w for e, w in zip(mono, weights))
                for mono in monomials_up_to(n, delta)
            ]
            assert len(values) == len(set(values))
    rng = rng_for("acceptance-5")
    scheme = compact_scheme(3, 2)
    monos = monomials_up_to(3, 2)

    def bounded(rng):
        table = {}
        for _ in range(rng.randint(1, 5)):
            c = rng.randint(-5, 5)
            if c:
                table[rng.choice(monos)] = Q(c)
        return SparsePoly(3, table)

    for _ in range(100):
        f, g = bounded(rng), bounded(rng)
        assert apply_phi(f * g, scheme) == apply_phi(f, scheme) * apply_phi(
            g, scheme
        )
        assert recover_from_phi(apply_phi(f, scheme), scheme) == f
    # the worked example: weights (1,3), x^2 - z1 z2 -> x^2 - y^4 -> split
    s22 = compact_scheme(2, 2)
    assert (s22.w, s22.w_prime) == ((1, 3), (3, 1))
    g = parse_poly("z1^2 - z2*z3")
    image = apply_phi(g, s22, x_vars=1)
    assert image == parse_poly("z1^2 - z2^4", n=2)
    fl = factor_monic(image)
    assert {render_poly(p) for p, _ in fl.factors} == {
        "z2^2 - z1",
        "z2^2 + z1",
    }


@criterion(6, "psi: round trip, irreducibility preservation, rejection")
def test_criterion_6_psi():
    rng = rng_for("acceptance-6")
    schemes = {n: compact_scheme(n, 2) for n in (1, 2, 3, 4)}

    def monic_candidate(n):
        while True:
            monos = [m for m in monomials_up_to(n + 1, 2) if m[0] == 0]
            table = {}
            for _ in range(rng.randint(1, 4)):
                c = rng.randint(-4, 4)
                if c:
                    table[rng.choice(monos)] = Q(c)
            k = rng.randint(1, 2)
            table[(k,) + (0,) * n] = Q(1)
            g = SparsePoly(n + 1, table)
            if g.degree_in(1) == k and (g.degree() or 0) <= 2:
                return g

    for _ in range(100):
        n = rng.choice([1, 2, 3, 4])
        g = monic_candidate(n)
        scheme = schemes[n]
        assert psi_invert(psi_map(g, scheme), scheme, 2) == g
    preserved = 0
    while preserved < 30:
        n = rng.choice([2, 3, 4])
        g = monic_candidate(n)
        if not sympy_irreducible(g):
            continue
        image = psi_map(g, schemes[n])
        assert is_irreducible_lowvar(image.to_sparse())
        preserved += 1
    rejected = 0
    while rejected < 10:
        n = rng.choice([2, 3])
        g = monic_candidate(n)
        image = psi_map(g, schemes[n]).to_sparse()
        spoiled = image + parse_poly("y*t^2") * SparsePoly.const(3, rng.randint(1, 3))
        try:
            got = psi_invert(to_dense(spoiled), schemes[n], 2)
        except NotInCodomain:
            rejected += 1
            continue
        assert psi_map(got, schemes[n]).to_sparse() == spoiled
        rejected += 1


@criterion(7, "base factorizer recomposes 500/200/100 constructed products")
def test_criterion_7_base_factorizer():
    rng = rng_for("acceptance-7")
    certified = 0
    for _ in range(500):
        f = SparsePoly.const(1, rng.choice([1, 2, -1, 3]))
        for _ in range(rng.randint(1, 3)):
            f = f * random_poly(rng, 1, rng.randint(1, 4), 3)
        if f.is_constant():
            continue
        fl = factor_lowvar(f)
        assert fl.recompose() == f
        for p, _ in fl.factors:
            if (p.degree() or 0) <= 4 and certified < 60:
                assert sympy_irreducible(p)
                certified += 1
    for _ in range(200):
        f = SparsePoly.const(2, 1)
        for _ in range(rng.randint(2, 3)):
            g = random_poly(rng, 2, 2, 3)
            dx = g.degree_in(1) or 0
            g = g + SparsePoly.monomial(2, (dx + 1, 0))
            f = f * g
        fl = factor_monic(f)
        assert fl.recompose() == f
        for p, _ in fl.factors:
            if (p.degree() or 0) <= 4 and certified < 160:
                assert sympy_irreducible(p)
                certified += 1
    for _ in range(100):
        f = SparsePoly.const(3, 1)
        for _ in range(rng.randint(2, 3)):
            g = random_poly(rng, 3, 2, 3)
            dx = g.degree_in(1) or 0
            g = g + SparsePoly.monomial(3, (dx + 1, 0, 0))
            f = f * g**rng.randint(1, 2)
        fl = factor_monic(f)
        assert fl.recompose() == f
        for p, _ in fl.factors:
            if (p.degree() or 0) <= 4 and certified < 260:
                assert sympy_irreducible(p)
                certified += 1
    assert certified >= 200


@criterion(8, "sparse interpolation round trip, plan size exactly 2s")
def test_criterion_8_interpolation():
    rng = rng_for("acceptance-8")
    for _ in range(100):
        n = rng.randint(1, 4)
        d = rng.randint(1, 6)
        target_s = rng.randint(1, 16)
        f = random_poly(rng, n, d, target_s, ensure_nonzero=False)
        s = max(1, f.sparsity())
        plan = interpolation_plan(s, n)
        assert len(plan) == 2 * s
        values = [f.eval_point(p) for p in plan]
        assert sparse_interpolate(values, s, n, d) == f


@criterion(9, "sum-of-univariates: theorem cross-check, oracle contract, pipeline")
def test_criterion_9_su_pipeline():
    rng = rng_for("acceptance-9")
    # Theorem cross-check: 50 SU instances with 3 live variables
    done = 0
    while done < 50:
        f = random_su(rng, 3, 3)
        if len(f.var_support()) < 3:
            continue
        assert is_irreducible_lowvar(f)
        done += 1
    # d=1 oracle contract, exhaustive over small coefficient patterns on n=4
    from polyfactor.engine import monicize, _project

    oracle = su_oracle(4, 1)
    for c1 in (-1, 0, 1):
        for c2 in (-1, 0, 1):
            for c3 in (-1, 0, 1):
                for c4 in (0, 1):
                    table = {}
                    for i, c in enumerate((c1, c2, c3, c4)):
                        if c:
                            e = [0, 0, 0, 0]
                            e[i] = 1
                            table[tuple(e)] = Q(c)
                    table[(0, 0, 0, 0)] = Q(1)
                    g = SparsePoly(4, table)
                    if (g.degree() or 0) != 1:
                        continue
                    shift, _ = monicize(g)
                    scaled = g.scale(1 / shift.normalizer)
                    preserved = False
                    for pair in oracle.pairs(shift.alpha):
                        image = _project(scaled, shift.alpha, [pair.beta], pair.gamma)
                        fl = factor_monic(image)
                        if len(fl.factors) == 1 and fl.factors[0][1] == 1:
                            preserved = True
                            break
                    assert preserved
    # factor-su on 50 constructed products
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        k = rng.randint(1, 2)
        expected = {}
        f = SparsePoly.const(n, 1)
        for _ in range(k):
            g = random_su(rng, n, 2, certified_irreducible=True).canonical()
            if g in expected:
                continue
            e = rng.randint(1, 2)
            expected[g] = e
            f = f * g**e
        if not expected:
            continue
        if done % 3 == 0:
            # mixed product: one certified non-SU cofactor
            h = random_irreducible_quadratic(rng, n)
            from polyfactor.oracles import su_membership

            if su_membership(h):
                continue
            f = f * h
        fl = factor_su(f)
        got = {g: e for g, e in fl.factors}
        assert got == expected, (render_poly(f), done)
        for g, e in fl.factors:
            EMISSIONS.append((f, g, e))
        done += 1


@criterion(10, "oracle-driven path agrees with the projected path, 50x")
def test_criterion_10_agreement():
    rng = rng_for("acceptance-10")
    done = 0
    while done < 50:
        n = rng.randint(2, 3)
        f, expected = build_product(rng, n)
        if rng.random() < 0.4:
            f = f * random_irreducible_cubic(rng, n)
        oracle = constant_degree_oracle(2, n, f.degree() or 1)
        a4 = sparse_factors(f, 12, oracle)
        a3 = constant_degree_factors(f, 2)
        assert set(a4.factors) == set(a3.factors), render_poly(f)
        for g, e in a4.factors:
            EMISSIONS.append((f, g, e))
        done += 1


@criterion(11, "soundness gate: g^e | f and g^(e+1) does not divide, always")
def test_criterion_11_soundness_gate():
    assert EMISSIONS, "earlier criteria must have recorded emissions"
    for f, g, e in EMISSIONS:
        power = g**e
        quotient = f.exact_divide(power)
        assert quotient is not None
        assert quotient.exact_divide(g) is None
