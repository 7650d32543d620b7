"""Core sparse arithmetic: ring axioms, division, calculus, structure."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest

import polyfactor
from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product
from polyfactor.errors import VariableCountMismatch, ZeroDivisorError

from conftest import rng_for, random_poly


def test_difference_of_squares():
    f = parse_product("(z1+z2)*(z1-z2)")
    assert f == parse_poly("z1^2 - z2^2")


def test_mul_by_zero_annihilates():
    f = parse_poly("3*z1^2*z2 - 5/7*z3 + 1")
    assert (f * SparsePoly.zero(3)).is_zero()


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        parse_poly("z1 + z2") * parse_poly("z1")


def test_ring_axioms_on_random_triples():
    rng = rng_for("ring-axioms")
    for _ in range(50):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, 4, 4)
        g = random_poly(rng, n, 4, 4)
        h = random_poly(rng, n, 4, 4)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f


def test_substitute_shift_expansion():
    f = parse_poly("z1*z2")
    # z1 -> x + z1, z2 -> x + z2 with x as a fresh first variable
    m = 3
    a1 = SparsePoly.variable(m, 2) + SparsePoly.variable(m, 1)
    a2 = SparsePoly.variable(m, 3) + SparsePoly.variable(m, 1)
    out = f.substitute([a1, a2], m=m)
    x, z1, z2 = (SparsePoly.variable(m, i) for i in (1, 2, 3))
    assert out == x * x + (z1 + z2) * x + z1 * z2


def test_substitute_kronecker_image():
    g = parse_poly("z1^2 - z2*z3")  # x^2 - z1 z2 with x=z1
    y = SparsePoly.variable(2, 2)
    x = SparsePoly.variable(2, 1)
    out = g.substitute([x, y, y**3], m=2)
    assert out == parse_poly("z1^2 - z2^4", n=2)


def test_substitute_to_zero():
    f = parse_poly("z1")
    assert f.substitute([SparsePoly.zero(1)], m=1).is_zero()


def reference_mul(f, g):
    """The Fraction double loop SparsePoly.__mul__ ran before products moved
    to the packed-integer kernel: the reference products and powers must
    agree with."""
    if len(f.terms) > len(g.terms):
        big, small = f.terms, g.terms
    else:
        big, small = g.terms, f.terms
    terms = {}
    for e1, c1 in small.items():
        for e2, c2 in big.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            acc = terms.get(exps)
            prod = c1 * c2
            if acc is None:
                terms[exps] = prod
            else:
                acc = acc + prod
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
    return SparsePoly(f.n, terms)


def reference_pow(f, k):
    result = SparsePoly.const(f.n, 1)
    for _ in range(k):
        result = reference_mul(result, f)
    return result


def random_operand(rng, n):
    kind = rng.randrange(6)
    if kind == 0:
        return SparsePoly.zero(n)
    if kind == 1:
        return SparsePoly.const(n, Q(rng.randint(-9, 9), rng.randint(1, 5)))
    if kind == 2:  # plain int coefficients, negative ones included
        g = random_poly(rng, n, rng.randint(1, 5), rng.randint(1, 5))
        return SparsePoly(n, {e: int(c) for e, c in g.terms.items()})
    return random_rational_poly(rng, n, rng.randint(1, 5), rng.randint(1, 6))


def test_mul_and_pow_match_fraction_reference():
    rng = rng_for("mul-reference")
    for trial in range(240):
        n = rng.randint(1, 5)
        f = random_operand(rng, n)
        g = random_operand(rng, n)
        product = f * g
        assert product == reference_mul(f, g)
        assert all(type(c) is type(Q(1)) for c in product.terms.values())
        k = trial % 7
        assert f**k == reference_pow(f, k)
    # a linear factor against a high-degree one: the packing must fit the
    # sum of the degrees, not either one
    f = parse_poly("z1 - 1/2*z2")
    g = parse_poly("z1^9*z2^4 + 3*z2^13 - 1")
    assert f * g == reference_mul(f, g) == g * f
    assert f**6 == reference_pow(f, 6)
    assert SparsePoly.zero(3) ** 0 == SparsePoly.const(3, 1)


def reference_substitute(f, assignment, m=None):
    """Composition by whole-polynomial products on Fractions: the reference
    the integer substitution kernel must agree with."""
    if m is None:
        m = next(img.n for img in assignment if isinstance(img, SparsePoly))
    images = [
        img if isinstance(img, SparsePoly) else SparsePoly.const(m, img)
        for img in assignment
    ]
    power_cache = [[SparsePoly.const(m, 1)] for _ in range(f.n)]

    def power(i, e):
        cache = power_cache[i]
        while len(cache) <= e:
            cache.append(reference_mul(cache[-1], images[i]))
        return cache[e]

    total = SparsePoly.zero(m)
    for exps, coeff in f.terms.items():
        acc = SparsePoly.const(m, coeff)
        for i, e in enumerate(exps):
            if e:
                acc = reference_mul(acc, power(i, e))
        total = total + acc
    return total


def random_image(rng, m):
    kind = rng.randrange(6)
    if kind == 0:  # a plain constant, rational or int
        return rng.choice([Q(-3, 4), Q(5, 2), 0, 7, -1])
    if kind == 1:
        return SparsePoly.zero(m)
    if kind == 2:
        return SparsePoly.const(m, Q(rng.randint(-9, 9), rng.randint(1, 5)))
    if kind == 3:  # affine, rational and negative coefficients
        return SparsePoly.linear(
            [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)],
            Q(rng.randint(-5, 5), rng.randint(1, 3)),
        )
    if kind == 4:  # nonlinear, plain int coefficients
        g = random_poly(rng, m, 3, 3, ensure_nonzero=False)
        return SparsePoly(m, {e: int(c) for e, c in g.terms.items()})
    return random_rational_poly(rng, m, rng.randint(1, 3), rng.randint(1, 3))


def test_substitute_matches_reference_composition():
    rng = rng_for("substitute-reference")
    for trial in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        f = random_rational_poly(rng, n, rng.randint(0, 4), rng.randint(1, 6))
        if trial % 4 == 0:  # plain int coefficients
            f = SparsePoly(n, {e: int(c.numerator) for e, c in f.terms.items()})
        if trial % 5 == 0:  # a variable absent from f
            k = rng.randrange(n)
            f = SparsePoly(n, {e[:k] + (0,) + e[k + 1 :]: c for e, c in f.terms.items()})
        assignment = [random_image(rng, m) for _ in range(n)]
        if trial % 7 == 0:  # m inferred from the first polynomial image
            assignment[0] = Q(2, 3)
            assignment[-1] = SparsePoly.variable(m, m)
            got = f.substitute(assignment)
        else:
            got = f.substitute(assignment, m=m)
        assert got == reference_substitute(f, assignment, m)
        assert got.n == m
        assert all(type(c) is type(Q(1)) for c in got.terms.values())


def test_substitute_high_degree_images():
    f = parse_poly("z1^5*z2 - 3/4*z2^7 + z1")
    y = SparsePoly.variable(2, 2)
    t = SparsePoly.variable(2, 1)
    assignment = [y**9 * t + y**4, SparsePoly.const(2, Q(1, 3)) - y**11]
    assert f.substitute(assignment) == reference_substitute(f, assignment)


def test_successive_eval_var_equals_eval_point():
    rng = rng_for("eval-var")
    for _ in range(60):
        n = rng.randint(1, 5)
        f = random_rational_poly(rng, n, rng.randint(0, 5), rng.randint(1, 8))
        point = [rng.choice([0, 1, -2, Q(3, 5), Q(-7, 2)]) for _ in range(n)]
        value = f.eval_point(point)
        current, slots = f, list(range(n))  # slots[k]: variable left in slot k+1
        for i in rng.sample(range(n), n):
            k = slots.index(i)
            current = current.eval_var(k + 1, point[i])
            del slots[k]
            assert current.n == len(slots)
            assert current.eval_point([point[j] for j in slots]) == value
            # the same variables set in one pass
            done = {j + 1: point[j] for j in range(n) if j not in slots}
            assert f.eval_vars(done) == current
        assert current == SparsePoly.const(0, value)


def test_eval_point_evaluates_in_one_pass(monkeypatch):
    def folded(self, var, value):
        raise AssertionError("eval_point folded eval_var")

    monkeypatch.setattr(SparsePoly, "eval_var", folded)
    rng = rng_for("eval-point-one-pass")
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_rational_poly(rng, n, rng.randint(0, 5), rng.randint(1, 8))
        point = [rng.choice([0, 1, -2, Q(3, 5), Q(-7, 2)]) for _ in range(n)]
        expected = sum(
            c * math.prod(Fraction(v) ** e for v, e in zip(point, exps))
            for exps, c in f.terms.items()
        )
        assert f.eval_point(point) == expected


def test_eval_var_rejects_a_variable_out_of_range():
    f = parse_poly("z1^2 + 3*z2 + 1")
    for var in (-1, 0, 3):
        with pytest.raises(IndexError):
            f.eval_var(var, 2)
        with pytest.raises(IndexError):
            f.eval_vars({1: 1, var: 2})


def test_degree_in_rejects_a_variable_out_of_range():
    # a slot from the end must not stand in for variable 0 or -1
    f = parse_poly("z1^2 + 3*z2 + 1")
    assert (f.degree_in(1), f.degree_in(2)) == (2, 1)
    for poly in (f, SparsePoly.zero(2)):
        for var in (-1, 0, 3):
            with pytest.raises(IndexError, match="out of range 1..2"):
                poly.degree_in(var)


def test_one_integer_boundary():
    """Polynomials are read into integers only by sparse._int_table (the
    interpolation solve clears its values, which are no polynomial), and
    every kernel result over Q comes from sparse._from_table."""
    clears, builds = set(), set()
    for path in sorted(pathlib.Path(polyfactor.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id == "clear_denominators":
                        clears.add((path.stem, func.name))
                    elif node.func.id == "Q" and len(node.args) == 2:
                        builds.add((path.stem, func.name))
    assert clears == {("sparse", "_int_table"), ("pit", "_transposed_vandermonde")}
    assert {name for mod, name in builds if mod == "sparse"} == {"_from_table"}


def reference_eval_var(f, var, value):
    """The Fraction loop SparsePoly.eval_var ran before it moved to
    integers: one multiply and one add per term."""
    i = var - 1
    value = Fraction(value)
    powers = {}
    terms = {}
    for exps, c in f.terms.items():
        e = exps[i]
        if e:
            if not value:
                continue
            p = powers.get(e)
            if p is None:
                p = powers[e] = value**e
            c = c * p
        reduced = exps[:i] + exps[i + 1 :]
        acc = terms.get(reduced)
        if acc is None:
            terms[reduced] = c
        else:
            acc = acc + c
            if acc:
                terms[reduced] = acc
            else:
                del terms[reduced]
    return SparsePoly(f.n - 1, terms)


def test_eval_var_matches_fraction_reference():
    rng = rng_for("eval-var-reference")
    values = [0, 1, -1, 2, -3, Q(1, 2), Q(-7, 3), Q(5, 4), Fraction(-2, 9)]
    seen = set()
    for trial in range(300):
        n = 1 if trial % 5 == 0 else rng.randint(2, 5)
        f = random_operand(rng, n)
        var = rng.randint(1, n)
        if trial % 7 == 0:  # the variable absent from f
            f = f.eval_var(var, 1).map_variables(
                [j if j < var - 1 else j + 1 for j in range(n - 1)], n
            )
        value = rng.choice(values)
        got = f.eval_var(var, value)
        assert got == reference_eval_var(f, var, value), (f, var, value)
        assert got.n == n - 1
        assert all(type(c) is type(Q(1)) for c in got.terms.values())
        seen.add((n == 1, f.degree_in(var) in (None, 0), value == 0, Q(value).denominator > 1))
    # value 0, rational values, n = 1 and an absent variable all came up
    assert {key[0] for key in seen} == {True, False}
    assert any(key[1] for key in seen) and any(key[2] for key in seen)
    assert any(key[3] for key in seen)


def test_hom_component_filters_degree():
    f = parse_poly("z1*z2 + z1")
    assert f.hom_component(2) == parse_poly("z1*z2")
    assert f.hom_component(1) == parse_poly("z1", n=2)
    assert f.hom_component(5).is_zero()


def test_hom_components_reassemble():
    rng = rng_for("hom-reassemble")
    for _ in range(50):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, 6, 6)
        total = SparsePoly.zero(n)
        for k in range((f.degree() or 0) + 1):
            total = total + f.hom_component(k)
        assert total == f


def test_derivative_matches_expansion():
    f = parse_product("(z1+z2)^2*z1")
    assert f.derivative(1) == parse_poly("3*z1^2 + 4*z1*z2 + z2^2")


def test_zero_order_derivative_is_identity():
    f = parse_poly("z1^2*z2 - 3")
    assert f.derivative(1, 0) == f


def test_derivative_of_independent_variable():
    f = parse_poly("z2^3", n=2)
    assert f.derivative(1).is_zero()


def test_derivative_commutes_with_translation():
    rng = rng_for("derivative-shift")
    for _ in range(30):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 5, 5)
        offsets = [Q(rng.randint(-3, 3)) for _ in range(n)]
        var = rng.randint(1, n)
        assert f.shift(offsets).derivative(var) == f.derivative(var).shift(offsets)


def test_exact_divide_difference_of_squares():
    f = parse_poly("z1^2 - z2^2")
    g = parse_poly("z1 + z2")
    assert f.exact_divide(g) == parse_poly("z1 - z2")


def test_exact_divide_not_divisible():
    f = parse_poly("z1^2 + 1")
    g = parse_poly("z1 + 1")
    assert f.exact_divide(g) is None


def test_exact_divide_closure():
    rng = rng_for("divide-closure")
    for _ in range(200):
        n = rng.randint(1, 4)
        g = random_poly(rng, n, 3, 3)
        h = random_poly(rng, n, 3, 3)
        assert (g * h).exact_divide(g) == h


def reference_divide(f, g):
    """Max-scan leading-term division on Fractions: the reference the
    integer heap kernel must agree with."""
    g_lt = max(g.terms, key=lambda e: (sum(e), e))
    g_lc = Fraction(g.terms[g_lt])
    rem = {e: Fraction(c) for e, c in f.terms.items()}
    quot = {}
    while rem:
        r_exps = max(rem, key=lambda e: (sum(e), e))
        q_exps = tuple(a - b for a, b in zip(r_exps, g_lt))
        if any(e < 0 for e in q_exps):
            return None
        q_coeff = rem[r_exps] / g_lc
        quot[q_exps] = q_coeff
        for e2, c2 in g.terms.items():
            exps = tuple(a + b for a, b in zip(q_exps, e2))
            acc = rem.get(exps, 0) - q_coeff * c2
            if acc:
                rem[exps] = acc
            else:
                rem.pop(exps, None)
    return SparsePoly(f.n, quot)


def random_rational_poly(rng, n, d, terms):
    table = {}
    for _ in range(terms):
        exps = [0] * n
        budget = rng.randint(0, d)
        for i in rng.sample(range(n), n):
            exps[i] = rng.randint(0, budget)
            budget -= exps[i]
        table[tuple(exps)] = Q(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
    return SparsePoly(n, table)


def test_exact_divide_matches_reference_division():
    rng = rng_for("divide-reference")
    for trial in range(150):
        n = rng.randint(1, 5)
        g = random_rational_poly(rng, n, rng.randint(1, 4), rng.randint(1, 4))
        if trial % 3 == 0:  # integer divisor with content, lc of either sign
            den = math.lcm(*(c.denominator for c in g.terms.values()))
            g = g.scale(rng.choice([-6, -2, 3, 4, 10]) * den)
        h = random_rational_poly(rng, n, rng.randint(0, 5), rng.randint(1, 5))
        f = g * h
        assert f.exact_divide(g) == h == reference_divide(f, g)
        mono = SparsePoly.monomial(n, [rng.randint(0, 3) for _ in range(n)], Q(1, 7))
        assert (f + mono).exact_divide(g) == reference_divide(f + mono, g)
        if not g.is_constant():
            assert (f + mono).exact_divide(g) is None or mono.exact_divide(g) is not None


def test_exact_divide_int_coefficients_and_non_primitive_divisor():
    g = SparsePoly(2, {(1, 0): 6, (0, 1): 4})  # 6*z1 + 4*z2, plain ints
    h = parse_poly("1/3*z1^2 - 5/2*z2 + 7")
    assert (g * h).exact_divide(g) == h
    assert (g * h + parse_poly("z1*z2")).exact_divide(g) is None
    f = SparsePoly(1, {(2,): 6, (0,): -6})
    assert f.exact_divide(parse_poly("2*z1 + 2")) == parse_poly("3*z1 - 3")


def test_exact_divide_non_integral_step():
    g = parse_poly("2*z1 + 1")
    assert parse_poly("z1^2 + z1").exact_divide(g) is None
    h = parse_poly("1/3*z1 + 1/5")
    assert (g * h).exact_divide(g) == h


def test_exact_divide_high_degree_and_constant_divisor():
    f = parse_product("(z1^40 + z2^3*z3 - 2)*(z1^35 - 3*z3^2)")
    assert f.exact_divide(parse_poly("z1^35 - 3*z3^2")) == parse_poly("z1^40 + z2^3*z3 - 2")
    assert f.exact_divide(parse_poly("z1^41 + z2*z3")) is None
    assert parse_poly("z1 + 1").exact_divide(parse_poly("z1^2")) is None
    assert f.exact_divide(SparsePoly.const(3, Q(-4, 3))) == f.scale(Q(-3, 4))


def test_divide_by_zero_raises():
    f = parse_poly("z1")
    with pytest.raises(ZeroDivisorError):
        f.exact_divide(SparsePoly.zero(1))


def test_var_support():
    assert parse_poly("z1^2 + z3").var_support() == {1, 3}
    assert SparsePoly.const(4, 5).var_support() == set()


def test_var_support_invariant_under_shift():
    rng = rng_for("support-shift")
    for _ in range(50):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, 4, 4)
        if 1 not in f.var_support():
            f = f + parse_poly("z1", n=n)
        shifted = f.shift([Q(1)] + [Q(0)] * (n - 1))
        assert shifted.var_support() == f.var_support()


def test_zero_polynomial_degree_marker():
    assert SparsePoly.zero(2).degree() is None
    assert SparsePoly.zero(2).degree_in(1) is None


def test_canonical_leading_coefficient():
    f = parse_poly("2*z1^2 - 4*z2")
    c = f.canonical()
    assert c.leading_coefficient() == Q(1)
    canon, unit = f.canonical_with_unit()
    assert canon.scale(unit) == f


def test_integer_root_square():
    f = parse_product("(z1 + 2*z2 + 1)^2").canonical()
    r = f.integer_root(2)
    assert r is not None and r**2 == f
    assert parse_poly("z1^2 + z2").integer_root(2) is None


def test_immutability():
    f = parse_poly("z1")
    with pytest.raises(AttributeError):
        f.n = 5
