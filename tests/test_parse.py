"""Text grammar: parse/render round trips and error reporting."""

import pytest

from polyfactor.parse import ParseError, parse_poly, parse_product, render_poly
from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly

from conftest import rng_for, random_poly


def test_basic_parse():
    f = parse_poly("z1^2 - z2^2")
    assert f.terms == {(2, 0): Q(1), (0, 2): Q(-1)}


def test_fraction_coefficients_round_trip():
    f = parse_poly("3/2*z1*z2 + 1")
    assert parse_poly(render_poly(f)) == f


def test_whitespace_insignificant():
    assert parse_poly("  3*z1^2*z2-5/7*z3+1 ") == parse_poly("3*z1^2*z2 - 5/7*z3 + 1")


def test_reserved_names():
    f = parse_poly("x^2 - y^4")
    assert f.n == 3
    assert render_poly(f, reserved=True) == "-y^4 + x^2"


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_poly("z1 + q3")
    with pytest.raises(ParseError):
        parse_poly("z2 + z9", n=1)


def test_position_in_error():
    try:
        parse_poly("z1 + + ")
        assert False
    except ParseError as exc:
        assert exc.position >= 4


def test_expand_products_and_powers():
    f = parse_product("(z1+z2)^2*(z1-1)")
    g = parse_poly("z1+z2") ** 2 * parse_poly("z1 - 1", n=2)
    assert f == g


def test_fuzzed_round_trip():
    rng = rng_for("parse-fuzz")
    for _ in range(1000):
        n = rng.randint(1, 5)
        f = random_poly(rng, n, 6, rng.randint(1, 8), ensure_nonzero=False)
        text = render_poly(f)
        assert render_poly(parse_poly(text, n=n)) == text


def test_zero_renders():
    assert render_poly(SparsePoly.zero(2)) == "0"
    assert parse_poly("0", n=2).is_zero()


def test_zero_denominator_is_a_parse_error():
    text = "z1 + 3/0"
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert text[info.value.position :].strip() == "3/0"
    with pytest.raises(ParseError):
        parse_product("(z1 + 2/0)^2")
