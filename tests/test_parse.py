"""Text grammar: parse/render round trips and error reporting."""

import glob
import json
import os

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


# (text, n, message, position): each error the flat grammar reports
ERRORS = [
    ("z1 + q3", None, "unexpected character ' '", 4),
    ("z2 + z9", 1, "variable z2 out of range 1..1", 0),
    ("z1 + + ", None, "unexpected token '+'", 4),
    ("z1 + 3/0", None, "zero denominator in 3/0", 4),
    ("", None, "unexpected token 'end of input'", 0),
    ("z1 +", None, "unexpected token 'end of input'", 4),
    ("2 z1", None, "trailing input 'z1'", 1),
    ("(z1 + 1)", None, "unexpected token '('", 0),
    ("z1 + -z2", None, "unexpected token '-'", 4),
    ("z1^", None, "exponent must be a non-negative integer", 3),
    ("z1^z2", None, "exponent must be a non-negative integer", 3),
    ("z1^1/2", None, "exponent must be a non-negative integer", 3),
    ("x + z1", None, "cannot mix reserved names with z-variables", 0),
    ("t", 2, "variable t needs arity > 2", 0),
    ("z1 * * z2", None, "unexpected token '*'", 4),
    ("z0", None, "variable z0 out of range 1..1", 0),
    ("3/0^2", None, "zero denominator in 3/0", 0),
    ("z5^2*q", 3, "unexpected character 'q'", 5),
    ("z1^2 z2", None, "trailing input 'z2'", 4),
    ("-", None, "unexpected token 'end of input'", 1),
    ("z1 - 2/3*z2^2*z2 + 4 +", None, "unexpected token 'end of input'", 22),
    ("z1 ^ 2 ^ 2", None, "trailing input '^'", 6),
]


@pytest.mark.parametrize("text, n, message, position", ERRORS)
def test_error_message_and_position(text, n, message, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, n)
    assert str(info.value) == "%s (at position %d)" % (message, position)
    assert info.value.position == position


def test_terms_match_the_kernel_on_every_pool_entry():
    """parse_poly builds terms directly; parse_product reads the same flat
    text on the SparsePoly kernel.  Both give the same term table, in the
    same order, on every benchmark pool entry and on cancelling terms."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    texts = []
    for path in sorted(glob.glob(os.path.join(root, "perfbench", "corpus", "*.jsonl"))):
        with open(path) as fh:
            texts += [(item["poly"], item["n"]) for item in map(json.loads, fh)]
    assert len(texts) == 352
    texts += [
        ("z1 - z1 + z1", None),
        ("0*z1 + 2^3 - 3^2*z1^0", None),
        ("z1*z1*z2^0 - z1^2 + z2", None),
        ("-3/6*x*y^2*x + 0", None),
        ("z1^0*z2^1 - z2", 2),
    ]
    for text, n in texts:
        got, want = parse_poly(text, n), parse_product(text, n)
        assert list(got.terms.items()) == list(want.terms.items()), text
        assert got.n == want.n
