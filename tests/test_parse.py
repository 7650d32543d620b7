"""Text grammar: parse/render round trips and error reporting."""

import glob
import json
import os

import pytest

from polyfactor.parse import (
    MAX_ARITY,
    ParseError,
    RESERVED,
    _Parser,
    _arity,
    _number,
    _var_slot,
    parse_poly,
    parse_product,
    render_poly,
    tokenize,
)
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
    ("z1 + z1234567890123", None, "variable z1234567890123 is past the arity cap 1000", 5),
    ("z1001*z3 + z1^2", None, "variable z1001 is past the arity cap 1000", 0),
    ("z1", 1001, "arity 1001 is past the cap 1000", 0),
]


@pytest.mark.parametrize("text, n, message, position", ERRORS)
def test_error_message_and_position(text, n, message, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, n)
    assert str(info.value) == "%s (at position %d)" % (message, position)
    assert info.value.position == position


@pytest.mark.parametrize("parse", [parse_poly, parse_product])
def test_an_arity_past_the_cap_is_refused_before_any_exponent_list(parse):
    # a ten-digit index, or a given arity, of 10^12 would ask for an
    # exponent list of 10^12 slots per term; both readers refuse it at
    # once, naming the variable and its position.  The cap itself parses
    text = "(z1 - 3)^2 + z2*z1234567890123" if parse is parse_product else "z1 + z1234567890123"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert "z1234567890123 is past the arity cap %d" % MAX_ARITY in str(info.value)
    assert text[info.value.position :] == "z1234567890123"
    with pytest.raises(ParseError) as info:
        parse("z1 + 1", 10**12)
    assert info.value.position == 0
    assert parse("z1 + z%d" % MAX_ARITY).n == MAX_ARITY
    assert parse("z1 + 1", MAX_ARITY).n == MAX_ARITY


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


def reference_terms(text, n=None):
    """The flat grammar read token by token, as parse_poly read it before it
    matched whole terms: (n, {exponents: coefficient}), the coefficient
    built as a product of rationals, like terms summed in one dict."""
    tokens = tokenize(text)
    n = _arity((value for kind, value, _ in tokens if kind == "var"), n, text)
    p = _Parser(tokens, n)
    terms = {}
    sign = p.sign() or 1
    while True:
        exps = [0] * n
        coeff = Q(sign)
        while True:
            kind, value, pos = p.next()
            if kind == "number":
                coeff *= _number(value, pos) ** p.exponent()
            elif kind == "var":
                exps[_var_slot(value, n, pos)] += p.exponent()
            else:
                raise ParseError("unexpected token %r" % (value or "end of input"), pos)
            kind, value, _ = p.peek()
            if kind != "op" or value != "*":
                break
            p.next()
        if coeff:
            key = tuple(exps)
            acc = terms.get(key)
            if acc is None:
                terms[key] = coeff
            else:
                acc += coeff
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
        sign = p.sign()
        if sign is None:
            break
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % value, pos)
    return n, terms


def _outcome(read, text, n):
    """What read(text, n) gives: its arity and term items in order, or its
    error's type, message and position."""
    try:
        got_n, terms = read(text, n)
    except ParseError as exc:
        return ("error", str(exc), exc.position)
    return ("ok", got_n, list(terms.items()))


def _via_parse_poly(text, n):
    f = parse_poly(text, n)
    return f.n, f.terms


_BLANKS = ["", "", "", " ", "  ", "\t", "\n", "\u00a0"]


def _random_flat_text(rng):
    """(text, n): a valid flat text with random spacing, fractions, powers
    of numbers, repeated and reserved variables, zero and cancelling
    terms; n is None or an arity that fits the names used."""
    reserved = rng.random() < 0.25
    top = rng.randint(1, 6)
    names = list(RESERVED) if reserved else ["z%d" % i for i in range(1, top + 1)]

    def blank():
        return rng.choice(_BLANKS)

    def number():
        text = str(rng.choice([0, 1, 1, 2, 3, 7, 10, 12, 1009]))
        if rng.random() < 0.3:
            text += blank() + "/" + blank() + str(rng.randint(1, 30))
        return text

    def power():
        return blank() + "^" + blank() + str(rng.randint(0, 4)) if rng.random() < 0.4 else ""

    terms = []
    for i in range(rng.randint(1, 6)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.35:
                factors.append(number() + power())
            else:
                factors.append(rng.choice(names) + power())
        sign = rng.choice("+-") if i or rng.random() < 0.4 else ""
        term = (blank() + "*" + blank()).join(factors)
        terms.append(blank() + sign + blank() + term)
        if rng.random() < 0.15:  # the same term again, to sum or cancel
            terms.append(blank() + rng.choice("+-") + blank() + term)
    text = "".join(terms) + blank()
    used = [name for name in names if name in text]
    if rng.random() < 0.5:
        return text, None
    if reserved:
        return text, rng.randint(3, 5)
    return text, max([int(name[1:]) for name in used] + [1]) + rng.randint(0, 2)


_MUTANTS = "0123456789zxyt+-*^/() \t.q_\u00a0\u0663"


def _mutations(rng, text):
    """Single-character edits of text: one replaced, inserted or deleted."""
    out = []
    for _ in range(4):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(_MUTANTS)
        out += [text[:i] + c + text[i + 1 :], text[:i] + c + text[i:], text[:i] + text[i + 1 :]]
    return out


def test_flat_reader_is_the_token_walk():
    """parse_poly gives the reference walk's term table in the same order,
    or raises its ParseError with the same message and position, on valid
    flat texts and on single-character mutations of them."""
    rng = rng_for("flat-reader")
    seen = {"ok": 0, "error": 0}
    for _ in range(1500):
        text, n = _random_flat_text(rng)
        want = _outcome(reference_terms, text, n)
        assert want[0] == "ok", (text, want)
        assert _outcome(_via_parse_poly, text, n) == want, (text, n)
        for mutant in _mutations(rng, text):
            for arity in (n, None):
                want = _outcome(reference_terms, mutant, arity)
                seen[want[0]] += 1
                assert _outcome(_via_parse_poly, mutant, arity) == want, (mutant, arity)
    # the mutations reach both sides of the grammar
    assert min(seen.values()) > 1000


@pytest.mark.parametrize(
    "text, n",
    [
        ("x + z1", 3),
        ("x*z2 - z1*y + t^2", 3),
        ("x + z1", None),
        ("3/0^0", None),
        ("0/0*z1", 2),
        ("z1^0 - 1", None),
        ("2 ^ 3 * z1 ^ 2 - 8*z1^2", None),
        (" \t\n", None),
        ("z12", None),
        ("z1 +", 1),
    ],
)
def test_flat_reader_is_the_token_walk_on_edge_texts(text, n):
    want = _outcome(reference_terms, text, n)
    assert _outcome(_via_parse_poly, text, n) == want


@pytest.mark.parametrize("text, n, message, position", ERRORS)
def test_reference_walk_reports_each_error(text, n, message, position):
    with pytest.raises(ParseError) as info:
        reference_terms(text, n)
    assert str(info.value) == "%s (at position %d)" % (message, position)
