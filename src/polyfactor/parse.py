"""Text polynomial grammar shared by the CLI and test fixtures.

Terms joined by + and -, a term being [coeff][*var^exp ...].  Coefficients
are integers or a/b fractions, variables are z1..zN plus the reserved names
x, y, t.  Whitespace is insignificant.  Example:

    3*z1^2*z2 - 5/7*z3 + 1

parse_poly reads this flat grammar one term at a time, one regular
expression match per term and one findall over its factors, straight to a
term table; only text it refuses is tokenized, to report the error.
parse_product additionally accepts parenthesized products and powers of the
base grammar, e.g. "(z1+z2)^2*(z1-1)", on the tokens; the CLI exposes it as
--expand.  Both refuse an arity past MAX_ARITY, given or inferred, before
any exponent list is built, and a power of a number past MAX_POWER_BITS
before it is computed; parse_product also refuses a power of a polynomial,
or a product of two, whose predicted size passes MAX_POWER_SIZE before it
multiplies.
"""

import math
import re

from .rational import Q
from .sparse import SparsePoly, _int_table
from .errors import PolyError


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<var>z\d+|[xyt])"
    r"|(?P<op>[-+*^()]))"
)

RESERVED = {"x": 0, "y": 1, "t": 2}
_VAR = re.compile(r"z\d+|[xyt]")

# the most variables a polynomial may have, given or inferred: a text that
# names z1234567890123 is refused before any exponent list that long is built
MAX_ARITY = 1000
# the cap on k floor(log2 c), c^k a power of a number's numerator or denominator
MAX_POWER_BITS = 1 << 16
# the cap on the predicted size of a power b^k of a polynomial b of t terms
# (`_power_size`), and of a product of two (`_product_size`): (z1 + z2 + z3
# + z4 + 1)^20 predicts 637,560 and expands; (z1 + 1)^2000 predicts
# 8,004,000 and is refused, and so is the 16th factor of (z1 + 1)(z2 + 1)
# ... (z24 + 1), at 1,114,112
MAX_POWER_SIZE = 1 << 20


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number").replace(" ", ""), pos))
        elif match.lastgroup == "var":
            tokens.append(("var", match.group("var"), pos))
        else:
            tokens.append(("op", match.group("op"), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def infer_arity(names):
    """Variable count implied by the variable names mentioned: max z index,
    or the reserved-name convention (x,y,t -> slots 0,1,2) when only those
    occur."""
    names = set(names)
    zs = [int(name[1:]) for name in names - RESERVED.keys()]
    if len(zs) == len(names):
        return max(zs + [1])
    if zs:
        raise ParseError("cannot mix reserved names with z-variables", 0)
    return 3


def _arity(names, n, text):
    """n, or when n is None the arity `infer_arity` reads from names, the
    variables text mentions; a ParseError when it passes MAX_ARITY, naming
    the first variable past the cap and its position, or the given n."""
    if n is None:
        n = infer_arity(names)
        if n > MAX_ARITY:
            var = next(v for v in _VAR.finditer(text) if _slot(v.group()) >= MAX_ARITY)
            raise ParseError(
                "variable %s is past the arity cap %d" % (var.group(), MAX_ARITY), var.start()
            )
    elif n > MAX_ARITY:
        raise ParseError("arity %d is past the cap %d" % (n, MAX_ARITY), 0)
    return n


def _slot(name):
    return RESERVED[name] if name in RESERVED else int(name[1:]) - 1


def _var_slot(name, n, pos):
    slot = _slot(name)
    if name in RESERVED and slot >= n:
        raise ParseError("variable %s needs arity > %d" % (name, slot), pos)
    if not 0 <= slot < n:
        raise ParseError("variable %s out of range 1..%d" % (name, n), pos)
    return slot


def _number(value, pos):
    num, _, den = value.partition("/")
    if den and not int(den):
        raise ParseError("zero denominator in %s" % value, pos)
    return Q(int(num), int(den or 1))


def _power(q, k, pos=None):
    """q^k for a number q.  A power past the cap MAX_POWER_BITS is refused
    before it is computed: a ParseError at pos, or None when pos is None."""
    if k * (max(abs(q.numerator), q.denominator).bit_length() - 1) <= MAX_POWER_BITS:
        return q**k
    if pos is not None:
        raise ParseError("power of %s is past the %d-bit cap" % (q, MAX_POWER_BITS), pos)


def _size(poly):
    """(t, |poly|_1): poly's term count and the sum of the magnitudes of
    its integer table's values."""
    table, _ = _int_table(poly)
    return len(table), sum(map(abs, table.values()))


def _power_size(base, k):
    """The predicted size of base^k: its term bound C(k + t - 1, t - 1), t
    the base's term count, times k bit_length(|base|_1), the bits its
    coefficients can reach, |base|_1 read from base's integer table."""
    t, norm = _size(base)
    return math.comb(k + t - 1, t - 1) * k * norm.bit_length()


def _product_size(a, b):
    """The predicted size of a b, as `_power_size` measures it: the term
    bound t_a t_b times bit_length(|a|_1 |b|_1)."""
    (ta, na), (tb, nb) = _size(a), _size(b)
    return ta * tb * (na * nb).bit_length()


class _Parser:
    """parse_sum reads the extended grammar on the SparsePoly kernel;
    flat_error reports why a text is not in the flat one."""

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, pos)

    def sign(self):
        """-1 or 1 when a sign comes next, which is consumed; else None."""
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            return -1 if value == "-" else 1
        return None

    def exponent(self):
        """The power after a '^' when one comes next, else 1."""
        kind, value, _ = self.peek()
        if kind != "op" or value != "^":
            return 1
        self.next()
        kind, value, pos = self.next()
        if kind != "number" or "/" in value:
            raise ParseError("exponent must be a non-negative integer", pos)
        return int(value)

    def flat_error(self):
        """Raise the first error of the flat grammar in the tokens, where a
        walk term by term meets it; only for text `_flat_terms` refuses."""
        self.sign()
        while True:
            kind, value, pos = self.next()
            if kind == "number":
                _power(_number(value, pos), self.exponent(), pos)
            elif kind == "var":
                _var_slot(value, self.n, pos)
                self.exponent()
            else:
                raise ParseError("unexpected token %r" % (value or "end of input"), pos)
            if self.peek()[:2] == ("op", "*"):
                self.next()
            elif self.sign() is None:
                break
        kind, value, pos = self.peek()
        if kind == "end":
            raise AssertionError("the flat reader refused valid text")
        raise ParseError("trailing input %r" % value, pos)

    def parse_sum(self):
        sign = self.sign() or 1
        total = self.parse_term().scale(sign)
        while True:
            sign = self.sign()
            if sign is None:
                return total
            term = self.parse_term()
            total = total - term if sign < 0 else total + term

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                pos = self.peek()[2]
            elif not (kind in ("var", "number") or (kind == "op" and value == "(")):
                return result
            # an implicit product inside --expand expressions falls through
            factor = self.parse_factor()
            if _product_size(result, factor) > MAX_POWER_SIZE:
                sizes = len(result.terms), len(factor.terms), MAX_POWER_SIZE
                raise ParseError("product of %d and %d terms is past the size cap %d" % sizes, pos)
            result = result * factor

    def parse_factor(self):
        pos, base = self.peek()[2], self.parse_atom()
        k = self.exponent()
        if k > 1 and base.is_constant():
            return SparsePoly.const(self.n, _power(base.constant_value(), k, pos))
        if k > 1 and _power_size(base, k) > MAX_POWER_SIZE:
            message = "power %d of %d terms is past the size cap %d"
            raise ParseError(message % (k, len(base.terms), MAX_POWER_SIZE), pos)
        return base if k == 1 else base**k

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "number":
            return SparsePoly.const(self.n, _number(value, pos))
        if kind == "var":
            slot = _var_slot(value, self.n, pos)
            return SparsePoly.variable(self.n, slot + 1)
        if kind == "op" and value == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_atom()
        raise ParseError("unexpected token %r" % (value or "end of input"), pos)


# one term of the flat grammar, its sign required after the first term, and
# one of its factors, as the tokenizer splits them
_FACTOR = r"(?:\d+(?:\s*/\s*\d+)?|z\d+|[xyt])(?:\s*\^\s*\d+)?"
_TERM = re.compile(r"\s*([-+]?)\s*(%s(?:\s*\*\s*%s)*)\s*" % (_FACTOR, _FACTOR))
_PART = re.compile(r"(?:(\d+)(?:\s*/\s*(\d+))?|(z\d+|[xyt]))(?:\s*\^\s*(\d+))?")


def _flat_terms(text, n):
    """(n, terms) for flat text, n inferred when None; None where the text
    leaves the grammar or `flat_error` would raise.  Each term is one
    `_TERM` match and one `_PART` findall over its factors, its coefficient
    an integer numerator and denominator made one rational; like terms are
    summed in one dict, and a cancelled term leaves it, as under +."""
    names = set(_VAR.findall(text))
    try:
        n = _arity(names, n, text)
    except ParseError:
        return None
    slots = {name: _slot(name) for name in names}
    if not all(0 <= slot < n for slot in slots.values()):
        return None
    terms = {}
    pos = 0
    while True:
        match = _TERM.match(text, pos)
        if match is None or (pos and not match.group(1)):
            return None
        num, den = (-1 if match.group(1) == "-" else 1), 1
        exps = [0] * n
        for a, b, name, k in _PART.findall(match.group(2)):
            k = int(k) if k else 1
            if name:
                exps[slots[name]] += k
            elif b and not int(b) or k > 1 and _power(Q(int(a), int(b or 1)), k) is None:
                return None
            else:
                num *= int(a) ** k
                den *= int(b or 1) ** k
        if num:
            key = tuple(exps)
            acc = terms.get(key)
            acc = terms[key] = Q(num, den) if acc is None else acc + Q(num, den)
            if not acc:
                del terms[key]
        pos = match.end()
        if pos == len(text):
            return n, terms


def _parser(text, n):
    tokens = tokenize(text)
    names = (value for kind, value, _ in tokens if kind == "var")
    return _Parser(tokens, _arity(names, n, text))


def parse_poly(text, n=None):
    """Parse the flat term grammar into a canonical SparsePoly.  Text the
    flat reader refuses is tokenized to report the error
    (`_Parser.flat_error`)."""
    read = _flat_terms(text, n)
    if read is None:
        _parser(text, n).flat_error()
    return SparsePoly(*read)


def parse_product(text, n=None):
    """Parse the extended grammar with parentheses and products (--expand)."""
    parser = _parser(text, n)
    poly = parser.parse_sum()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % value, pos)
    return poly


def _var_name(slot, reserved):
    if reserved:
        return "xyt"[slot]
    return "z%d" % (slot + 1)


def render_poly(f, reserved=False):
    """Canonical text form; graded-lex descending term order.

    reserved=True uses the x,y,t names of 3-variable grids; the default
    uses z1..zn.
    """
    if f.is_zero():
        return "0"
    parts = []
    from .sparse import grlex_key

    for exps in sorted(f.terms, key=grlex_key, reverse=True):
        coeff = f.terms[exps]
        mono = "*".join(
            _var_name(i, reserved) + ("^%d" % e if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        )
        num = coeff if coeff > 0 else -coeff
        mag = str(num)
        if mono:
            body = mono if mag == "1" else "%s*%s" % (mag, mono)
        else:
            body = mag
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
