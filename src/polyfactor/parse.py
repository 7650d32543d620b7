"""Text polynomial grammar shared by the CLI and test fixtures.

Terms joined by + and -, a term being [coeff][*var^exp ...].  Coefficients
are integers or a/b fractions, variables are z1..zN plus the reserved names
x, y, t.  Whitespace is insignificant.  Example:

    3*z1^2*z2 - 5/7*z3 + 1

parse_product additionally accepts parenthesized products and powers of the
base grammar, e.g. "(z1+z2)^2*(z1-1)"; the CLI exposes it as --expand.
"""

import re

from .rational import Q
from .sparse import SparsePoly
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


def infer_arity(tokens):
    """Variable count implied by the tokens' mention set: max z index, or
    the reserved-name convention (x,y,t -> slots 0,1,2) when only those
    occur."""
    zmax = 0
    reserved = False
    for kind, value, _ in tokens:
        if kind == "var":
            if value in RESERVED:
                reserved = True
            else:
                zmax = max(zmax, int(value[1:]))
    if reserved:
        if zmax:
            raise ParseError("cannot mix reserved names with z-variables", 0)
        return 3
    return max(zmax, 1)


def _var_slot(name, n, pos):
    if name in RESERVED:
        slot = RESERVED[name]
        if slot >= n:
            raise ParseError("variable %s needs arity > %d" % (name, slot), pos)
        return slot
    index = int(name[1:])
    if index < 1 or index > n:
        raise ParseError("variable %s out of range 1..%d" % (name, n), pos)
    return index - 1


def _number(value, pos):
    num, _, den = value.partition("/")
    if den and not int(den):
        raise ParseError("zero denominator in %s" % value, pos)
    return Q(int(num), int(den or 1))


class _Parser:
    """parse_terms reads the flat grammar; parse_sum the extended one, on
    the SparsePoly kernel."""

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

    def parse_terms(self):
        """The flat grammar straight to a term table: each term's exponent
        list and coefficient are built directly, and like terms are summed
        in one dict (a cancelled term leaves it, as under SparsePoly +)."""
        n = self.n
        terms = {}
        sign = self.sign() or 1
        while True:
            exps = [0] * n
            coeff = Q(sign)
            while True:
                kind, value, pos = self.next()
                if kind == "number":
                    coeff *= _number(value, pos) ** self.exponent()
                elif kind == "var":
                    slot = _var_slot(value, n, pos)
                    exps[slot] += self.exponent()
                else:
                    raise ParseError(
                        "unexpected token %r" % (value or "end of input"), pos
                    )
                kind, value, _ = self.peek()
                if kind != "op" or value != "*":
                    break
                self.next()
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
            sign = self.sign()
            if sign is None:
                return SparsePoly(n, terms)

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
        factors = [self.parse_factor()]
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                factors.append(self.parse_factor())
            elif kind in ("var", "number") or (kind == "op" and value == "("):
                # implicit product inside --expand expressions
                factors.append(self.parse_factor())
            else:
                break
        result = factors[0]
        for f in factors[1:]:
            result = result * f
        return result

    def parse_factor(self):
        base = self.parse_atom()
        k = self.exponent()
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


def _parse(text, n, products):
    tokens = tokenize(text)
    if n is None:
        n = infer_arity(tokens)
    parser = _Parser(tokens, n)
    poly = parser.parse_sum() if products else parser.parse_terms()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % value, pos)
    return poly


def parse_poly(text, n=None):
    """Parse the flat term grammar into a canonical SparsePoly."""
    return _parse(text, n, products=False)


def parse_product(text, n=None):
    """Parse the extended grammar with parentheses and products (--expand)."""
    return _parse(text, n, products=True)


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
