"""Exact sparse multivariate polynomials over Q.

A polynomial is a term table mapping exponent tuples (one slot per variable,
variable i of z1..zn at slot i-1) to nonzero rational coefficients.  Values
are immutable after construction; every operation returns a fresh polynomial.

The monomial order used everywhere (leading terms, canonical scaling) is
graded lexicographic: compare total degree first, then the exponent tuple.
"""

import math
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .rational import Q, ZERO, ONE, clear_denominators
from .errors import VariableCountMismatch, ZeroDivisorError


def grlex_key(exps):
    return (sum(exps), exps)


def _packing(n, deg):
    """(bits, pack) for exponent tuples of n slots and total degree at most
    deg.  A key holds one field per slot under a top field with the total
    degree, so int order is graded lex and, while totals stay <= deg,
    adding keys multiplies monomials.  Each field has a free top bit."""
    bits = deg.bit_length() + 1

    def pack(exps):
        key = sum(exps)
        for e in exps:
            key = (key << bits) | e
        return key

    return bits, pack


def _mul_into(acc, a, b):
    """acc += a * b on {packed key: int} tables; returns acc."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            acc[key] = get(key, 0) + c1 * c2
    return acc


def _int_table(poly, pack=None):
    """({key: int}, den) with poly == table / den, keyed by pack(exps) or,
    without pack, by the exponent tuples: the one reader from Q to Z."""
    ints, den = clear_denominators(poly.terms.values())
    return dict(zip(poly.terms if pack is None else map(pack, poly.terms), ints)), den


def _from_table(n, table, den, bits=None):
    """The SparsePoly table / den in n variables, keyed by exponent tuples or
    packed with fields of bits (`_packing`): the one builder from Z to Q."""
    keys = table
    if bits is not None:  # each key split by shifts
        field, shifts = (1 << bits) - 1, range(bits * (n - 1), -1, -bits)
        keys = (tuple([k >> s & field for s in shifts]) for k in table)
    return SparsePoly(n, {e: Q(c, den) for e, c in zip(keys, table.values()) if c})


def _tops(table, n):
    """The largest exponent of each of the n variables in table's keys."""
    return [max(col) for col in zip(*table)] if table else [0] * n


def _compose(table, den, tops, images, m):
    """(total, den, bits): table / den, a polynomial read as integers on
    exponent tuples (`_int_table`), with tops = `_tops(table, n)`, composed
    with images[i] = (table_i, den_i), the image of variable i as integers
    over den_i on exponent tuples in m variables (None where tops[i] is 0).
    total / den is the composition on keys packed with fields of bits
    (`_packing`); entries may be 0 and den is not
    reduced.  Each image's powers are tabulated once, up to top_i, as
    (den_i * image_i)^e; a term with exponent e of variable i is scaled by
    den_i^(top_i - e), so every term shares den * prod den_i^top_i, and
    each term's expansion lands in one table."""
    img_degs = [
        max(map(sum, image[0]), default=0) if top else 0 for image, top in zip(images, tops)
    ]
    deg = max((sum(e * d for e, d in zip(exps, img_degs)) for exps in table), default=0)
    bits, pack = _packing(m, deg)
    powers = []
    scales = []
    for image, top in zip(images, tops):
        if not top:
            powers.append(None)
            scales.append(None)
            continue
        img, img_den = image
        packed = {pack(e): c for e, c in img.items()}
        power = [{0: 1}, packed]
        while len(power) <= top:
            power.append(_mul_into({}, power[-1], packed))
        powers.append(power)
        scales.append(None if img_den == 1 else [img_den ** (top - e) for e in range(top + 1)])
        den *= img_den**top
    total = {}
    for exps, c in table.items():
        factors = []
        for i, e in enumerate(exps):
            if scales[i] is not None:
                c *= scales[i][e]
            if e:
                factors.append(powers[i][e])
        part = {0: c}
        for power in factors[:-1]:
            part = _mul_into({}, part, power)
        _mul_into(total, part, factors[-1] if factors else {0: 1})
    return total, den, bits


class SparsePoly:
    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n, terms):
        """Build from a variable count and a {exponents: coefficient} map.

        Zero coefficients are dropped; exponent tuples must have length n.
        """
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise VariableCountMismatch(
                    "exponent tuple %r does not match n=%d" % (exps, n)
                )
            if coeff:
                clean[tuple(exps)] = coeff
        self.n = n
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, c):
        c = Q(c)
        if not c:
            return cls(n, {})
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        """The variable z_i (1-based), as a polynomial in n variables."""
        if not 1 <= i <= n:
            raise IndexError("variable index %d out of range 1..%d" % (i, n))
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): ONE})

    @classmethod
    def linear(cls, coeffs, constant=ZERO):
        """c_1 z_1 + ... + c_m z_m + constant, with m = len(coeffs)."""
        m = len(coeffs)
        terms = {(0,) * m: Q(constant)}
        for j, c in enumerate(coeffs):
            terms[(0,) * j + (1,) + (0,) * (m - j - 1)] = Q(c)
        return cls(m, terms)

    @classmethod
    def monomial(cls, n, exps, coeff=ONE):
        return cls(n, {tuple(exps): Q(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.n, ZERO)

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        """Degree in variable var (1-based); None for the zero polynomial."""
        if not 1 <= var <= self.n:
            raise IndexError("variable index %d out of range 1..%d" % (var, self.n))
        if not self.terms:
            return None
        return max(e[var - 1] for e in self.terms)

    def sparsity(self):
        return len(self.terms)

    def var_support(self):
        """Indices (1-based) of variables the polynomial depends on."""
        support = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    support.add(i + 1)
        return support

    def leading_term(self):
        """(exponents, coefficient) maximal under graded lex; None if zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def leading_coefficient(self):
        lt = self.leading_term()
        return ZERO if lt is None else lt[1]

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.n, frozenset(self.terms.items())))
            )
        return self._hash

    def __setattr__(self, name, value):
        if hasattr(self, "_hash") and name != "_hash":
            raise AttributeError("SparsePoly is immutable")
        object.__setattr__(self, name, value)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .parse import render_poly

        return "SparsePoly(%d, %s)" % (self.n, render_poly(self))

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise VariableCountMismatch(
                "variable counts differ: %d vs %d" % (self.n, other.n)
            )

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return SparsePoly(self.n, terms)

    def __neg__(self):
        return SparsePoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product on the packed-integer kernel: denominators cleared once,
        one rational per output term."""
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.n)
        bits, pack = _packing(self.n, self.degree() + other.degree())
        a, a_den = _int_table(self, pack)
        b, b_den = _int_table(other, pack)
        return _from_table(self.n, _mul_into({}, a, b), a_den * b_den, bits)

    def scale(self, c):
        c = Q(c)
        if not c:
            return SparsePoly.zero(self.n)
        return SparsePoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k):
        """Square-and-multiply on the packed-integer kernel."""
        if k < 0:
            raise ValueError("negative power")
        bits, pack = _packing(self.n, k * (self.degree() or 0))
        base, den = _int_table(self, pack)
        den **= k
        result = {0: 1}
        while k:
            if k & 1:
                result = _mul_into({}, result, base)
            k >>= 1
            if k:
                base = _mul_into({}, base, base)
        return _from_table(self.n, result, den, bits)

    # -- calculus and structure ---------------------------------------------

    def hom_component(self, k):
        """Sum of the total-degree-k terms."""
        if k < 0:
            raise ValueError("negative degree")
        return SparsePoly(
            self.n, {e: c for e, c in self.terms.items() if sum(e) == k}
        )

    def derivative(self, var, order=1):
        """order-th partial derivative in variable var (1-based)."""
        if not 1 <= var <= self.n:
            raise IndexError("variable index %d out of range 1..%d" % (var, self.n))
        if order < 0:
            raise ValueError("negative derivative order")
        result = self
        for _ in range(order):
            terms = {}
            i = var - 1
            for exps, coeff in result.terms.items():
                e = exps[i]
                if e:
                    reduced = exps[:i] + (e - 1,) + exps[i + 1 :]
                    acc = terms.get(reduced)
                    add = coeff * e
                    terms[reduced] = add if acc is None else acc + add
            result = SparsePoly(self.n, terms)
            if result.is_zero():
                break
        return result

    def eval_point(self, point):
        """Evaluate at a rational point (sequence of length n) in one pass."""
        if len(point) != self.n:
            raise VariableCountMismatch("point arity %d != %d" % (len(point), self.n))
        return self.eval_vars(dict(enumerate(point, 1))).constant_value()

    def substitute(self, assignment, m=None):
        """Compose with an assignment mapping each variable to a polynomial.

        assignment: sequence of length n of SparsePoly over a common variable
        count m (taken from the first entry when m is None).  Constants are
        also accepted.  This is the one change-of-variables kernel: self and
        every image are read into integers once (`_int_table`), the integer
        core `_compose` expands them, and each output coefficient becomes a
        rational once (`_from_table`).
        """
        if len(assignment) != self.n:
            raise VariableCountMismatch(
                "assignment covers %d of %d variables" % (len(assignment), self.n)
            )
        if m is None:
            for img in assignment:
                if isinstance(img, SparsePoly):
                    m = img.n
                    break
            if m is None:
                raise ValueError("cannot infer target variable count")
        images = []
        for img in assignment:
            if isinstance(img, SparsePoly):
                if img.n != m:
                    raise VariableCountMismatch("assignment entries disagree on n")
                images.append(img)
            else:
                images.append(SparsePoly.const(m, img))
        table, den = _int_table(self)
        tops = _tops(table, self.n)
        images = [_int_table(img) if top else None for img, top in zip(images, tops)]
        return _from_table(m, *_compose(table, den, tops, images, m))

    def shift(self, offsets, scale=1):
        """Translate z_i -> scale * z_i + offsets[i]."""
        if scale == 1 and not any(offsets):
            return self
        n = self.n
        return self.substitute(
            [
                SparsePoly.linear([scale if j == i else 0 for j in range(n)], off)
                for i, off in enumerate(offsets)
            ],
            m=n,
        )

    def eval_var(self, var, value):
        """Substitute z_var := value (1-based) and drop the slot."""
        return self.eval_vars({var: value})

    def eval_vars(self, values):
        """Substitute z_var := value (1-based) for each var of the map and
        drop those slots, in one pass on integers: with self = F / den and
        value = a / b, z_var^e becomes a^e * b^(top - e) over den * b^top,
        top the largest exponent of z_var; each output becomes Q once."""
        table, den = _int_table(self)
        powers = []  # (slot, {exponent e: a^e * b^(top - e)})
        for var, value in values.items():
            if not 1 <= var <= self.n:
                raise IndexError("variable index %d out of range 1..%d" % (var, self.n))
            value = Q(value)
            a, b = int(value.numerator), int(value.denominator)
            col = {exps[var - 1] for exps in table}
            top = max(col, default=0)
            powers.append((var - 1, {e: a**e * b ** (top - e) for e in col}))
            den *= b**top
        keep = [i for i in range(self.n) if i + 1 not in values]
        if len(keep) > 1:
            rest = itemgetter(*keep)
        else:  # itemgetter would return a lone slot bare; a slice keeps a tuple
            rest = itemgetter(slice(keep[0], keep[0] + 1) if keep else slice(0))
        total = {}
        get = total.get
        for exps, c in table.items():
            for i, power in powers:
                c *= power[exps[i]]
            if c:
                key = rest(exps)
                total[key] = get(key, 0) + c
        return _from_table(len(keep), total, den)

    def map_variables(self, positions, m):
        """Re-embed into m variables, sending slot i to slot positions[i]."""
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * m
            for i, e in enumerate(exps):
                if e:
                    new[positions[i]] += e
            terms[tuple(new)] = terms.get(tuple(new), ZERO) + coeff
        return SparsePoly(m, terms)

    # -- division ------------------------------------------------------------

    def exact_divide(self, g):
        """Quotient h with self = g*h, or None when g does not divide.

        Single-divisor division by leading-term elimination under graded
        lex, run over Z by Gauss's lemma: the dividend is scaled to integer
        coefficients and the divisor to a primitive integer polynomial, so
        the integer quotient exists exactly when a rational one does, and a
        quotient coefficient that is not an integer already proves that g
        does not divide.  Monomials are packed into ints whose order is
        graded lex and whose sum is the monomial product; the remainder's
        leading term comes off a max-heap of its keys (Johnson 1974; Monagan
        & Pearce, JSC 2011).  The quotient is scaled back to Q once.
        """
        if not isinstance(g, SparsePoly):
            raise TypeError("divisor must be a SparsePoly")
        self._check(g)
        if g.is_zero():
            raise ZeroDivisorError("division by the zero polynomial")
        if self.is_zero():
            return SparsePoly.zero(self.n)
        deg = self.degree()
        if g.degree() > deg:
            return None
        # Every remainder and quotient exponent is at most deg, so each
        # field keeps its free top bit: a field-wise lt(g) | lt(r) test is
        # then one subtraction, borrowing into no neighbouring field.
        n = self.n
        bits, pack = _packing(n, deg)
        guard = 0
        for _ in range(n + 1):
            guard = (guard << bits) | (1 << (bits - 1))
        rem, f_den = _int_table(self, pack)
        g_table, g_den = _int_table(g, pack)
        content = math.gcd(*g_table.values())
        divisor = sorted(
            ((key, c // content) for key, c in g_table.items()), reverse=True
        )
        lt_key, lt_coeff = divisor[0]
        tail = divisor[1:]  # q * lt(g) cancels the popped term exactly
        heap = [-key for key in rem]
        heapify(heap)
        quot = {}
        while heap:
            key = -heappop(heap)
            coeff = rem.pop(key, None)
            if coeff is None:  # cancelled after it was pushed
                continue
            if ((key | guard) - lt_key) & guard != guard:
                return None
            q_coeff, r = divmod(coeff, lt_coeff)
            if r:
                return None
            q_key = key - lt_key
            quot[q_key] = g_den * q_coeff
            for key2, c2 in tail:
                key = q_key + key2
                acc = rem.get(key)
                if acc is None:
                    rem[key] = -q_coeff * c2
                    heappush(heap, -key)
                else:
                    acc -= q_coeff * c2
                    if acc:
                        rem[key] = acc
                    else:
                        del rem[key]
        # h = quot / (f_den * content), quot's entries scaled by g_den
        return _from_table(n, quot, f_den * content, bits)

    # -- normalization -------------------------------------------------------

    def canonical(self):
        """Scale so the graded-lex leading coefficient is 1."""
        lt = self.leading_term()
        if lt is None or lt[1] == ONE:
            return self
        inv = ONE / lt[1]
        return SparsePoly(self.n, {e: c * inv for e, c in self.terms.items()})

    def canonical_with_unit(self):
        """(canonical polynomial, unit) with unit * canonical == self."""
        lt = self.leading_term()
        if lt is None:
            return self, ONE
        return self.canonical(), lt[1]

    def integer_root(self, k):
        """Monic-leading k-th root if self is an exact k-th power, else None."""
        if k == 1:
            return self
        if self.is_zero():
            return self
        d = self.degree()
        if d % k:
            return None
        lt_exps, lt_coeff = self.leading_term()
        if any(e % k for e in lt_exps) or lt_coeff != ONE:
            return None
        root_lt = tuple(e // k for e in lt_exps)
        root = SparsePoly(self.n, {root_lt: ONE})
        remainder = self - root**k
        # Descending graded-lex recovery: the top term of the residual is
        # k * LT(root)^(k-1) * (next missing root term), with no cancellation
        # possible at that key.  Iterations are bounded by the monomial count
        # of the candidate root's degree range.
        max_iters = math.comb(d // k + self.n, self.n) + 1
        guard = 0
        lead_part = tuple(e * (k - 1) for e in root_lt)
        while remainder:
            guard += 1
            if guard > max_iters:
                return None
            r_exps = max(remainder.terms, key=grlex_key)
            q_exps = tuple(a - b for a, b in zip(r_exps, lead_part))
            if any(e < 0 for e in q_exps):
                return None
            if grlex_key(q_exps) >= grlex_key(root_lt):
                return None
            coeff = remainder.terms[r_exps] / k
            root = root + SparsePoly.monomial(self.n, q_exps, coeff)
            remainder = self - root**k
        return root
