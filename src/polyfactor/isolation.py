"""Isolating primes, Kronecker-style weight maps, and the three-variable
projection that preserves low-degree factors.

A scheme carries two weight vectors: w drives the substitution
z_i -> y^{w_i} t + y^{w'_i} and w' alone determines the t=0 slice used for
inversion, so both must map the monomials of degree <= delta injectively.
The prime p certifies the reduction step of the weight construction.

Two constructions are kept.  The factoring engine projects on the compact
scheme: greedily chosen minimal weights, which keep the trivariate images'
degrees as small as the separation floor allows.  The reduced-power scheme
w_i = (delta+1)^(i-1) mod p, for the smallest prime p that keeps the map
injective, serves CLI `isolate` and the `apply_phi` worked example.
Neither is sized by the paper's analytic bound, which is far beyond desk
scale: the engine keeps only candidates that divide its residual exactly,
so a scheme can cost completeness, never correctness.
"""

import json
from dataclasses import dataclass

from .rational import ONE, primes
from .sparse import SparsePoly
from .dense import DensePoly3
from .errors import NotInCodomain, PolyError


def monomials_up_to(n, delta):
    """Exponent tuples of total degree <= delta in n variables."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], n, delta)
    return out


def weights_injective(weights, delta, modulus=None):
    """Whether e -> sum(e_i w_i) (mod modulus) separates M_delta."""
    monos = monomials_up_to(len(weights), delta)
    seen = set()
    for e in monos:
        v = sum(ei * wi for ei, wi in zip(e, weights))
        if modulus is not None:
            v %= modulus
        if v in seen:
            return False
        seen.add(v)
    return True


@dataclass(frozen=True)
class IsolationScheme:
    n: int
    delta: int
    p: int
    w: tuple
    w_prime: tuple

    def __post_init__(self):
        if not weights_injective(self.w, self.delta):
            raise PolyError("w is not injective on the bounded monomials")
        if not weights_injective(self.w_prime, self.delta):
            raise PolyError("w' is not injective on the bounded monomials")

    def monomial_table(self, primary=True):
        """Invertible map sum(e*w) -> e over M_delta (w' when primary=False)."""
        weights = self.w if primary else self.w_prime
        table = {}
        for e in monomials_up_to(self.n, self.delta):
            table[sum(ei * wi for ei, wi in zip(e, weights))] = e
        return table

    def image_degree_bounds(self):
        """(x, y, t) degree bounds of psi_map's image of any polynomial of
        total degree <= delta in (x, z): a term x^a z^e with a + |e| <= delta
        maps into y-degree <= |e| W, W the largest weight of w and w', and
        t-degree <= |e|."""
        return (self.delta, self.delta * max(self.w + self.w_prime), self.delta)

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "delta": self.delta,
                "p": self.p,
                "w": list(self.w),
                "w_prime": list(self.w_prime),
            }
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(
            data["n"],
            data["delta"],
            data["p"],
            tuple(data["w"]),
            tuple(data["w_prime"]),
        )


def find_isolating_prime(n, delta, extra_capacity=1):
    """Smallest prime p making w_i = (delta+1)^(i-1) mod p injective on the
    degree-<=delta monomials, scanning upward; extra_capacity > 1 starts the
    scan there so all bounded-degree factors of a degree-d polynomial stay
    separated simultaneously."""
    if n < 1 or delta < 1:
        raise ValueError("need n >= 1 and delta >= 1")
    for p in primes(extra_capacity):
        w = tuple(pow(delta + 1, i, p) for i in range(n))
        if weights_injective(w, delta, modulus=p):
            if n == 1:
                wp = (w[0] + 1,)
            else:
                wp = tuple(reversed(w))
            return IsolationScheme(n, delta, p, w, wp)
    raise AssertionError("unreachable: a valid prime always exists")


def compact_scheme(n, delta):
    """Greedy minimal weight vector injective on M_delta, paired with its
    reversal; keeps dense-grid degrees as small as the separation floor
    allows.  Each weight c is the least above the last that keeps the map
    injective: with the sums so far kept per total degree d, every s + k c
    (1 <= k <= delta - d) must miss them, which also rules out a clash
    between two new monomials (subtract their common power of c)."""
    w = []
    sums = [{0}] + [set() for _ in range(delta)]  # total degree -> weight sums
    for _ in range(n):
        taken = set().union(*sums)
        c = (w[-1] + 1) if w else 1
        while any(
            s + k * c in taken
            for d, level in enumerate(sums)
            for s in level
            for k in range(1, delta - d + 1)
        ):
            c += 1
        w.append(c)
        sums = [
            {s + k * c for k in range(d + 1) for s in sums[d - k]}
            for d in range(delta + 1)
        ]
    w = tuple(w)
    wp = (w[0] + 1,) if n == 1 else tuple(reversed(w))
    p = next(primes(w[-1] * delta + 1))
    return IsolationScheme(n, delta, p, w, wp)


# ---------------------------------------------------------------------------
# the maps


def apply_phi(f, scheme, x_vars=0):
    """Substitute z_i -> y^{w_i}; the first x_vars variables pass through."""
    if f.n != x_vars + scheme.n:
        raise PolyError("variable count does not match the scheme")
    m = x_vars + 1
    assignment = [SparsePoly.variable(m, j) for j in range(1, m)] + [
        SparsePoly.monomial(m, (0,) * x_vars + (wi,)) for wi in scheme.w
    ]
    return f.substitute(assignment, m=m)


def recover_from_phi(h, scheme, x_vars=0):
    """Unique preimage of degree <= scheme.delta under apply_phi;
    NotInCodomain on a y-exponent outside the scheme's monomial table."""
    if h.n != x_vars + 1:
        raise PolyError("image must have exactly one y variable")
    table = scheme.monomial_table(primary=True)
    terms = {}
    for exps, c in h.terms.items():
        yexp = exps[x_vars]
        e = table.get(yexp)
        if e is None:
            raise NotInCodomain("y-exponent %d not in the bounded table" % yexp)
        terms[exps[:x_vars] + e] = c
    return SparsePoly(x_vars + scheme.n, terms)


def psi_map(f, scheme, max_cells=None):
    """g(x, z) -> g(x, y^{w_i} t + y^{w'_i}) as a dense (x, y, t) grid."""
    if f.n != scheme.n + 1:
        raise PolyError("expected variables (x, z_1..z_n)")
    assignment = [SparsePoly.variable(3, 1)] + [
        SparsePoly(3, {(0, wi, 1): ONE, (0, wpi, 0): ONE})
        for wi, wpi in zip(scheme.w, scheme.w_prime)
    ]
    image = f.substitute(assignment, m=3)
    bounds = [max(col) for col in zip(*image.terms)] or [0, 0, 0]
    grid = DensePoly3.zeros(tuple(bounds), max_cells=max_cells)
    for (i, j, k), c in image.terms.items():
        grid.coeffs[i][j][k] = c
    return grid


def psi_invert(h, scheme, delta):
    """Invert psi_map on a monic-in-x grid with deg_x <= delta.

    Sets t = 0, reads each x^k y^j monomial back through the w' table, and
    verifies the candidate maps exactly onto h; anything else raises
    NotInCodomain.
    """
    degs = h.true_degrees()
    if degs is None:
        raise NotInCodomain("zero grid")
    dx = degs[0]
    if dx > delta:
        raise NotInCodomain("x-degree exceeds the bound")
    table = scheme.monomial_table(primary=False)
    terms = {}
    for i in range(dx + 1):
        for j, row in enumerate(h.coeffs[i]):
            c = row[0]
            if not c:
                continue
            e = table.get(j)
            if e is None:
                raise NotInCodomain("slice monomial y^%d has no preimage" % j)
            terms[(i,) + e] = c
    candidate = SparsePoly(scheme.n + 1, terms)
    if psi_map(candidate, scheme) != h:
        raise NotInCodomain("verification against the full image failed")
    return candidate
