"""Kronecker-style weight maps and the three-variable projection that
preserves low-degree factors.

A scheme carries two weight vectors: w drives the substitution
z_i -> y^{w_i} t + y^{w'_i} and w' alone determines the t=0 slice used for
inversion, so both must map the monomials of degree <= delta injectively.

One construction is kept, `compact_scheme`: greedily chosen minimal
weights, which keep the trivariate images' degrees as small as the
separation floor allows, paired with their reversal.  The factoring engine,
the constant-degree oracle, CLI `isolate` and the `apply_phi` worked
example all use it.  It is not sized by the paper's analytic bound, which
is far beyond desk scale: the engine keeps only candidates that divide its
residual exactly, so a scheme can cost completeness, never correctness.
"""

import json
from dataclasses import dataclass
from functools import cache
from math import prod

from .sparse import SparsePoly, _compose, _from_table, _int_table, _tops
from .dense import DensePoly3
from .errors import CapError, NotInCodomain, PolyError


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


def _weight(e, weights):
    return sum(ei * wi for ei, wi in zip(e, weights))


def weights_injective(weights, delta):
    """Whether e -> sum(e_i w_i) separates M_delta."""
    sums = [_weight(e, weights) for e in monomials_up_to(len(weights), delta)]
    return len(set(sums)) == len(sums)


@dataclass(frozen=True)
class IsolationScheme:
    n: int
    delta: int
    w: tuple
    w_prime: tuple

    def __post_init__(self):
        if not weights_injective(self.w, self.delta):
            raise PolyError("w is not injective on the bounded monomials")
        if not weights_injective(self.w_prime, self.delta):
            raise PolyError("w' is not injective on the bounded monomials")

    def image_degree_bounds(self):
        """(x, y, t) degree bounds of psi_map's image of any polynomial of
        total degree <= delta in (x, z): a term x^a z^e with a + |e| <= delta
        maps into y-degree <= |e| W, W the largest weight of w and w', and
        t-degree <= |e|.  They are proportional, as `factor_candidates(f,
        bounds)` requires: a polynomial of total degree a <= delta maps
        within (a, a W, a)."""
        return (self.delta, self.delta * max(self.w + self.w_prime), self.delta)

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "delta": self.delta,
                "w": list(self.w),
                "w_prime": list(self.w_prime),
            }
        )


@cache
def compact_scheme(n, delta):
    """Greedy minimal weight vector injective on M_delta, paired with its
    reversal; keeps dense-grid degrees as small as the separation floor
    allows; built once per (n, delta) and shared, as a scheme is frozen.
    Each weight c is the least above the last that keeps the map injective:
    with the sums so far kept per total degree d, every s + k c (1 <= k <=
    delta - d) must miss them, which also rules out a clash between two new
    monomials (subtract their common power of c)."""
    if n < 1 or delta < 1:
        raise ValueError("need n >= 1 and delta >= 1")
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
    return IsolationScheme(n, delta, w, wp)


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


@cache
def _weight_table(weights, delta):
    """y-exponent -> its monomial of degree <= delta under z_i -> y^{weights_i}."""
    return {_weight(e, weights): e for e in monomials_up_to(len(weights), delta)}


def _read_back(terms, scheme, weights, y_slot):
    """The polynomial whose image under z_i -> y^{weights_i} has the given
    (exponents, coefficient) terms: the slots before y_slot pass through and
    the y-exponent is read back through `_weight_table`; NotInCodomain when
    it has no monomial of degree <= scheme.delta there."""
    table = _weight_table(weights, scheme.delta)
    out = {}
    for exps, c in terms:
        e = table.get(exps[y_slot])
        if e is None:
            raise NotInCodomain("y^%d has no bounded-degree preimage" % exps[y_slot])
        out[exps[:y_slot] + e] = c
    return SparsePoly(y_slot + scheme.n, out)


def recover_from_phi(h, scheme, x_vars=0):
    """Unique preimage of degree <= scheme.delta under apply_phi;
    NotInCodomain on a y-exponent outside the scheme's monomial table."""
    if h.n != x_vars + 1:
        raise PolyError("image must have exactly one y variable")
    return _read_back(h.terms.items(), scheme, scheme.w, x_vars)


def psi_images(scheme, alpha):
    """The images z_i -> alpha_i x + y^{w_i} t + y^{w'_i} in (x, y, t), as
    integers over one denominator each (`sparse._compose`), alpha_i = a / d
    giving (a x + d y^{w_i} t + d y^{w'_i}) / d: the one psi formula, with
    alpha = 0 for psi itself and the monic shift's alpha for its image."""
    images = []
    for a, wi, wpi in zip(alpha, scheme.w, scheme.w_prime):
        d = int(a.denominator)
        terms = (((1, 0, 0), int(a.numerator)), ((0, wi, 1), d), ((0, wpi, 0), d))
        images.append(({e: c for e, c in terms if c}, d))
    return images


def psi_read_back(h, scheme):
    """The g(z) with g(y^{w'}) = h's x- and t-free terms, read back through
    the w' table; NotInCodomain on a y-exponent with no preimage of degree
    <= scheme.delta.  For the image h of g(alpha x + z) these terms are
    g(y^{w'}), since x = t = 0 leaves z_i -> y^{w'_i}."""
    free = (((j,), c) for (i, j, k), c in h.terms.items() if not i and not k)
    return _read_back(free, scheme, scheme.w_prime, 0)


def _psi_image(f, scheme):
    """g(x, z) -> g(x, y^{w_i} t + y^{w'_i}) as a SparsePoly in (x, y, t)."""
    table, den = _int_table(f)
    images = [({(1, 0, 0): 1}, 1)] + psi_images(scheme, (0,) * scheme.n)
    return _from_table(3, *_compose(table, den, _tops(table, f.n), images, 3))


def check_image_cells(x_degree, z_exponents, scheme, max_cells):
    """CapError when psi's image of a polynomial of x-degree x_degree whose
    terms have the z-exponent vectors z_exponents would fill a box of more
    than max_cells (x, y, t) cells; None means no cap.  A term x^a z^e maps
    within x-degree a, y-degree sum(e_i max(w_i, w'_i)) and t-degree |e|."""
    if max_cells is None:
        return
    top = [max(pair) for pair in zip(scheme.w, scheme.w_prime)]
    reach = [(_weight(e, top), sum(e)) for e in z_exponents]
    cells = (x_degree + 1) * prod(max(col) + 1 for col in zip(*reach)) if reach else 1
    if cells > max_cells:
        raise CapError("max_dense_cells", cells, max_cells)


def psi_map(f, scheme, max_cells=None):
    """g(x, z) -> g(x, y^{w_i} t + y^{w'_i}) as a dense (x, y, t) grid.

    The image's box is bounded before substituting (`check_image_cells`),
    and a box beyond max_cells raises CapError at once.  Public API that no
    pipeline calls: the constant-degree pipeline composes the monic shift
    with this map in one substitution read into integers
    (`engine._psi_reading`)."""
    if f.n != scheme.n + 1:
        raise PolyError("expected variables (x, z_1..z_n)")
    check_image_cells(f.degree_in(1) or 0, [e[1:] for e in f.terms], scheme, max_cells)
    image = _psi_image(f, scheme)
    bounds = [max(col) for col in zip(*image.terms)] or [0, 0, 0]
    grid = DensePoly3.zeros(tuple(bounds))
    for (i, j, k), c in image.terms.items():
        grid.coeffs[i][j][k] = c
    return grid


def psi_invert(h, scheme, delta):
    """Invert psi_map on a monic-in-x grid with deg_x <= delta.

    Converts h to sparse terms once, sets t = 0, reads each x^k y^j monomial
    back through the w' table, and verifies that the candidate's image is
    exactly those terms; anything else raises NotInCodomain.
    """
    image = h.to_sparse()
    if image.is_zero():
        raise NotInCodomain("zero grid")
    if image.degree_in(1) > delta:
        raise NotInCodomain("x-degree exceeds the bound")
    slice0 = ((exps, c) for exps, c in image.terms.items() if not exps[2])
    candidate = _read_back(slice0, scheme, scheme.w_prime, 1)
    if _psi_image(candidate, scheme) != image:
        raise NotInCodomain("verification against the full image failed")
    return candidate
