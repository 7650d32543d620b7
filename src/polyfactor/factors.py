"""Factor lists: (irreducible, multiplicity) pairs plus a scalar unit.

Each factor is normalized so its graded-lex leading coefficient is 1; the
stripped content is absorbed into the scalar.  Factor order is canonical
(degree, then sorted term tables), so equal factorizations compare equal.
"""

from dataclasses import dataclass

from .rational import Q
from .sparse import SparsePoly, grlex_key
from .parse import render_poly
from .errors import PolyError


def factor_sort_key(f):
    items = sorted(f.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    return (
        f.degree() or 0,
        tuple((exps, str(c)) for exps, c in items),
    )


@dataclass(frozen=True)
class FactorList:
    scalar: object
    factors: tuple  # of (SparsePoly, int)

    @classmethod
    def build(cls, scalar, pairs):
        """Normalize, merge associates, sort canonically."""
        scalar = Q(scalar)
        merged = {}
        for poly, mult in pairs:
            if mult <= 0:
                raise ValueError("multiplicity must be positive")
            canon, unit = poly.canonical_with_unit()
            scalar = scalar * unit**mult
            merged[canon] = merged.get(canon, 0) + mult
        ordered = tuple(
            (poly, merged[poly]) for poly in sorted(merged, key=factor_sort_key)
        )
        return cls(scalar, ordered)

    def recompose(self):
        """scalar * product(factor^mult); equals the input when complete
        (a univariate constant when there are no factors)."""
        n = self.factors[0][0].n if self.factors else 1
        total = SparsePoly.const(n, self.scalar)
        for poly, mult in self.factors:
            total = total * poly**mult
        return total

    def to_json_dict(self):
        return {
            "scalar": str(self.scalar),
            "factors": [
                {"poly": render_poly(poly), "multiplicity": mult}
                for poly, mult in self.factors
            ],
        }


def divide_out(f, g):
    """(f / g^count, count) with count the largest power of g dividing f,
    found by repeated exact division; for an irreducible g, count is its
    multiplicity in f."""
    if g.is_constant():
        raise PolyError("cannot divide out a constant")
    count = 0
    while True:
        quotient = f.exact_divide(g)
        if quotient is None:
            return f, count
        f = quotient
        count += 1
