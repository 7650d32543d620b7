"""Dense trivariate (x, y, t) coefficient grids over Q.

The grid degenerates to bivariate/univariate through zero dimensions; degree
queries always report true degrees regardless of trailing zero slices.
Variable slots follow the fixed convention x=0, y=1, t=2.
"""

from .rational import ZERO
from .errors import CapError, VariableCountMismatch
from .sparse import SparsePoly


class DensePoly3:
    __slots__ = ("bounds", "coeffs")

    def __init__(self, bounds, coeffs):
        """bounds = (dx, dy, dt) declared degree bounds; coeffs[i][j][k]."""
        dx, dy, dt = bounds
        if len(coeffs) != dx + 1:
            raise ValueError("x dimension mismatch")
        for plane in coeffs:
            if len(plane) != dy + 1:
                raise ValueError("y dimension mismatch")
            for row in plane:
                if len(row) != dt + 1:
                    raise ValueError("t dimension mismatch")
        self.bounds = (dx, dy, dt)
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, bounds, max_cells=None):
        dx, dy, dt = bounds
        cells = (dx + 1) * (dy + 1) * (dt + 1)
        if max_cells is not None and cells > max_cells:
            raise CapError("max_dense_cells", cells, max_cells)
        coeffs = [[[ZERO] * (dt + 1) for _ in range(dy + 1)] for _ in range(dx + 1)]
        return cls(bounds, coeffs)

    def true_degrees(self):
        """(deg_x, deg_y, deg_t) actual degrees, or None if zero."""
        dx = dy = dt = -1
        total = -1
        for i, plane in enumerate(self.coeffs):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c:
                        dx = max(dx, i)
                        dy = max(dy, j)
                        dt = max(dt, k)
                        total = max(total, i + j + k)
        if total < 0:
            return None
        return dx, dy, dt

    def __eq__(self, other):
        if not isinstance(other, DensePoly3):
            return NotImplemented
        return self.to_sparse() == other.to_sparse()

    def __repr__(self):
        return "DensePoly3(bounds=%r)" % (self.bounds,)

    def to_sparse(self):
        """Lossless conversion to a 3-variable SparsePoly (slots x, y, t)."""
        terms = {}
        for i, plane in enumerate(self.coeffs):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c:
                        terms[(i, j, k)] = c
        return SparsePoly(3, terms)


def to_dense(f, max_cells=None):
    """SparsePoly over <=3 variables -> DensePoly3 (missing axes get bound 0)."""
    if f.n > 3:
        raise VariableCountMismatch("dense form holds at most 3 variables")
    degs = [0, 0, 0]
    for exps in f.terms:
        for i, e in enumerate(exps):
            degs[i] = max(degs[i], e)
    grid = DensePoly3.zeros(tuple(degs), max_cells=max_cells)
    for exps, coeff in f.terms.items():
        padded = tuple(exps) + (0,) * (3 - f.n)
        i, j, k = padded
        grid.coeffs[i][j][k] = coeff
    return grid

