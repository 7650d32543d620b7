"""Dense grid conversions."""

import pytest

from polyfactor.dense import DensePoly3, to_dense
from polyfactor.parse import parse_poly
from polyfactor.sparse import SparsePoly
from polyfactor.errors import CapError, VariableCountMismatch

from conftest import rng_for, random_poly


def test_round_trip_x2_y4():
    f = parse_poly("x^2 - y^4")
    grid = to_dense(f)
    assert grid.bounds == (2, 4, 0)
    assert grid.to_sparse() == f


def test_zero_round_trips_with_marker():
    z = SparsePoly.zero(3)
    grid = to_dense(z)
    assert grid.to_sparse().is_zero()
    assert grid.true_degrees() is None


def test_random_trivariate_round_trips():
    rng = rng_for("dense-round-trip")
    for _ in range(100):
        f = random_poly(rng, 3, 6, 10, ensure_nonzero=False)
        assert to_dense(f).to_sparse() == f


def test_true_degrees_ignore_padding():
    grid = DensePoly3.zeros((3, 3, 3))
    grid.coeffs[1][2][0] = parse_poly("1").constant_value()
    assert grid.true_degrees() == (1, 2, 0)


def test_too_many_variables():
    with pytest.raises(VariableCountMismatch):
        to_dense(SparsePoly.zero(4))


def test_cell_cap():
    f = random_poly(rng_for("dense-cap"), 3, 9, 12)
    with pytest.raises(CapError):
        to_dense(f, max_cells=2)
