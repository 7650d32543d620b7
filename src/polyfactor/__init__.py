"""Deterministic factor extraction for multivariate polynomials over Q.

Everything is exact rational arithmetic; no call path uses randomness, so
identical inputs always produce identical outputs (including factor order).
"""

from .rational import Q
from .sparse import SparsePoly
from .dense import DensePoly3, to_dense
from .factors import FactorList
from .parse import parse_poly, parse_product, render_poly
from .config import Config
from .errors import (
    CapError,
    InterpolationFailure,
    NotInCodomain,
    PolyError,
    PromiseViolation,
    VerificationError,
)
from .pit import (
    find_nonzero_point,
    interpolation_plan,
    sparse_interpolate,
    sparse_pit,
    trivial_hitting_set,
)
from .isolation import (
    IsolationScheme,
    apply_phi,
    compact_scheme,
    psi_invert,
    psi_map,
    recover_from_phi,
)
from .basefactor import (
    factor_lowvar,
    is_irreducible_lowvar,
)
from .divisibility import (
    constant_degree_divides,
    divides_exact,
    divisibility_witness,
)
from .engine import (
    constant_degree_factors,
    factor_constant_degree_promise,
    factor_multiplicity,
    factor_su,
    monicize,
    projected_factoring,
    sparse_factors,
    sparse_irreducible_test,
)
from .oracles import (
    IrredProjOracle,
    constant_degree_oracle,
    su_is_irreducible_by_support,
    su_membership,
    su_oracle,
)

__all__ = [
    "Q",
    "SparsePoly",
    "DensePoly3",
    "to_dense",
    "FactorList",
    "parse_poly",
    "parse_product",
    "render_poly",
    "Config",
    "CapError",
    "InterpolationFailure",
    "NotInCodomain",
    "PolyError",
    "PromiseViolation",
    "VerificationError",
    "find_nonzero_point",
    "interpolation_plan",
    "sparse_interpolate",
    "sparse_pit",
    "trivial_hitting_set",
    "IsolationScheme",
    "apply_phi",
    "compact_scheme",
    "psi_invert",
    "psi_map",
    "recover_from_phi",
    "factor_lowvar",
    "is_irreducible_lowvar",
    "constant_degree_divides",
    "divides_exact",
    "divisibility_witness",
    "constant_degree_factors",
    "factor_constant_degree_promise",
    "factor_multiplicity",
    "factor_su",
    "monicize",
    "projected_factoring",
    "sparse_factors",
    "sparse_irreducible_test",
    "IrredProjOracle",
    "constant_degree_oracle",
    "su_is_irreducible_by_support",
    "su_membership",
    "su_oracle",
]
