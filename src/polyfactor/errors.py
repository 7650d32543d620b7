"""Exception types shared across the package."""


class PolyError(Exception):
    """Base class for package errors."""


class VariableCountMismatch(PolyError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroDivisorError(PolyError):
    """Division by the zero polynomial."""


class ZeroPolynomialError(PolyError):
    """An operation required a nonzero polynomial (e.g. nonzero-point search)."""


class NotInCodomain(PolyError):
    """A claimed image is not in the codomain of the projection being inverted."""


class InterpolationFailure(PolyError):
    """Sparse interpolation input violated its sparsity/degree promise."""


class PromiseViolation(PolyError):
    """Input violated the all-factors-have-low-degree promise."""


class CapError(PolyError):
    """A configured resource cap was exceeded; carries the bound's name."""

    def __init__(self, cap_name, requested, limit):
        super().__init__(
            "cap %s exceeded: requested %s, limit %s" % (cap_name, requested, limit)
        )
        self.cap_name = cap_name
        self.requested = requested
        self.limit = limit


class VerificationError(PolyError):
    """A result failed its exact check (recomposition or division).

    Raised instead of returning factors that were not verified; it signals
    a bug, never a property of the input.
    """


class LiftFailure(PolyError):
    """Internal: no evaluation point admitted a verified lift (bug assertion)."""
