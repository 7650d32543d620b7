"""Resource caps and the oracle-search cut, loadable from a flat key=value
file.  Every field is a non-negative integer."""

from dataclasses import dataclass, fields


def _check_field(name, value):
    """ValueError unless value is a non-negative int (not a bool)."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
        raise ValueError("%s expects a non-negative integer, got %r" % (name, value))


@dataclass
class Config:
    # Ceiling on the cells of the (x, y, t) box that psi's image of f spans:
    # no pipeline allocates a grid, but `isolation.check_image_cells` bounds
    # the box from f's own terms before the monic shift and raises CapError.
    max_dense_cells: int = 4_000_000
    # Largest factor-degree bound delta accepted without an explicit override.
    max_delta: int = 3
    # Stop an oracle search after this many consecutive projection pairs
    # that yield nothing: in sparse_factors, pairs whose bivariate factors
    # are all accounted for; in sparse_irreducible_test, reducible
    # projections (desk-scale heuristic; soundness is unaffected, only
    # completeness can degrade).
    su_stall: int = 250

    def __post_init__(self):
        # a negative cap would switch the search off without a word
        for field in fields(self):
            _check_field(field.name, getattr(self, field.name))

    @classmethod
    def from_file(cls, path):
        values = {}
        names = {f.name for f in fields(cls)}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("%s:%d: expected key=value" % (path, lineno))
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in names:
                    raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(
                        "%s:%d: %s expects an integer, got %r"
                        % (path, lineno, key, value)
                    ) from None
                try:
                    _check_field(key, values[key])
                except ValueError as exc:
                    raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
        return cls(**values)


DEFAULT = Config()
