"""Resource caps and knobs, loadable from a flat key=value file."""

from dataclasses import dataclass, fields

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _check_field(name, kind, value):
    """ValueError unless value fits the field: a bool for a bool field, a
    non-negative int (not a bool) for every other field."""
    if kind in ("bool", bool):
        ok, want = isinstance(value, bool), "a bool"
    else:
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
        want = "a non-negative integer"
    if not ok:
        raise ValueError("%s expects %s, got %r" % (name, want, value))


@dataclass
class Config:
    # Hard ceiling on dense (x, y, t) grid cells allocated by the psi map.
    max_dense_cells: int = 4_000_000
    # Largest factor-degree bound delta accepted without an explicit override.
    max_delta: int = 3
    # Budget on points drawn from the sum-of-univariates projection grids.
    su_budget: int = 30_000
    # Budget on pairs drawn from the constant-degree projection oracle.
    oracle_points: int = 5_000
    # Stop the sparse-factor search after this many consecutive projection
    # pairs whose bivariate factors are all accounted for (desk-scale
    # heuristic; soundness is unaffected, only completeness can degrade).
    su_stall: int = 250
    # Raise CapError instead of sampling a grid prefix when a budget binds.
    strict_caps: bool = False

    def __post_init__(self):
        # a negative cap would switch the search off without a word, and a
        # non-bool strict_caps would be read by truthiness
        for field in fields(self):
            _check_field(field.name, field.type, getattr(self, field.name))

    @classmethod
    def from_file(cls, path):
        values = {}
        names = {f.name: f.type for f in fields(cls)}
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
                if names[key] in ("bool", bool):
                    flag = value.lower()
                    if flag not in _TRUE + _FALSE:
                        raise ValueError(
                            "%s:%d: %s expects one of %s, got %r"
                            % (path, lineno, key, "/".join(_TRUE + _FALSE), value)
                        )
                    values[key] = flag in _TRUE
                else:
                    try:
                        values[key] = int(value)
                    except ValueError:
                        raise ValueError(
                            "%s:%d: %s expects an integer, got %r"
                            % (path, lineno, key, value)
                        ) from None
                try:
                    _check_field(key, names[key], values[key])
                except ValueError as exc:
                    raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
        return cls(**values)


DEFAULT = Config()
