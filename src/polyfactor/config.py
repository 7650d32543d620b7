"""Resource caps and knobs, loadable from a flat key=value file."""

from dataclasses import dataclass, fields

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


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
                    if values[key] < 0:
                        raise ValueError(
                            "%s:%d: %s expects a non-negative integer, got %r"
                            % (path, lineno, key, value)
                        )
        return cls(**values)


DEFAULT = Config()
