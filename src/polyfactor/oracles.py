"""Irreducibility-preserving projection oracles.

An oracle, given the monic-shift direction alpha, yields projection pairs
(beta, gamma); its contract is that for every irreducible polynomial of its
class (monic-shiftable by alpha), some yielded pair keeps
g(alpha x + beta t + gamma) irreducible as a bivariate polynomial.

Two instantiations:

* constant-degree class: pairs ((a^{w_i})_i, (a^{w'_i})_i) for a = 1, 2, ...
  along the weight curve of an isolation scheme,
* sums of univariate polynomials: grids over two- and three-variable
  supports, the remaining coordinates zeroed so those variables collapse
  onto alpha x (the pair encodes the support projection exactly).

Both generators are lazy and walk their whole analytic pair set, in a
graded order for the grids.  A consumer stops drawing after
`Config.su_stall` consecutive pairs that yield nothing; that cut is sound
(the consumer's divisibility gate never admits a wrong factor), and only
completeness can degrade.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .rational import Q, ZERO, ONE
from .errors import CapError
from .isolation import compact_scheme, monomials_up_to
from .config import DEFAULT as DEFAULT_CONFIG


@dataclass(frozen=True)
class ProjectionPair:
    beta: tuple
    gamma: tuple


@dataclass(frozen=True)
class IrredProjOracle:
    membership: object  # SparsePoly -> bool
    generator: object  # alpha -> iterator of ProjectionPair
    decide_irreducible: object = None  # optional direct decision procedure
    class_degree_bound: object = None  # max degree of any class member
    support_for_degree: object = None  # degree -> tuple of the class's exponent tuples

    def contains(self, f):
        return self.membership(f)

    def pairs(self, alpha):
        return self.generator(alpha)


# ---------------------------------------------------------------------------
# constant-degree classes


def constant_degree_oracle(delta, n, d, config=None):
    """Projection pairs along the weight curve a -> (a^w, a^w') of the
    compact scheme; d, the input's degree, does not enter the curve."""
    config = config or DEFAULT_CONFIG
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if delta > config.max_delta:
        raise CapError("max_delta", delta, config.max_delta)
    scheme = compact_scheme(n, delta)
    curve_bound = 2 * delta**5 * max(max(scheme.w), max(scheme.w_prime))

    def membership(f):
        return (f.degree() or 0) <= delta

    def generator(alpha):
        for a in range(1, curve_bound + 2):
            beta = tuple(Q(a) ** wi for wi in scheme.w)
            gamma = tuple(Q(a) ** wi for wi in scheme.w_prime)
            yield ProjectionPair(beta, gamma)

    def support(deg):
        # every monomial of degree <= deg, C(n + deg, deg) of them
        return tuple(monomials_up_to(n, deg))

    return IrredProjOracle(membership, generator, None, delta, support)


# ---------------------------------------------------------------------------
# sums of univariates


def su_membership(f):
    """True iff every term involves at most one variable."""
    for exps in f.terms:
        if sum(1 for e in exps if e) > 1:
            return False
    return True


def su_is_irreducible_by_support(f):
    """True when an SU polynomial depends on >= 3 variables; None (unknown)
    otherwise -- the two-variable case needs the bivariate factorizer."""
    if not su_membership(f):
        raise ValueError("not a sum of univariate polynomials")
    if len(f.var_support()) >= 3:
        return True
    return None


def su_decide_irreducible(f):
    """Exact irreducibility for SU polynomials: >= 3 live variables are
    always irreducible, <= 2 go to the dense factorizer."""
    by_support = su_is_irreducible_by_support(f)
    if by_support is not None:
        return by_support
    from .basefactor import is_irreducible_lowvar

    return is_irreducible_lowvar(f)


def su_oracle(n, d):
    """Support-grid oracle for sum-of-univariate factors.

    Branches over variable pairs (grid width 4) and triples (grid width 6)
    with values from {1 .. 2d^5+1}; coordinates outside the support are zero,
    matching the proof's projection of the remaining variables onto x.
    """
    radius = 2 * d**5 + 1
    pair_branches = list(combinations(range(1, n + 1), 2)) if n >= 2 else []
    triple_branches = list(combinations(range(1, n + 1), 3)) if n >= 3 else []

    def generator(alpha):
        for r in range(1, radius + 1):
            for support, width in [(b, 4) for b in pair_branches] + [
                (b, 6) for b in triple_branches
            ]:
                k = width // 2
                for combo in product(range(1, r + 1), repeat=width):
                    if max(combo) != r:
                        continue
                    beta = [ZERO] * n
                    gamma = [ZERO] * n
                    for idx, var in enumerate(support):
                        beta[var - 1] = Q(combo[idx])
                        gamma[var - 1] = Q(combo[k + idx])
                    yield ProjectionPair(tuple(beta), tuple(gamma))
        if n == 1:
            # a univariate g(alpha x + beta t + gamma) factors exactly as g
            yield ProjectionPair((ONE,), (ONE,))

    def support(deg):
        # {1} and the pure powers z_i^k, k <= deg: n * deg + 1 monomials
        return ((0,) * n,) + tuple(
            tuple(k if j == i else 0 for j in range(n))
            for i in range(n)
            for k in range(1, deg + 1)
        )

    return IrredProjOracle(su_membership, generator, su_decide_irreducible, d, support)
