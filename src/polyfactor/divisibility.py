"""Divisibility testing, both by exact division and by the reduction of
divisibility to a single polynomial identity.

The identity route builds

    h~(z) = sum_{beta in S} f(beta z + alpha) sum_{i<=d} c_{beta,i} g(beta z + alpha)^i

with S = {1..2d^2+1} and g(alpha) != 0, such that g | f iff
f(z+alpha) = g(z+alpha) h~(z).  The constants come from truncating the
power series f/g at total degree d: with a_i = (-1)^i binom(d+1, i+1) / g(alpha)^(i+1),
the combination g * sum_i a_i g^i telescopes to 1 - u^(d+1) for
u = 1 - g(z+alpha)/g(alpha), so multiplying f(z+alpha) by sum a_i g^i and
discarding every component of degree > d yields the exact quotient whenever
it exists.  The degree truncation is a linear combination of the scaled
copies f(beta z + alpha), with Lagrange-dual weights lambda_beta; hence
c_{beta,i} = lambda_beta * a_i.
"""

import math
from dataclasses import dataclass

from .rational import Q, ZERO
from .sparse import SparsePoly
from .errors import VerificationError, ZeroDivisorError
from .pit import _transposed_vandermonde, find_nonzero_point


@dataclass(frozen=True)
class WitnessIdentity:
    alpha: tuple
    h_tilde: SparsePoly
    holds: bool
    constants: dict  # (beta, i) -> rational


def divides_exact(f, g):
    """(divides, quotient) by exact multivariate division."""
    if g.is_zero():
        raise ZeroDivisorError("zero divisor")
    q = f.exact_divide(g)
    return (q is not None), q


def truncation_weights(d, D):
    """lambda_beta over beta = 1..D+1 with sum_beta lambda_beta q(beta)
    = sum of q's coefficients of degree <= d, for every q of degree <= D:
    on q = z^i this reads sum_beta lambda_beta beta^i = [i <= d], one
    transposed Vandermonde system on the nodes 1..D+1."""
    betas = range(1, D + 2)
    values = [1] * (d + 1) + [0] * (D - d)
    return dict(zip(betas, _transposed_vandermonde(betas, values)))


def divisibility_witness(f, g):
    """The full witness record for the identity-based divisibility test."""
    if g.is_zero():
        raise ZeroDivisorError("zero divisor")
    n = f.n
    d = max(f.degree() or 0, g.degree() or 0, 1)
    alpha = find_nonzero_point(g, n, g.degree() or 0)
    g_alpha = g.eval_point(alpha)
    if g_alpha == 0:
        raise VerificationError("nonzero-point search returned a root of g")
    D = 2 * d * d
    lam = truncation_weights(d, D)
    a = [
        Q((-1) ** i) * math.comb(d + 1, i + 1) / g_alpha ** (i + 1)
        for i in range(d + 1)
    ]
    constants = {}
    h_tilde = SparsePoly.zero(n)
    for beta in range(1, D + 2):
        lb = lam[beta]
        if not lb:
            for i in range(d + 1):
                constants[(beta, i)] = ZERO
            continue
        f_beta = f.shift(alpha, beta)
        g_beta = g.shift(alpha, beta)
        inner = SparsePoly.zero(n)
        power = SparsePoly.const(n, 1)
        for i in range(d + 1):
            c = lb * a[i]
            constants[(beta, i)] = c
            if c:
                inner = inner + power.scale(c)
            if i < d:
                power = power * g_beta
        h_tilde = h_tilde + f_beta * inner
    lhs = f.shift(alpha)
    rhs = g.shift(alpha) * h_tilde
    holds = (lhs - rhs).is_zero()
    return WitnessIdentity(tuple(alpha), h_tilde, holds, constants)


def quotient_from_witness(witness):
    """h~(z - alpha): equals the exact quotient when the identity holds."""
    neg = [-a for a in witness.alpha]
    return witness.h_tilde.shift(neg)


def constant_degree_divides(f, g):
    """Divisibility of f by a constant-degree g, by exact division."""
    return divides_exact(f, g)[0]
