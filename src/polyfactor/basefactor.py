"""Exact factorization of univariate, bivariate and trivariate SparsePoly
polynomials over Q.

Every polynomial is read into integers once, by `read_table` (sparse's
one reader `_int_table`, grouped by x-exponent), and stays on integers; a
line slice or a projected image comes as integers already, from the
substitution kernel's integer core, and `read_table` reads it the same way.
Univariate: take the primitive integer part, run Yun's squarefree
decomposition over Z, then a deterministic Zassenhaus pass per squarefree
part (smallest usable prime, Berlekamp modulo p, quadratic Hensel lifting
to the Mignotte factor bound, subset recombination).  These tools work on
ascending integer coefficient lists.

Two and three variables, monic in x: f is read once (`read_table`), with
its degrees (dx, dv, dw) and the least prime P >= 2^20 that avoids its
denominators, for its probes and every lift; a bivariate f, or a dead side
variable, reads as dw = 0.  One helper (`_probes`) ranks the points
v0 = 0, 1, -1, 2, ... of the largest-degree side variable v by one
univariate image each, mod P and mod a small prime q: largest squarefree
degree, then fewest factors mod q, then earliest.  For a trivariate f the
popped v0 gives the slice F(x, v0, w), read from f's integer rows, whose
w-probes the same helper ranks.  Only the univariate image at the popped
point, F(x, v0) or F(x, v0, w0), is factored over Q; no bivariate
factorization is made (Wang's EEZ lift, Math. Comp. 1978, lifts one
variable at a time from a univariate base).  Since f is monic in x and
its monic factors have denominators dividing f's, a factorization of f
maps to one of every image that keeps its degree, so an image with one
factor mod q, or one irreducible over Q, proves f irreducible (von zur
Gathen & Gerhard, Modern Computer Algebra, 15-16).  Otherwise the image's
prime-power groups are translated to the origin mod P^k > 2B^2, B the
Mignotte bound, and Hensel-lifted there in two passes over one lift tree
(`_lift`): for dw > 0 first in w, over the slice's series, to the w-orders
the second pass carries, then in v from those lifted images.  A guard
stands in for a proof of the slice's factorization: a group u^e, e > 1,
whose lift in w is no e-th power mod the w-orders carried shows that w0
merged distinct factors of the slice (two that meet at w0, say), so
(v0, w0) is degenerate and the next w-probe is tried; any other failed
lift tries the next v-probe.  Subsets of lifted groups then recombine,
smallest first and up to half the groups left (the rest make one factor);
a subset of groups u^e lifts U^e, so its product is rooted by Miller's
power recurrence and translated back before it is reconstructed.  Each
tree node has one univariate Diophantine solver (`_Dioph`), which both
passes share: the v-lift solves each v-order one w-order at a time on
dense rows (`_lift_pair`).  The shift and the lift's products carry each
coefficient's v-series as one packed integer (`_shift_series`,
`_lift_pair`).  Every lift reads its base through a `PreparedBase`, whose
tree nodes and Bezout pairs later lifts from the same base reuse: when
the factorization at one point is already known (a line slice f(x, t)
whose t = 0 image was factored before), `lift_slice(reading, prepared,
wanted)` lifts the wanted groups only, unproved, from the point
`slice_point(base)` finds once per factorization in (x, t1).
`factor_candidates(f, bounds)` asks only for the factors within
proportional degree bounds (bx, bv, bw), a factor of x-degree a lying
within (a, a bv / bx, a bw / bx): only subsets within the x-bound
recombine, and the lift stops at the v- and w-orders the largest x-degree
such a subset reaches allows; it returns unproved candidates, and the
caller's division of its own input decides.  Exact divisions over Q are
the whole proof of a complete factorization: Yun and Zassenhaus end on
exact quotients in Z[x], and the lift divides each factor out of what is
left of f as often as its multiplicity and requires a constant at the
end, so a degenerate evaluation point fails the lift or a division and
costs another point, never correctness.
"""

import math
from collections import namedtuple
from copy import copy
from functools import partial, reduce
from itertools import accumulate, combinations, product, zip_longest
from operator import mul

from .rational import Q, ONE, primes
from .sparse import SparsePoly, _from_table, _int_table, _mul_into
from .factors import FactorList, divide_out, factor_sort_key
from .errors import LiftFailure, PolyError, ZeroPolynomialError


class _AttemptFailed(Exception):
    """Internal: current evaluation point cannot support a verified lift."""


class _DegeneratePoint(_AttemptFailed):
    """Internal: the base's point w0 merges distinct factors of f's slice."""


# ---------------------------------------------------------------------------
# small number theory


def _ratrec(c, m):
    """Rational reconstruction of c mod m; None when no small representative."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(den, m) != 1:
        return None
    g = math.gcd(abs(num), den)
    if g > 1:
        num //= g
        den //= g
    return Q(num, den)


# ---------------------------------------------------------------------------
# dense univariate helpers: ascending int coefficient lists


def up_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def up_deg(f):
    return len(f) - 1


def up_add(f, g, m=None):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] += c
    if m:
        out = [c % m for c in out]
    return up_trim(out)


def up_sub(f, g, m=None):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] -= c
    if m:
        out = [c % m for c in out]
    return up_trim(out)


def up_mul(f, g, m=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    if m:
        out = [c % m for c in out]
    return up_trim(out)


def up_scale(f, c, m=None):
    out = [a * c for a in f]
    if m:
        out = [a % m for a in out]
    return up_trim(out)


def up_mod(f, m):
    return up_trim([c % m for c in f])


def up_divmod(f, g, m):
    """Division by g with lc(g) invertible mod m."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1] % m, -1, m)
    rem = [c % m for c in f]
    dq = len(rem) - len(g)
    if dq < 0:
        return [], up_trim(rem)
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        idx = k + len(g) - 1
        if idx >= len(rem):
            continue
        c = rem[idx] % m
        if not c:
            continue
        q = (c * inv) % m
        quot[k] = q
        for j, b in enumerate(g):
            rem[k + j] = (rem[k + j] - q * b) % m
    return up_trim(quot), up_trim(up_mod(rem, m))


def up_deriv(f):
    return up_trim([i * c for i, c in enumerate(f)][1:])


def up_monic_p(f, p):
    if not f:
        return f
    inv = pow(f[-1] % p, -1, p)
    return [(c * inv) % p for c in f]


def up_gcd_p(f, g, p):
    a, b = up_mod(f, p), up_mod(g, p)
    while b:
        _, r = up_divmod(a, b, p)
        a, b = b, r
    return up_monic_p(a, p)


def up_xgcd_p(f, g, p):
    """(s, t, h) with s*f + t*g = h = monic gcd mod p."""
    a, b = up_mod(f, p), up_mod(g, p)
    sa, sb = [1], []
    ta, tb = [], [1]
    while b:
        q, r = up_divmod(a, b, p)
        a, b = b, r
        sa, sb = sb, up_sub(sa, up_mul(q, sb, p), p)
        ta, tb = tb, up_sub(ta, up_mul(q, tb, p), p)
    if not a:
        return [], [], []
    inv = pow(a[-1] % p, -1, p)
    return up_scale(sa, inv, p), up_scale(ta, inv, p), up_scale(a, inv, p)


def up_sqf_p(f, p):
    return up_deg(up_gcd_p(f, up_deriv(f), p)) == 0


def up_pow_mod_p(base, e, f, p):
    result = [1]
    cur = up_divmod(base, f, p)[1]
    while e:
        if e & 1:
            result = up_divmod(up_mul(result, cur, p), f, p)[1]
        e >>= 1
        if e:
            cur = up_divmod(up_mul(cur, cur, p), f, p)[1]
    return result


def _nullspace_p(rows, p):
    """Basis of the right nullspace of the square matrix rows (mod p)."""
    n = len(rows)
    mat = [list(r) for r in rows]
    pivots = {}
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col] % p, -1, p)
        mat[row] = [(v * inv) % p for v in mat[row]]
        for r in range(n):
            if r != row and mat[r][col] % p:
                factor = mat[r][col] % p
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[row])]
        pivots[col] = row
        row += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for col, r in pivots.items():
            vec[col] = (-mat[r][fc]) % p
        basis.append(vec)
    return basis


def _berlekamp_matrix(f, p):
    """(Q - I) transposed for the monic f of degree n mod p, row i of Q
    holding x^(i p) mod f: v(x)^p = v(x) mod f exactly when v * Q = v, so
    its right nullspace has one dimension per distinct irreducible factor
    of a squarefree f."""
    n = up_deg(f)
    xp = up_pow_mod_p([0, 1], p, f, p)
    rows = []
    cur = [1]
    for i in range(n):
        padded = list(cur) + [0] * (n - len(cur))
        rows.append(padded)
        if i + 1 < n:
            cur = up_divmod(up_mul(cur, xp, p), f, p)[1]
    return [[(rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]


def _factor_count_mod_p(f, p):
    """The number of distinct irreducible factors of the monic squarefree f
    mod p: the dimension of its Berlekamp nullspace.  Nothing is split, so p
    may be large."""
    if up_deg(f) <= 1:
        return 1
    return len(_nullspace_p(_berlekamp_matrix(f, p), p))


def berlekamp(f, p):
    """Deterministic Berlekamp split of a monic squarefree f mod p."""
    if up_deg(f) <= 1:
        return [f]
    basis = _nullspace_p(_berlekamp_matrix(f, p), p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for vec in basis:
        if len(factors) == r:
            break
        v = up_trim(list(vec))
        if up_deg(v) < 1:
            continue
        new = []
        for w in factors:
            rem = w
            pieces = []
            for c in range(p):
                if up_deg(rem) <= 0:
                    break
                g = up_gcd_p(rem, up_sub(v, [c], p), p)
                if 0 < up_deg(g) <= up_deg(rem):
                    if up_deg(g) == up_deg(rem):
                        continue
                    pieces.append(g)
                    rem = up_divmod(rem, g, p)[0]
                    rem = up_monic_p(rem, p)
            if up_deg(rem) > 0:
                pieces.append(rem)
            new.extend(pieces)
        factors = sorted(new, key=lambda h: (up_deg(h), h))
    return factors


# ---------------------------------------------------------------------------
# Hensel machinery over Z (univariate)


def _bezout_step(M, a, b, s, t):
    """(S, T) with S*a + T*b = 1 mod M, from s*a + t*b = 1 mod a square root
    of M; b monic."""
    e = up_mod(up_sub(up_add(up_mul(s, a), up_mul(t, b)), [1]), M)
    c, d = up_divmod(up_mul(s, e), b, M)
    S = up_mod(up_sub(s, d), M)
    T = up_mod(up_sub(t, up_add(up_mul(t, e), up_mul(c, a))), M)
    return S, T


def _hensel_step(m, f, g, h, s, t):
    """m -> m^2 quadratic step: f = g*h, s*g + t*h = 1, h monic."""
    M = m * m
    e = up_mod(up_sub(f, up_mul(g, h)), M)
    q, r = up_divmod(up_mul(s, e), h, M)
    u = up_add(up_mul(t, e), up_mul(q, g))
    G = up_mod(up_add(g, u), M)
    H = up_mod(up_add(h, r), M)
    return (G, H) + _bezout_step(M, G, H, s, t)


def _hensel_lift_univ(p, f, f_list, l):
    """Lift f = lc(f) * prod(f_list) (mod p) to mod p^l, factors monic."""
    r = len(f_list)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [up_mod(up_scale(f, inv), pl)]
    k = r // 2
    d = int(math.ceil(math.log2(l))) if l > 1 else 1
    g = [lc % p]
    for fi in f_list[:k]:
        g = up_mul(g, fi, p)
    h = [1]
    for fi in f_list[k:]:
        h = up_mul(h, fi, p)
    s, t, gg = up_xgcd_p(g, h, p)
    if up_deg(gg) != 0:
        raise _AttemptFailed("modular factors not coprime")
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift_univ(p, g, f_list[:k], l) + _hensel_lift_univ(
        p, h, f_list[k:], l
    )


def _factor_bound(ints, degree_sum):
    """B >= |G|_inf for every factor G in Z[x1, ..., xn] of the integer F with
    coefficients `ints` and partial degrees summing to `degree_sum`: by the
    Mahler measure, |G|_inf <= 2^degree_sum * M(G) <= 2^degree_sum * M(F)
    <= 2^degree_sum * ||F||_2 (Mignotte 1974; von zur Gathen & Gerhard,
    Modern Computer Algebra, 6.6)."""
    return (math.isqrt(sum(c * c for c in ints)) + 1) << degree_sum


def _precision(p, bound):
    """The least k >= 1 with p**k >= bound: the p-adic precision of a lift."""
    k, pk = 1, p
    while pk < bound:
        pk *= p
        k += 1
    return k


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _up_primitive_z(f):
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    if g == 0:
        return []
    sign = -1 if f[-1] < 0 else 1
    return [c // (g * sign) for c in f]


def _up_div_exact_z(f, g):
    """Quotient in Z[x] when g (primitive) divides f, else None."""
    if not g:
        return None
    rem = list(f)
    up_trim(rem)
    dq = len(rem) - len(g)
    if dq < 0:
        return None if rem else []
    quot = [0] * (dq + 1)
    lc = g[-1]
    for k in range(dq, -1, -1):
        idx = k + len(g) - 1
        c = rem[idx] if idx < len(rem) else 0
        if c % lc:
            return None
        q = c // lc
        quot[k] = q
        if q:
            for j, b in enumerate(g):
                rem[k + j] -= q * b
    up_trim(rem)
    return quot if not rem else None


def _recombine(count, limit, accept):
    """Subset recombination of groups 0..count-1, smallest subsets first
    and lexicographically, up to size limit(groups left) (von zur Gathen &
    Gerhard, Modern Computer Algebra 15.6).  accept(S) returns True when an
    exact division took S's candidate; S's groups are then dropped.
    Returns the groups left."""
    indices = list(range(count))
    size = 1
    while size <= limit(indices):
        for S in combinations(indices, size):
            if accept(S):
                indices = [i for i in indices if i not in S]
                break
        else:
            size += 1
    return indices


def _zassenhaus(F):
    """Irreducible factors of a primitive squarefree F in Z[x], lc(F) > 0."""
    n = up_deg(F)
    if n == 1:
        return [F]
    lc = F[-1]
    # lc * (a monic lifted factor) is lc / lc(G) times an integer factor G
    B = _factor_bound(F, n) * abs(lc)
    for p in primes(3):
        if lc % p and up_sqf_p(F, p):
            break
        if p > 200 * (B + n + 2):  # pragma: no cover - theory guarantees earlier
            raise LiftFailure("no usable prime for univariate factorization")
    fbar = up_monic_p(up_mod(F, p), p)
    modular = berlekamp(fbar, p)
    if len(modular) == 1:
        return [F]
    l = _precision(p, 2 * B + 1)
    lifted = _hensel_lift_univ(p, F, modular, l)
    pl = p**l
    factors = []
    current = F

    def accept(S):
        nonlocal current
        G = [current[-1] % pl]
        for i in S:
            G = up_mul(G, lifted[i], pl)
        G = _up_primitive_z(up_trim([_symmetric(c, pl) for c in G]))
        quotient = _up_div_exact_z(current, G) if up_deg(G) >= 1 else None
        if quotient is None:
            return False
        factors.append(G)
        current = quotient
        return True

    _recombine(len(lifted), lambda left: len(left) // 2, accept)
    if up_deg(current) >= 1:
        factors.append(_up_primitive_z(current))
    return factors


# ---------------------------------------------------------------------------
# univariate over Q, factored as its primitive integer part


def _up_prem(f, g):
    """Pseudo-remainder in Z[x]: lc(g)^k * f mod g, k the steps taken."""
    rem = list(f)
    lc, dg = g[-1], len(g) - 1
    while len(rem) > dg:
        c = rem.pop()
        shift = len(rem) - dg
        if lc != 1:
            rem = [a * lc for a in rem]
        for j in range(dg):
            rem[shift + j] -= c * g[j]
        up_trim(rem)
    return rem


def _up_gcd_z(f, g):
    """Primitive gcd in Z[x], leading coefficient positive (primitive PRS)."""
    a, b = _up_primitive_z(f), _up_primitive_z(g)
    while b:
        a, b = b, _up_primitive_z(_up_prem(a, b))
    return a


def _factor_univariate_pairs(rows, n):
    """[(canonical irreducible, multiplicity)] for a polynomial in x alone,
    read as integer rows (`read_table`), in n variables (the others unused).

    Yun's squarefree decomposition runs on the primitive integer part F of f.
    By Gauss's lemma every quotient stays in Z[x], and every part comes out
    primitive with a positive leading coefficient, ready for Zassenhaus.
    """
    F = _up_primitive_z([sum(c for _, _, c in row) for row in rows])
    if not F:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    dF = up_deriv(F)
    u = _up_gcd_z(F, dF)
    v, w = _up_div_exact_z(F, u), _up_div_exact_z(dF, u)
    pairs = []
    mult = 1
    while len(v) > 1:
        z = up_sub(w, up_deriv(v))
        h = _up_gcd_z(v, z) if z else _up_primitive_z(v)
        if len(h) > 1:
            for fac in _zassenhaus(h):
                terms = {(i,) + (0,) * (n - 1): Q(c) for i, c in enumerate(fac) if c}
                pairs.append((SparsePoly(n, terms).canonical(), mult))
        v, w = _up_div_exact_z(v, h), _up_div_exact_z(z, h)
        mult += 1
    pairs.sort(key=lambda pm: factor_sort_key(pm[0]))
    return pairs


# ---------------------------------------------------------------------------
# coefficient dictionaries for the multivariate lift: {ex*STRIDE + ew: int}
# (packed keys add componentwise under integer addition, so products run on
# the sparse kernel _mul_into; sums accumulate unreduced and each value is
# reduced mod m once, where it is read)

STRIDE = 1 << 20


def cd_pack(ex, ew):
    return ex * STRIDE + ew


def cd_unpack(key):
    return key // STRIDE, key % STRIDE


def cd_reduce(a, m):
    """The nonzero entries of a mod m."""
    out = {}
    for k, v in a.items():
        v %= m
        if v:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# diophantine solver


class _Dioph:
    """Solve dA b0 + dB a0 = e mod m for polynomials in x as ascending
    lists, a0 and b0 monic and coprime mod p, deg e < D = deg a0 + deg b0,
    with deg dA < deg a0 and deg dB < deg b0: the solution is unique, and
    linear in e, so it is read off precomputed solutions (sigma_i, tau_i)
    for each x^i, i < D (Geddes, Czapor & Labahn, Algorithms for Computer
    Algebra, 6.5).  Column 0, for 1, comes from a Bezout pair s a0 + t b0 =
    1; each next column is x times the last, minus q a0 and plus q b0, q
    the last sigma's x^(deg a0 - 1) coefficient.  Column i is kept packed:
    one integer whose digit k, `width` bits wide, is coefficient k of sigma_i
    followed by tau_i.  `solve` multiplies each nonzero coefficient of e by
    its column once and reads D digits mod m; with e reduced mod m, a digit
    sums at most D products of two numbers below m, so none carries.

    The pair with deg s < deg b0 is unique too (von zur Gathen & Gerhard,
    Modern Computer Algebra, 15.4), so `memo`, the tree node's memo of the
    pair per prime p, serves every lift of the same a0 and b0: memo[p]
    holds (mu, s, t) at the largest modulus mu = p^k lifted to so far.  A
    smaller m reduces it; a larger one continues its `_bezout_step`
    squarings and stores the pair at m, not at the overshoot, since a0 and
    b0 are known mod m only."""

    def __init__(self, a0, b0, p, m, memo=None):
        self.m = m
        memo = {} if memo is None else memo
        if p not in memo:
            s, t, g = up_xgcd_p(a0, b0, p)
            if up_deg(g) != 0:
                raise _AttemptFailed("base factors not coprime mod p")
            memo[p] = (p, s, t)
        mu, s, t = memo[p]
        grows = mu < m
        while mu < m:
            mu *= mu
            s, t = _bezout_step(mu, a0, b0, s, t)
        self.s = s = up_mod(s, m)
        self.t = t = up_mod(t, m)
        if grows:
            memo[p] = (m, s, t)
        self.na, nb = up_deg(a0), up_deg(b0)
        self.D = D = self.na + nb
        self.width = b = 2 * m.bit_length() + D.bit_length()
        q, sigma = up_divmod(t, a0, m)
        tau = up_add(s, up_mul(q, b0, m), m)
        sigma += [0] * (self.na - len(sigma))
        tau += [0] * (nb - len(tau))
        self.columns = []
        for i in range(D):
            if i:
                # x sigma's top term cancels against a0's monic one, and x
                # tau's against b0's, so only their lower terms enter
                q = sigma[-1]
                sigma = [(c - q * a) % m for c, a in zip([0] + sigma[:-1], a0)]
                tau = [(c + q * a) % m for c, a in zip([0] + tau[:-1], b0)]
            self.columns.append(sum(c << b * k for k, c in enumerate(sigma + tau)))

    def reduced(self, m):
        """This solver mod m, m dividing self.m: the solutions with the
        degree bounds are unique, so the ones mod m are these reduced, and
        the columns mod self.m serve, their digits read mod m."""
        out = copy(self)
        out.m = m
        out.s, out.t = up_mod(self.s, m), up_mod(self.t, m)
        return out

    def solve(self, e):
        """(dA, dB), lists of deg a0 and deg b0 coefficients mod m, for the
        list e reduced mod m; _AttemptFailed when deg e >= D."""
        D, m, b = self.D, self.m, self.width
        if any(e[D:]):
            raise _AttemptFailed("diophantine right side of x-degree >= D")
        acc = 0
        for c, column in zip(e, self.columns):
            if c:
                acc += c * column
        digit = (1 << b) - 1
        out = []
        for _ in range(D):
            out.append((acc & digit) % m)
            acc >>= b
        return out[: self.na], out[self.na :]


# ---------------------------------------------------------------------------
# series lift


def _wcut(d, wlen):
    """The entries of an (x, w) dict below w-order wlen."""
    return {k: c for k, c in d.items() if k % STRIDE < wlen}


def _series_mul(A, B, K, wlen, m):
    """A * B mod (v^K, w^wlen, m) for v-series of (x, w) dicts."""
    out = [dict() for _ in range(K)]
    for i, ai in enumerate(A):
        for j, bj in enumerate(B[: K - i]):
            _mul_into(out[i + j], ai, bj)
    return [cd_reduce(_wcut(row, wlen), m) for row in out]


def _series_root(W, e, wlen, m):
    """U with U^e = W mod (v^K, w^wlen, m), K = len(W), for W a v-series of
    (x, w) dicts monic in x; U is monic in x of degree deg_x(W) / e.

    Read in z = 1/x, W is a power series P = sum p_k z^k over the ring R of
    (v, w)-series with p_0 = 1, and its e-th root A = sum a_k z^k with
    a_0 = 1 follows from A P' = e A' P (Miller's power recurrence):
    a_k = sum_{i<k} (k - (e+1) i) a_i p_{k-i} / (e k).  Every e k is at most
    deg_x W, which the caller's prime exceeds, so it is invertible mod m.
    R's elements are dicts on packed (v, w) keys.  When W is U^e for a
    polynomial U whose degrees fit the truncation, the result is U itself."""
    K = len(W)
    coeffs = {}  # x-exponent -> element of R
    for ev, row in enumerate(W):
        for key, c in row.items():
            ex, ew = cd_unpack(key)
            coeffs.setdefault(ex, {})[cd_pack(ev, ew)] = c
    D = max(coeffs)
    d = D // e
    p = [coeffs.get(D - k, {}) for k in range(d + 1)]
    a = [{0: 1}]
    for k in range(1, d + 1):
        acc = {key: k * c for key, c in p[k].items()}
        for i in range(1, k):
            scale = k - (e + 1) * i
            if scale:
                _mul_into(acc, {key: scale * c for key, c in a[i].items()}, p[k - i])
        inv = pow(e * k, -1, m)
        a.append(
            cd_reduce(
                {
                    key: c * inv
                    for key, c in acc.items()
                    if key // STRIDE < K and key % STRIDE < wlen
                },
                m,
            )
        )
    U = [dict() for _ in range(K)]
    U[0][cd_pack(d, 0)] = 1
    for k in range(1, d + 1):
        for key, c in a[k].items():
            ev, ew = cd_unpack(key)
            U[ev][cd_pack(d - k, ew)] = c
    return U


def _rows_of(d, L):
    """The (x, w) dict d as L rows by w-order, each a list of x
    coefficients as long as d's x-degree allows; entries of w-order >= L
    are dropped."""
    rows = [[0] * (max(d, default=0) // STRIDE + 1) for _ in range(L)]
    for key, c in d.items():
        ex, ew = divmod(key, STRIDE)
        if ew < L:
            rows[ew][ex] = c
    return rows


def _dict_of(rows):
    """Rows by w-order (`_rows_of`) back to an (x, w) dict of their nonzero
    entries."""
    return {cd_pack(ex, ew): c for ew, row in enumerate(rows) for ex, c in enumerate(row) if c}


def _rows_mul(A, B, L, m):
    """A B mod (w^L, m) for rows by w-order (`_rows_of`), L rows, each
    trimmed."""
    out = [[] for _ in range(L)]
    for i, a in enumerate(A[:L]):
        for j, b in enumerate(B[: L - i]):
            out[i + j] = up_add(out[i + j], up_mul(a, b))
    return [up_mod(row, m) for row in out]


def _lift_pair(Fser, A0, B0, K, m, dioph):
    """(A, B), the v-series lifting A0 B0 = Fser[0] to A B = Fser mod (v^K,
    w^L, m), L = len(A0), one v-order j at a time.  Each element of a
    series is L rows by w-order of x coefficients (`_rows_of`); A0 and B0
    are monic in x at w-order 0, and `dioph` solves for those two rows.  At
    v-order j the residual Fser[j] - sum_{i+l=j} A_i B_l (i, l >= 1) is
    solved one w-order k at a time (Geddes, Czapor & Labahn, 6.5): its row
    k, less the rows of A_j and B_j found so far times the rows of w-order
    >= 1 of B0 and A0, goes to `dioph`, whose solution is row k of A_j and
    B_j.

    The products run on packed v-series: each (w, x) entry keeps A_i and
    B_i for i >= 1, and the running sums of A_i B_l, as one nonnegative
    integer of digits b bits wide.  A new coefficient of A_j or B_j
    multiplies a whole packed partner series once, and step j reads the
    lowest digit of each sum, then drops it: A_i sits at digit i - 1 of its
    partner series, and digit d of a sum holds v-order j + d at step j, so
    a product needs no shift.  Every coefficient is below m, and a digit
    sums at most K D L products, D = dioph.D (x-degree splits) and L the
    w-order splits, so b = 2 bits(m) + bits(K D L) + 1 never carries into
    the next digit.  Pairs whose w-orders reach L are skipped."""
    L, D = len(A0), dioph.D
    if _rows_mul(A0, B0, L, m) != [up_mod(row, m) for row in Fser[0]]:
        raise _AttemptFailed("base product mismatch")
    b = 2 * m.bit_length() + (K * D * L).bit_length() + 1
    digit = (1 << b) - 1
    empty = [[] for _ in range(L)]
    A, B = [A0] + [empty] * (K - 1), [B0] + [empty] * (K - 1)
    # packed[0][k][x] holds A_i, i >= 1, at w^k x^x; packed[1] B_i
    packed = tuple([[0] * (len(C[0]) - 1) for _ in range(L)] for C in (A0, B0))
    sums = [[0] * D for _ in range(L)]
    for j in range(1, K):
        at = b * (j - 1)
        dA, dB = [], []
        for k, (row, srow) in enumerate(zip(Fser[j], sums)):
            e = [c - (s & digit) for c, s in zip_longest(row, srow, fillvalue=0)]
            srow[:] = [s >> b for s in srow]
            for i in range(1, k + 1):
                for new, base in ((dA[k - i], B0[i]), (dB[k - i], A0[i])):
                    for x1, c1 in enumerate(new):
                        if c1:
                            for x2, c2 in enumerate(base, x1):
                                e[x2] -= c1 * c2
            e = [c % m for c in e]
            da, db = dioph.solve(e) if any(e) else ((), ())
            dA.append(da)
            dB.append(db)
        if not any(dA + dB):
            continue
        # with B_j packed, A_j's products take in A_j B_j too
        for prow, row in zip(packed[1], dB):
            for x, c in enumerate(row):
                prow[x] += c << at
        if j + 1 < K:
            for new, partner in ((dA, packed[1]), (dB, packed[0])):
                for k1, row in enumerate(new):
                    for x1, c1 in enumerate(row):
                        if c1:
                            for srow, prow in zip(sums[k1:], partner):
                                for x2, s in enumerate(prow, x1):
                                    srow[x2] += c1 * s
        for prow, row in zip(packed[0], dA):
            for x, c in enumerate(row):
                prow[x] += c << at
        A[j], B[j] = dA, dB
    return A, B


def _lift_tree(Fser, K, m, node, first, count):
    """The lifted series of groups first, ..., first + count - 1 of a base
    whose product Fser lifts, each element rows by w-order (`_lift_pair`);
    node(first, count) gives the tree node's (A0, B0, `_Dioph`) mod m
    (`PreparedBase.node`, or the v-lift's nodes in `_lift`)."""
    if count == 1:
        return [Fser]
    h = count // 2
    A0, B0, dioph = node(first, count)
    Aser, Bser = _lift_pair(Fser, A0, B0, K, m, dioph)
    return _lift_tree(Aser, K, m, node, first, h) + _lift_tree(
        Bser, K, m, node, first + h, count - h
    )


# ---------------------------------------------------------------------------
# multivariate attempt driver


def _eval_points():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _rows_to_series(rows, K):
    """The z_v-series of packed (x, w) dicts of integer rows as a reading
    holds them (`read_table`), unreduced."""
    ser = [dict() for _ in range(K)]
    for ex, row in enumerate(rows):
        for ev, ew, c in row:
            ser[ev][cd_pack(ex, ew)] = c
    return ser


def _shift_series(ser, cv, cw, m, vlen=None, wlen=None, den=1):
    """The v-series of packed (x, w) dicts ser(v + cv, w + cw) / den mod
    (v^vlen, w^wlen, m), vlen = len(ser) and no w cut by default, for ser's
    values integers, reduced mod m or not (f's own integers, say), and den
    invertible mod m: the classical Taylor shift (von zur Gathen & Gerhard,
    ISSAC 1997), w first, each term expanded by binomials into the w-orders
    kept, then v on packed rows.  Sums stay unreduced until the end, where
    each output digit is multiplied by 1/den mod m once; a zero shift with
    no cut and den 1 returns ser itself.

    The v-shift carries each (x, w) key's series as one integer whose digit
    j, b bits wide, sits at bit b j.  Row ev's digits comb(ev, j) c^(ev-j),
    c = |cv| and j < vlen, follow from row ev - 1 by Pascal's rule, and each
    key adds its value times its row's digits; a negative cv shifts
    ser(-v) by c and negates the odd orders back.  A digit is a signed sum
    of at most len(ser) terms, each below max |value| (c + 1)^dv in
    magnitude, dv = len(ser) - 1, so its width follows ser's values (f's
    integers, not m, for the lift) and grows as dv log2(c + 1), and each
    key is unpacked once, digit by digit with a borrow."""
    if vlen is None:
        vlen = len(ser)
    if not cv and not cw and vlen == len(ser) and wlen is None and den == 1:
        return ser
    inv = pow(den, -1, m)
    rows = ser
    if cw:
        table = {}
        rows = []
        for row in ser:
            out = {}
            for key, val in row.items():
                ew = key % STRIDE
                coeffs = table.get(ew)
                if coeffs is None:
                    top = ew + 1 if wlen is None else min(ew + 1, wlen)
                    coeffs = table[ew] = [math.comb(ew, j) * cw ** (ew - j) for j in range(top)]
                low = key - ew
                for j, b in enumerate(coeffs):
                    out[low + j] = out.get(low + j, 0) + val * b
            rows.append(out)
    elif wlen is not None:
        rows = [_wcut(row, wlen) for row in ser]
    if not cv:
        return [cd_reduce({key: val * inv for key, val in row.items()}, m) for row in rows[:vlen]]
    c, n = abs(cv), min(vlen, len(rows))
    most = max((abs(val) for row in rows for val in row.values()), default=0)
    b = (len(rows) * most * (c + 1) ** (len(rows) - 1)).bit_length() + 1
    mask = (1 << b * n) - 1
    packed = {}
    T = 1  # row ev's digits comb(ev, j) c^(ev - j), j < n
    for ev, row in enumerate(rows):
        if ev:
            T = (c * T + (T << b)) & mask
        t = -T if cv < 0 and ev % 2 else T
        for key, val in row.items():
            packed[key] = packed.get(key, 0) + val * t
    # adding half to every digit makes each one nonnegative, so a digit is
    # read by a mask and the half taken back: the borrow of a negative digit
    digit, half = (1 << b) - 1, 1 << (b - 1)
    bias = half * (mask // digit)
    out = [dict() for _ in range(n)]
    for key, s in packed.items():
        s += bias
        for j, target in enumerate(out):
            d = ((s & digit) - half) * inv % m
            s >>= b
            if d:
                target[key] = m - d if cv < 0 and j % 2 else d
    return out


def _series_to_qpoly(ser, v, w, n, m):
    """z_v-series of (x, w) dicts back to an n-variable SparsePoly over Q
    (a z_w past n, as for a bivariate f, has only w-order 0)."""
    terms = {}
    for ev, d in enumerate(ser):
        for packed, val in d.items():
            q = _ratrec(val, m)
            if q is None:
                return None
            ex, ew = cd_unpack(packed)
            exps = [ex, 0, 0]
            exps[v - 1], exps[w - 1] = ev, ew
            terms[tuple(exps[:n])] = q
    return SparsePoly(n, terms)


# The probes and the lift work modulo the least prime P >= 2^20 that avoids
# f's denominators: a prime far above any x-degree keeps the images'
# derivatives nonzero, makes a spurious common root unlikely, and exceeds
# every e k `_series_root` inverts.
_RANK_PRIME = next(primes(1 << 20))


def _prime_avoiding(den):
    """The least prime >= 2^20 that does not divide den."""
    if den % _RANK_PRIME:
        return _RANK_PRIME
    return next(q for q in primes(_RANK_PRIME + 1) if den % q)


_Reading = namedtuple("_Reading", "f n v w rows den degrees prime")


def read_table(n, table, den, bits=None, f=None):
    """The reading of f = table / den, a polynomial in n <= 3 variables with
    x first, for its probes and lifts in z_v, keeping z_w = z_(5 - v):
    rows[ex] holds (v-exponent, w-exponent, integer) for each term of
    x-degree ex, over den, with f's degrees (dx, dv, dw) and the least
    prime P >= 2^20 that avoids den.  z_v is the side variable of largest
    degree, the first on a tie; a bivariate f reads w = 3, a variable it
    lacks, so dw = 0, and a univariate f reads dv = dw = 0.  table holds
    integers on exponent tuples (`_int_table`), or on keys packed with
    fields of bits, as the substitution kernel's integer core leaves them
    (`sparse._compose`): each is split by shifts, a key of fewer than 3
    slots shifted up first so that its missing slots read 0; then no
    SparsePoly is made, and the reading's f is None.  Dividing table and
    den by their gcd makes den the least common denominator of f's
    coefficients, the den `_int_table` reads."""
    g = math.gcd(den, *table.values())
    if bits is None:
        items = [e + (0,) * (3 - n) + (c // g,) for e, c in table.items() if c]
    else:
        field, pad = (1 << bits) - 1, bits * (3 - n)
        keys = [k << pad for k in table] if pad else table
        items = [
            (k >> 2 * bits & field, k >> bits & field, k & field, c // g)
            for k, c in zip(keys, table.values())
            if c
        ]
    tops = [max(col) for col in list(zip(*items))[:3]] or [0, 0, 0]
    v = 3 if tops[2] > tops[1] else 2
    w = 5 - v
    rows = [[] for _ in range(tops[0] + 1)]
    for ex, e1, e2, c in items:
        rows[ex].append((e1, e2, c) if v == 2 else (e2, e1, c))
    den //= g
    degrees = (tops[0], tops[v - 1], tops[w - 1])
    return _Reading(f, n, v, w, rows, den, degrees, _prime_avoiding(den))


def _slice(reading, v0):
    """The reading (`read_table`) of the slice F(x, v0, z_w) of a
    trivariate f, its rows summed on integers at z_v = v0, with z_w its
    variable 2: the reading the slice's own SparsePoly would give."""
    power = [v0**k for k in range(reading.degrees[1] + 1)]
    table = {}
    for ex, row in enumerate(reading.rows):
        for ev, ew, c in row:
            table[ex, ew] = table.get((ex, ew), 0) + c * power[ev]
    return read_table(2, table, reading.den)


def _poly(reading):
    """The read f: the reading's own, or one rebuilt from its integer rows,
    one rational per term."""
    if reading.f is not None:
        return reading.f
    n, v, w = reading.n, reading.v, reading.w
    table = {}
    for ex, row in enumerate(reading.rows):
        for ev, ew, c in row:
            exps = [ex, 0, 0]
            exps[v - 1], exps[w - 1] = ev, ew
            table[tuple(exps[:n])] = c
    return _from_table(n, table, reading.den)


def _group_tables(base):
    """(rows, lc) for each group u of `base`, a factorization of f at one
    point: u's primitive integer rows (`read_table`'s layout, with z_w its
    variable 2 and no z_v), and their x-leading integer.  A factor of a
    monic-in-x polynomial has a constant x-leading coefficient, so the
    groups' monic images multiply to f's image exactly; _AttemptFailed when
    one has not."""
    tables = []
    for u, _ in base:
        table, _ = _int_table(u)
        content = math.gcd(*table.values())
        rows = [[] for _ in range((u.degree_in(1) or 0) + 1)]
        for exps, c in table.items():
            rows[exps[0]].append((0, (*exps, 0)[1], c // content))
        if len(rows[-1]) != 1 or rows[-1][0][1]:
            raise _AttemptFailed("non-constant x-leading coefficient")
        tables.append((rows, rows[-1][0][2]))
    return tables


class PreparedBase:
    """`base`, a factorization [(u, e)] of f at one point into groups u in
    x alone, prepared once for every lift from it: its groups' tables
    (`_group_tables`), their (x-degree, multiplicity), and the nodes of the
    lift tree (`node`).  A node's a0 and b0 are the same in every lift, so
    one Bezout memo per node serves them all; within a trivariate lift
    (`_lift`), both passes solve with the node's one `_Dioph`."""

    def __init__(self, base):
        self.tables = _group_tables(base)
        self.groups = [(len(rows) - 1, e) for (rows, _), (_, e) in zip(self.tables, base)]
        self.trees = {}  # P -> (M, images mod M, {node: (a0, b0, _Dioph)})
        self.bezout = {}  # node -> its Bezout memo (`_Dioph`)

    def images(self, m):
        """Each group u^e mod m as a list of x coefficients: u's integer
        rows over their x-leading integer, raised to e."""
        out = []
        for (rows, lc), (_, e) in zip(self.tables, self.groups):
            inv = pow(lc, -1, m)
            u = [sum(c for *_, c in row) * inv % m for row in rows]
            image = u
            for _ in range(e - 1):
                image = up_mul(image, u, m)
            out.append(image)
        return out

    def node(self, P, m, first, count):
        """([a0], [b0], dioph) mod m of the lift tree node over the groups
        first, ..., first + count - 1: a0 the product of the images of the
        first count // 2, b0 of the rest, each one row by w-order
        (`_lift_pair`), and their `_Dioph`, whose Bezout pair the node's
        memo keeps.  Nodes are kept per P at one modulus M, a power of P.
        An m dividing M reads them reduced: the images are exact over Q with
        denominators P avoids and the solutions unique, so these are the
        numbers a fresh build gives.  Any other m rebuilds the tree at
        max(m, M^2), so a rising precision rebuilds it rarely; each node's
        Bezout pair is memoized across rebuilds (`_Dioph`)."""
        tree = self.trees.get(P)
        if tree is None or tree[0] % m:
            M = m if tree is None else max(m, tree[0] ** 2)
            tree = self.trees[P] = (M, self.images(M), {})
        M, images, nodes = tree
        if (first, count) not in nodes:
            h = count // 2
            a0, b0 = (
                reduce(partial(up_mul, m=M), images[lo:hi])
                for lo, hi in ((first, first + h), (first + h, first + count))
            )
            memo = self.bezout.setdefault((first, count), {})
            nodes[first, count] = a0, b0, _Dioph(a0, b0, P, M, memo)
        a0, b0, dioph = nodes[first, count]
        if M == m:
            return [a0], [b0], dioph
        return [up_mod(a0, m)], [up_mod(b0, m)], dioph.reduced(m)


def slice_point(base):
    """(w0, line): the least t1 = w0 in range(2 d r^2 + 3), d the t1-degree
    of the product of `base`'s r groups, the factorization of a polynomial
    in (x, t1) monic in x, at which their images h(x, w0) are pairwise
    coprime mod the least prime P >= 2^20 avoiding their denominators, so
    each group lifts from t1 = w0 on any line through that point, and
    `line`, those images prepared once for lifting every line slice from
    there (`PreparedBase`); None when no w0 scanned gives them."""
    tables = _group_tables(base)
    d = sum(e * (u.degree_in(2) or 0) for u, e in base)
    P = _prime_avoiding(math.lcm(*(lc for _, lc in tables)))

    def coprime(w0):
        # a group's rows hold z_v-exponent 0 alone: each folds to its value
        images = [_images([r[0] for r in _fold(rows, w0, 0, d)], lc, P) for rows, lc in tables]
        return all(up_deg(up_gcd_p(a, b, P)) == 0 for a, b in combinations(images, 2))

    w0 = next((w0 for w0 in range(2 * d * len(tables) ** 2 + 3) if coprime(w0)), None)
    if w0 is None:
        return None
    return w0, PreparedBase([(u.eval_var(2, w0), e) for u, e in base])


def _lift(reading, v0, prepared, bounds=None, w0=0):
    """(groups, candidate): f's factorization at (z_v, z_w) = (v0, w0)
    into groups in x alone, prepared (`PreparedBase`), lifted mod P^k >
    2B^2 (P the reading's prime, B = _factor_bound); groups[i] is group
    i's (x-degree, multiplicity).  candidate(S) is (G, e), G monic in x and
    G^e the factor the groups S lift, reconstructed over Q and unproved
    (junk reconstructs too); None when their multiplicities differ or
    nothing reconstructs.  _AttemptFailed when the groups' images are not
    coprime mod P.

    The lift runs mod (v^K, w^wlen), K = dv + 1 and wlen = dw + 1, at the
    origin, after one Taylor shift of f's integer rows (`_shift_series`),
    in two passes over one lift tree.  With wlen > 1, the slice
    F(x, v0, w + w0) first lifts the groups' images in w, a series of one
    row per w-order; a v-lift node's A0 and B0 are the products of those
    lifted images, and both passes solve with the node's one univariate
    `_Dioph` (`PreparedBase.node`), the v-lift one w-order at a time.
    Images coprime mod P make the lifted factors unique mod (v^K, w^wlen,
    P^k), so a product of lifted factors truncates the factor of f it
    lifts, whose degrees <= (dv, dw) keep it whole.  A group u^e, u read as
    its primitive integer rows over their x-leading integer, lifts to U^e
    where (v0, w0) keeps f's factors apart, so a subset of groups of one
    multiplicity e is rooted (`_series_root`) before it is reconstructed;
    a lift in w that is no e-th power shows that w0 merged distinct
    factors of the slice: _DegeneratePoint.  With such a group, the w-lift
    and this guard run to at least min(dw, 2) + 1 w-orders, cut back to
    wlen for the v-lift: two factors that meet at w0 can make a power mod
    w^2, as (x + w)(x + 2w) = (x + 3w/2)^2 does.  `bounds` (bx, bv, bw), per
    variable (x first), are proportional: a wanted factor of x-degree a
    lies within (a, a bv / bx, a bw / bx).  No subset recombined with
    x-degree <= bx passes a = min(bx, the sum of the group x-degrees <=
    bx), so the lift is cut at K = min(dv, a bv // bx) + 1 and wlen =
    min(dw, a bw // bx) + 1, and B is taken at degree sum a + K + wlen - 2:
    a wanted factor is whole in the cut, and so is its root, though U^e
    runs past it."""
    _, n, v, w, f_rows, f_den, (dx, dv, dw), P = reading
    groups = prepared.groups
    if bounds is None:
        a, K, wlen = dx, dv + 1, dw + 1
    else:
        # a variable past f's n, as z_w of a bivariate f, is bounded by 0
        bx, bv, bw = bounds[0], bounds[v - 1], (*bounds, 0)[w - 1]
        # the largest x-degree a recombined subset reaches
        a = min(bx, sum(d for d, _ in groups if d <= bx))
        K = min(dv, a * bv // bx) + 1
        wlen = min(dw, a * bw // bx) + 1  # the w-orders the lift carries
    # a monic factor of f is G / lc(G), G an integer factor of f's integer
    # form, and lc(G) divides f's denominator, which P avoids, so a subset
    # that does not reconstruct is no factor; candidates are reconstructed
    # in the original coordinates, so B needs no term for the translation,
    # and they have degrees within the cut, which B's degree sum is
    B = _factor_bound([c for r in f_rows for *_, c in r], a + K + wlen - 2)
    m = P ** _precision(P, 2 * B * B + 1)

    # the w-orders the w-lift and its guard carry
    wg = max(wlen, min(dw, 2) + 1) if any(e > 1 for _, e in groups) else wlen
    # lift at the origin: translate the evaluation point there mod m, keeping
    # only the orders the lift carries
    Fser = _shift_series(_rows_to_series(f_rows, dv + 1), v0, w0, m, K, wg, f_den)
    Fser = [_rows_of(d, wg) for d in Fser]
    node = partial(prepared.node, P, m)
    if wg > 1:
        # the w-lift: the slice Fser[0], read as a w-series of one-row lists
        leaves = _lift_tree([[row] for row in Fser[0]], wg, m, node, 0, len(groups))
        images = [[rows[0] for rows in leaf] for leaf in leaves]
        for image, (_, e) in zip(images, groups):
            if e > 1:
                root = _rows_of(_series_root([_dict_of(image)], e, wg, m)[0], wg)
                power = reduce(partial(_rows_mul, L=wg, m=m), [root] * e)
                if power != [up_mod(row, m) for row in image]:
                    raise _DegeneratePoint("a group's lift in w is no power")
        Fser = [rows[:wlen] for rows in Fser]
        images = [image[:wlen] for image in images]

        def node(first, count):
            # the node's w-lifted images, and its one solver
            h = count // 2
            A0, B0 = (
                reduce(partial(_rows_mul, L=wlen, m=m), images[lo:hi])
                for lo, hi in ((first, first + h), (first + h, first + count))
            )
            return A0, B0, prepared.node(P, m, first, count)[2]

    leaves = _lift_tree(Fser, K, m, node, 0, len(groups))
    leaves = [[_dict_of(rows) for rows in leaf] for leaf in leaves]

    def candidate(S):
        mults = {groups[i][1] for i in S}
        if len(mults) != 1:
            return None
        mult = mults.pop()
        Wser = leaves[S[0]]
        for i in S[1:]:
            Wser = _series_mul(Wser, leaves[i], K, wlen, m)
        if mult > 1:
            Wser = _series_root(Wser, mult, wlen, m)
        # back to the original coordinates, where the coefficients to
        # reconstruct are small
        Wq = _series_to_qpoly(_shift_series(Wser, -v0, -w0, m), v, w, n, m)
        return None if Wq is None else (Wq, mult)

    return groups, candidate


def _attempt_lift(reading, v0, base, bounds=None, w0=0):
    """The complete [(factor, mult)] of the read f lifted from `base`, its
    factorization at (z_v, z_w) = (v0, w0), or with `bounds` the unproved
    candidates within them (`_lift`), sorted as FactorList sorts."""
    groups, candidate = _lift(reading, v0, PreparedBase(base), bounds, w0)
    if bounds is None:
        found = _complete_recombination(_poly(reading), groups, candidate)
    else:
        found = _bounded_recombination(groups, candidate, bounds[0])
    return sorted(found, key=lambda pm: factor_sort_key(pm[0]))


def _complete_recombination(f, groups, candidate):
    """Every irreducible factor of f with its multiplicity.  Subsets are
    tried smallest first, up to half the groups left, as in Zassenhaus
    (`_recombine`).  Each factor found is divided out as often as its
    groups' multiplicity, so it took exactly its groups."""
    remaining = f
    results = []

    def accept(S):
        nonlocal remaining
        found = candidate(S)
        if found is None:
            return False
        P = found[0].canonical()
        quotient, count = divide_out(remaining, P)
        if count == 0:
            return False
        # a complete lift divides out exactly the groups it used
        if count != found[1]:
            raise _AttemptFailed("multiplicity mismatch")
        results.append((P, count))
        remaining = quotient
        return True

    left = _recombine(len(groups), lambda left: len(left) // 2, accept)
    # By the lift's uniqueness the groups left lift one irreducible factor
    # of what is left of f, to their common multiplicity: `remaining` itself
    # for multiplicity 1, otherwise accept() must divide it to a constant.
    if left and {groups[i][1] for i in left} == {1}:
        results.append((remaining.canonical(), 1))
    elif (left and not accept(left)) or not remaining.is_constant():
        raise _AttemptFailed("recombination incomplete")
    return results


def _bounded_recombination(groups, candidate, bx):
    """Every candidate (P, e) of x-degree <= bx that reconstructs, up to the
    most groups that fit bx: unproved, so none takes groups or divides f."""
    degrees = [dxu for dxu, _ in groups]
    most = sum(t <= bx for t in accumulate(sorted(degrees)))
    results = []

    def offer(S):
        found = candidate(S) if sum(degrees[i] for i in S) <= bx else None
        if found is not None:
            results.append((found[0].canonical(), found[1]))
        return False

    _recombine(len(groups), lambda left: most, offer)
    return results


def lift_slice(reading, prepared, wanted):
    """The factor lifted from each group of `prepared` (`PreparedBase`),
    the complete factorization of the read f at the origin of its side
    variables, whose index is in `wanted`, in that order (only these are
    reconstructed), by Wang's lift from a known point (Math. Comp. 1978).
    f is monic in x, read as `read_table` reads a line slice f(x, t),
    whose groups are in x alone (`slice_point`), or trivariate.  Every
    slice lifted from one preparation shares its tables and tree nodes.
    None where a group does not reconstruct, and everywhere when the lift
    fails.  Unproved: the caller decides."""
    try:
        _, candidate = _lift(reading, 0, prepared)
    except _AttemptFailed:
        return [None] * len(wanted)
    found = [candidate((i,)) for i in wanted]
    return [None if pair is None else pair[0] for pair in found]


_MAX_EVAL_ATTEMPTS = 400
_RANK_SIDE = 1009  # probes are ranked by their images at z_w = _RANK_SIDE


def _fold(rows, r, dv, dw):
    """Integer rows (`read_table`) of degrees at most (dv, dw) in (z_v, z_w)
    at z_w = r, exactly: per x-row, the list by v-exponent of sum c r^ew."""
    power = [r**k for k in range(dw + 1)]
    folded = [[0] * (dv + 1) for _ in rows]
    for out, row in zip(folded, rows):
        for ev, ew, c in row:
            out[ev] += c * power[ew]
    return folded


def _row_values(folded, v0):
    """The exact value at z_v = v0 of each x-row of folded rows (`_fold`)."""
    power = [v0**k for k in range(max(map(len, folded)))]
    return [sum(map(mul, row, power)) for row in folded]


def _images(values, den, p):
    """values / den mod the prime p, which does not divide den."""
    scale = pow(den, -1, p)
    return [c * scale % p for c in values]


def _probes(reading):
    """The probe points z_v = v0 of the read f, best first, then None if
    an image certifies f irreducible: the one ranking of a trivariate f's
    v-probes and of its slice's w-probes.  Points 0, 1, -1, ... that drop
    f's degree in z_w are skipped (they force a finer base split and a
    doomed lift): every x-row of f's top z_w terms, a polynomial in z_v,
    vanishes there (never for dw = 0).  Each probe is ranked by its image
    f(x, v0, _RANK_SIDE), monic of degree dx, four probes at a time: first
    by its squarefree degree mod P, largest first, which never exceeds the
    probe's squarefree x-degree over Q and equals it at generic points;
    then, for a squarefree image of full degree, by its number of distinct
    irreducible factors mod the least prime q that keeps it squarefree (P
    at worst), fewest first (Wang's choice, Math. Comp. 1978), which
    bounds the probe's factor count over Q; then earliest.  f's monic
    factors have denominators dividing f's, which q avoids, so one factor
    mod q proves f irreducible.  f's rows are folded at z_w = _RANK_SIDE
    once (`_fold`), and each probe evaluates them once, exactly
    (`_row_values`): its images mod P and mod q reduce those integers."""
    rows, den, (dx, dv, dw), P = reading.rows, reading.den, reading.degrees, reading.prime
    # per x-row, top first, the (v-exponent, integer) of f's top z_w terms
    top_w = [[(ev, c) for ev, ew, c in row if ew == dw] for row in reversed(rows)]
    folded = _fold(rows, _RANK_SIDE, dv, dw)
    points = _eval_points()
    consumed = 0
    pool = []  # [quality, count, arrival, v0]
    while True:
        while len(pool) < 4 and consumed < _MAX_EVAL_ATTEMPTS:
            v0 = next(points)
            consumed += 1
            if not any(sum(c * v0**ev for ev, c in row) for row in top_w):
                continue
            values = _row_values(folded, v0)
            img = _images(values, den, P)
            quality = dx - up_deg(up_gcd_p(img, up_deriv(img), P))
            count = 0
            if quality == dx:
                for q in primes(3):
                    if den % q:
                        small = _images(values, den, q) if q < P else img
                        if q == P or up_deg(up_gcd_p(small, up_deriv(small), q)) == 0:
                            break
                count = _factor_count_mod_p(small, q)
                if count == 1:
                    yield None
                    return
            pool.append([quality, count, consumed, v0])
        if not pool:  # pragma: no cover
            raise LiftFailure("no good evaluation point found")
        pool.sort(key=lambda t: (-t[0], t[1], t[2]))
        yield pool.pop(0)[3]


def _univariate_base(reading, t0):
    """The factorization over Q of the read f, with dw = 0, at z_v = t0:
    [(canonical irreducible in x alone, multiplicity)]."""
    rows = [[(0, 0, sum(c * t0**ev for ev, _, c in row))] for row in reading.rows]
    return _factor_univariate_pairs(rows, 1)


def _factor_monic_sparse(f, bounds=None):
    """[(canonical irreducible, mult)] for f monic in variable 1, <=3 vars;
    with per-variable degree `bounds`, unproved candidates (_attempt_lift).
    f is a SparsePoly, read here, or its reading (`read_table`), which may
    hold no SparsePoly: f itself is built only when it comes back whole.
    A popped v-probe v0 (`_probes`) of a trivariate f gives its slice
    F(x, v0, z_w) (`_slice`), whose w-probes w0 are ranked the same way;
    the univariate image at the popped point is factored over Q and lifted
    from.  A degenerate (v0, w0) moves on to the next w-probe, any other
    failed lift to the next v-probe."""
    reading = f if isinstance(f, _Reading) else read_table(f.n, *_int_table(f), f=f)
    dx, dv, dw = reading.degrees
    if not dv:  # f is a polynomial in x alone: z_v has the larger side degree
        return _factor_univariate_pairs(reading.rows, reading.n)
    if not dx:
        raise PolyError("input not monic in its main variable")
    for v0 in _probes(reading):
        if v0 is None:
            break
        # a bivariate f is its own slice, read at z_v = v0
        plane = _slice(reading, v0) if dw else reading
        for t0 in _probes(plane) if dw else [v0]:
            # None, or an irreducible image, certifies f irreducible
            base = t0 is not None and _univariate_base(plane, t0)
            if not base or (len(base) == 1 and base[0][1] == 1):
                return [(_poly(reading).canonical(), 1)]
            try:
                return _attempt_lift(reading, v0, base, bounds, t0 if dw else 0)
            except _DegeneratePoint:
                continue
            except _AttemptFailed:
                break
    # an irreducibility certificate: f comes back whole
    return [(_poly(reading).canonical(), 1)]


# ---------------------------------------------------------------------------
# public operations


def _require_monic_in_x(f):
    dx = f.degree_in(1)
    if dx is None or dx < 1:
        raise PolyError("expected a nonconstant polynomial, monic in x")
    for exps, c in f.terms.items():
        if exps[0] == dx:
            if any(exps[1:]) or c != ONE:
                raise PolyError("polynomial is not monic in x")


def factor_monic(f):
    """FactorList of a SparsePoly (<=3 vars) monic in variable 1: complete
    and not multiplied back out.  Yun and Zassenhaus end on exact quotients
    in Z[x], the lift divides each factor out as often as its multiplicity
    down to a constant, an irreducibility certificate returns f itself, and
    re-embedding dropped variables is a ring automorphism."""
    _require_monic_in_x(f)
    return FactorList.build(f.leading_coefficient(), _factor_monic_sparse(f))


def factor_candidates(f, bounds):
    """Unproved candidates for the factors of f within per-variable degree
    `bounds`, x first: f is a SparsePoly (<=3 vars) or its reading
    (`read_table`), monic in x, which the caller checks, as
    `engine._psi_reading` checks the projected image.  The bounds are
    proportional: a wanted factor of x-degree a <= bounds[0] lies within
    bounds[i] * a / bounds[0] in each side variable i, as psi's image of a
    factor of total degree a lies within (a, a W, a) of the scheme's
    (delta, delta W, delta), and the lift stops where such factors end.
    The result, in FactorList order with scalar 1, holds each of f's
    irreducible factors within the bounds with its multiplicity in f, and
    possibly products of them or junk; the caller's division of f decides."""
    pairs = _factor_monic_sparse(f, bounds)
    return FactorList.build(ONE, [(g, e) for g, e in pairs if g.degree_in(1) <= bounds[0]])


def factor_lowvar(f):
    """Complete factorization of any nonconstant SparsePoly in <=3 variables.

    Univariate input goes straight to Yun and Zassenhaus.  Non-monic inputs
    are sheared (z_j += c_j * z_1) until the z1-leading coefficient is
    constant, factored, and sheared back; the shear is a ring automorphism,
    so the product proved as in `factor_monic` carries over.
    """
    if f.n > 3:
        raise PolyError("dense factorization supports at most 3 variables")
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.is_constant():
        return FactorList.build(f.constant_value(), [])
    if f.n == 1:
        return FactorList.build(f.leading_coefficient(), _factor_monic_sparse(f))
    d = f.degree()
    top = f.hom_component(d)
    # top is a nonzero form, so it is nonzero at some (1, c) with c in
    # {0..d}^(n-1); the shear takes the first c by total, then lexicographically
    shear = next(
        combo
        for total in range(d * f.n + 2)
        for combo in product(range(total + 1), repeat=f.n - 1)
        if sum(combo) == total and top.eval_point((ONE,) + tuple(Q(c) for c in combo))
    )

    def shear_map(sign):
        """z_1 -> z_1 and z_j -> z_j + sign * c_j z_1."""
        x = SparsePoly.variable(f.n, 1)
        return [x] + [
            SparsePoly.variable(f.n, j) + x.scale(sign * c)
            for j, c in enumerate(shear, start=2)
        ]

    sheared = f.substitute(shear_map(1), m=f.n)
    lc = sheared.terms[(d,) + (0,) * (f.n - 1)]
    pairs = _factor_monic_sparse(sheared.scale(ONE / lc))
    back = shear_map(-1)
    return FactorList.build(
        f.leading_coefficient(),
        [(g.substitute(back, m=f.n).canonical(), mult) for g, mult in pairs],
    )


def is_irreducible_lowvar(f):
    """True iff the nonconstant polynomial, which depends on at most 3 of its
    variables, is irreducible; the variables it depends on are compacted
    into the first slots before it is factored."""
    support = sorted(f.var_support())
    if not support:
        raise PolyError("irreducibility is for nonconstant polynomials")
    positions = {var - 1: slot for slot, var in enumerate(support)}
    fl = factor_lowvar(f.map_variables(positions, len(support)))
    return len(fl.factors) == 1 and fl.factors[0][1] == 1

