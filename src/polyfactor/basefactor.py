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
variable, reads as dw = 0.  Evaluate the largest-degree side variable v at
points 0, 1, -1, 2, ..., skipping points that drop the other side
variable's degree; each probe's image, and the base factored at the popped
probe, come from f's integer rows.  Each probe is ranked by one univariate
image (w at a fixed nonzero value): first by its squarefree degree deg -
deg gcd(image, image') mod P, largest first, which never exceeds the
probe's squarefree x-degree over Q and equals it at generic points; then,
for a squarefree image of full degree, by its number of distinct
irreducible factors mod the least prime q that keeps it squarefree (the
dimension of its Berlekamp nullspace), fewest first, an upper bound on the
probe's factor count over Q; then earliest.  Only the popped probe is factored over Q, recursively.
Since f is monic in x and its monic factors have denominators dividing
f's, a factorization of f maps to one of every image that keeps its
degree, so an image with one factor mod q, or a popped probe irreducible
over Q, proves f irreducible (von zur Gathen & Gerhard, Modern Computer
Algebra, 15-16).  Otherwise group the probe's factorization into prime
powers, find a point w0 of w where their images are pairwise coprime mod P
(else try the next probe), translate the evaluation point to the origin
mod P^k > 2B^2, B the Mignotte bound, Hensel-lift the groups there, and
recombine subsets of lifted groups, smallest first and up to half the
groups left (the rest then make one factor).  A subset of groups u^e lifts
U^e, so its product is rooted in the truncated series ring by Miller's
power recurrence, then translated back mod P^k before its coefficients are
reconstructed.  A lifted factor is a series in the evaluated variable
whose coefficients are packed (x, w) dicts mod P^k, w the remaining side
variable; each lift step solves one Diophantine equation by dot products
with the precomputed solutions for x^i, the one for 1 expanded w-adically
from a Bezout pair at w = 0.  A group u^e enters as u's primitive integer rows
over their x-leading integer, a divisor of f's denominator, raised to e
mod P^k.  Every lift reads its base through a `PreparedBase`: the
groups' tables, their coprime point per prime, and the lift tree's nodes
(each node's A0, B0 and `_Dioph`) kept at one modulus M, a power of P,
which a later lift at a modulus dividing M reads reduced (the images are
exact and the solutions unique) and any other lift rebuilds at
max(m, M^2), continuing each node's Bezout pair.  When the
factorization at one point is already known (a line slice f(x, t) whose
t = 0 image was factored before), `lift_slice(reading, prepared, wanted)`
lifts in f's last variable and returns the factor lifted from each wanted
group, unproved, reconstructing no other; `slice_point(base)` finds, once
per factorization of a polynomial in (x, t1), the least t1 = w0 where its
groups are pairwise coprime mod P, so every line from there lifts with
dw = 0, and prepares their images there once for all those lines.
`factor_monic(f, bounds=...)` asks only for the factors within
proportional degree bounds (bx, bv, bw), a factor of x-degree a lying
within (a, a bv / bx, a bw / bx): only subsets within the x-bound
recombine, and the lift stops at the v- and w-orders the largest x-degree
such a subset reaches allows (Wang's EEZ lift, Math. Comp. 1978, cut at
the wanted degrees); it returns unproved candidates, and the caller's
division of its own input decides.  Exact
divisions over Q are the whole proof of a complete factorization: Yun and
Zassenhaus end on exact quotients in Z[x], and the lift divides each
factor out of what is left of f as often as its multiplicity and requires
a constant at the end, so a degenerate evaluation point fails the lift or
a division and costs another point, never correctness.
"""

import math
from collections import namedtuple
from copy import copy
from functools import partial
from itertools import accumulate, combinations, product
from operator import mul

from .rational import Q, ONE, primes
from .sparse import SparsePoly, _from_table, _int_table, _mul_into
from .factors import FactorList, divide_out, factor_sort_key
from .errors import LiftFailure, PolyError, ZeroPolynomialError


class _AttemptFailed(Exception):
    """Internal: current evaluation point cannot support a verified lift."""


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


def _int_rows(f, v=None, w=None):
    """(rows, den): f's terms as integers over their common denominator den,
    rows[ex] holding (v-exponent, w-exponent, integer) for each term of
    x-degree ex (x is variable 1; a variable None, or past f's n, has
    exponent 0: it reads the 0 appended to each exponent tuple)."""
    table, den = _int_table(f)
    iv, iw = (i - 1 if i and i <= f.n else f.n for i in (v, w))
    rows = [[] for _ in range((f.degree_in(1) or 0) + 1)]
    for exps, c in table.items():
        exps += (0,)
        rows[exps[0]].append((exps[iv], exps[iw], c))
    return rows, den


def _eval_rows(rows, den, v0, w0, p):
    """rows / den at z_v = v0, z_w = w0 mod the prime p (`_int_rows`' rows,
    p not dividing den), as an ascending list of x-coefficients; the power
    of v0 or w0 at each exponent present is taken once."""
    scale = pow(den, -1, p)
    vp = {ev: pow(v0, ev, p) for ev in {ev for row in rows for ev, _, _ in row}}
    wp = {ew: pow(w0, ew, p) for ew in {ew for row in rows for _, ew, _ in row}}
    return [sum(c * vp[ev] * wp[ew] for ev, ew, c in row) * scale % p for row in rows]


def _factor_univariate_pairs(rows, n):
    """[(canonical irreducible, multiplicity)] for a polynomial in x alone,
    read as integer rows (`_int_rows`), in n variables (the others unused).

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


def cd_sub(a, b, m):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return cd_reduce(out, m)


# ---------------------------------------------------------------------------
# diophantine solver


def _cd_to_tau_series(d, length):
    """(x, w) dict -> list over w-order of x coefficient lists."""
    rows = [dict() for _ in range(length)]
    for key, v in d.items():
        ex, ew = cd_unpack(key)
        if ew < length:
            rows[ew][ex] = v
    out = []
    for row in rows:
        lst = [0] * (max(row, default=-1) + 1)
        for ex, v in row.items():
            lst[ex] = v
        out.append(up_trim(lst))
    return out


class _Dioph:
    """Solve dA*B0 + dB*A0 = e mod (w^length, m) for (x, w) dicts, A0 and
    B0 monic in x, deg_x e < D = deg_x A0 + deg_x B0, with deg_x dA <
    deg_x A0 and deg_x dB < deg_x B0: the solution is unique, and linear in
    e, so it is read off precomputed solutions (sigma_i, tau_i) for each
    x^i, i < D (Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
    6.5).  Column 0, for 1, is expanded w-adically from a Bezout pair
    s a0 + t b0 = 1 of the w = 0 rows; each next column is x times the last,
    minus q A0 and plus q B0, q its x^(deg A0) coefficient, a series in w.
    `solve` then takes one dot product per coefficient of dA and dB with
    e's (w-order, x) coefficients.

    The pair with deg s < deg b0 is unique too (von zur Gathen & Gerhard,
    Modern Computer Algebra, 15.4), so `memo`, the tree node's memo of the
    pair per prime p, serves every lift of the same a0 and b0: memo[p]
    holds (mu, s, t) at the largest modulus mu = p^k lifted to so far.  A
    smaller m reduces it; a larger one continues its `_bezout_step`
    squarings and stores the pair at m, not at the overshoot, since a0 and
    b0 are known mod m only."""

    def __init__(self, A0, B0, length, p, m, memo=None):
        self.m = m
        self.length = length
        A0tau = _cd_to_tau_series(A0, length)
        B0tau = _cd_to_tau_series(B0, length)
        a0, b0 = A0tau[0], B0tau[0]
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
        na, nb = up_deg(a0), up_deg(b0)
        self.D = D = na + nb
        # column 0: sigma B0 + tau A0 = 1, one w-order at a time; w-orders
        # past both bases' w-degrees add nothing to the residual
        span = 1 + max(j for j in range(length) if A0tau[j] or B0tau[j])
        sigma, tau = [[] for _ in range(length)], [[] for _ in range(length)]
        residual = [[1]] + [[] for _ in range(length - 1)]
        for k, c in enumerate(residual):
            if not c:
                continue
            q, sigma[k] = up_divmod(up_mul(t, c, m), a0, m)
            tau[k] = up_add(up_mul(s, c, m), up_mul(q, b0, m), m)
            for j in range(1, min(length - k, span)):
                upd = up_add(up_mul(sigma[k], B0tau[j], m), up_mul(tau[k], A0tau[j], m), m)
                residual[k + j] = up_sub(residual[k + j], upd, m)

        def padded(series, n):
            return [row[:n] + [0] * (n - len(row)) for row in series]

        # columns[i] = (sigma_i, tau_i), each w-order an x-list of full length.
        # The next column is x times the last, minus q A0 and plus q B0, q
        # the last sigma's top coefficient: x sigma's top term cancels
        # against A0's monic x-leading term, and x tau's against B0's, so
        # only their lower terms (`low`) enter
        A_low, B_low = padded(A0tau, na), padded(B0tau, nb)

        def step(rows, low, q, sign):
            return [
                [
                    (c + sign * sum(q[j] * low[k - j][i] for j in range(k + 1))) % m
                    for i, c in enumerate([0] + row[:-1])
                ]
                for k, row in enumerate(rows)
            ]

        columns = [(padded(sigma, na), padded(tau, nb))]
        for _ in range(1, D):
            sig, ta = columns[-1]
            q = [row[-1] for row in sig]
            columns.append((step(sig, A_low, q, -1), step(ta, B_low, q, 1)))
        # the coefficient of x^i w^k in dA (or dB) is the dot product of its
        # row with e flattened as E[j D + ex] = coefficient of x^ex w^j
        self.rows = [
            [
                (cd_pack(i, k), [col[side][k - j][i] for j in range(k + 1) for col in columns])
                for k in range(length)
                for i in range(n)
            ]
            for side, n in ((0, na), (1, nb))
        ]

    def reduced(self, m):
        """This solver mod m, m dividing self.m: the solutions with the
        degree bounds are unique, so the ones mod m are these reduced."""
        out = copy(self)
        out.m = m
        out.s, out.t = up_mod(self.s, m), up_mod(self.t, m)
        out.rows = [[(key, [c % m for c in row]) for key, row in rows] for rows in self.rows]
        return out

    def solve(self, e):
        D, m = self.D, self.m
        E = [0] * (D * self.length)
        for key, c in e.items():
            ex, ew = cd_unpack(key)
            if ex >= D:
                raise _AttemptFailed("diophantine right side of x-degree >= D")
            if ew < self.length:
                E[ew * D + ex] = c
        return tuple(
            {key: c for key, row in rows if (c := sum(map(mul, row, E)) % m)}
            for rows in self.rows
        )


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


def _lift_pair(Fser, A0, B0, K, m, dioph):
    A = [dict(A0)] + [dict() for _ in range(K - 1)]
    B = [dict(B0)] + [dict() for _ in range(K - 1)]
    AB = [dict() for _ in range(K)]  # unreduced; read through cd_sub
    # Fser is cut at w-order dioph.length, so the base product is compared
    # there too
    if cd_sub(_wcut(_mul_into({}, A0, B0), dioph.length), Fser[0], m):
        raise _AttemptFailed("base product mismatch")
    for j in range(1, K):
        E = cd_sub(Fser[j], AB[j], m)
        if not E:
            continue
        dA, dB = dioph.solve(E)
        for i in range(min(j, K - j)):  # A[i], B[i] are still zero for i >= j
            _mul_into(AB[i + j], dB, A[i])
            _mul_into(AB[i + j], dA, B[i])
        if 2 * j < K:
            _mul_into(AB[2 * j], dA, dB)
        A[j] = dA
        B[j] = dB
    return A, B


def _lift_tree(Fser, K, m, node, first, count):
    """The lifted series of groups first, ..., first + count - 1 of a base
    whose product Fser lifts; node(first, count) gives the tree node's
    (A0, B0, `_Dioph`) mod m (`PreparedBase.node`)."""
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


def _rows_to_series(rows, den, K, m):
    """The z_v-series of packed (x, w) dicts mod m of rows / den, the
    integer rows of `_int_rows`; den is invertible mod m."""
    inv = pow(den, -1, m)
    ser = [dict() for _ in range(K)]
    for ex, row in enumerate(rows):
        for ev, ew, c in row:
            ser[ev][cd_pack(ex, ew)] = c * inv % m
    return ser


def _shift_series(ser, cv, cw, m, vlen=None, wlen=None):
    """The v-series of packed (x, w) dicts ser(v + cv, w + cw) mod
    (v^vlen, w^wlen, m), vlen = len(ser) and no w cut by default: the
    classical Taylor shift (von zur Gathen & Gerhard, ISSAC 1997), each term
    expanded by binomials one variable at a time, w first, and only into
    the orders kept.  Sums stay unreduced until the end; a zero shift with
    no cut returns ser itself."""
    if vlen is None:
        vlen = len(ser)
    if not cv and not cw and vlen == len(ser) and wlen is None:
        return ser

    def taylor(e, c, n):
        """The coefficients of (z + c)^e below z^n (all for n None), ascending."""
        top = e + 1 if n is None else min(e + 1, n)
        return [math.comb(e, j) * c ** (e - j) for j in range(top)]

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
                    coeffs = table[ew] = taylor(ew, cw, wlen)
                low = key - ew
                for j, b in enumerate(coeffs):
                    out[low + j] = out.get(low + j, 0) + val * b
            rows.append(out)
    elif wlen is not None:
        rows = [_wcut(row, wlen) for row in ser]
    if cv:
        out = [dict() for _ in range(min(vlen, len(rows)))]
        for ev, row in enumerate(rows):
            if not row:
                continue
            for target, b in zip(out, taylor(ev, cv, vlen)):
                for key, val in row.items():
                    target[key] = target.get(key, 0) + val * b
        rows = out
    return [cd_reduce(row, m) for row in rows[:vlen]]


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


def _read(f, v, w):
    """f read once for its probes and lifts in z_v, keeping z_w: its integer
    rows over den (`_int_rows`), its degrees (dx, dv, dw) and the prime P.
    A bivariate f is read with w = 3, a variable it lacks, so dw = 0."""
    rows, den = _int_rows(f, v, w)
    exps = [(ev, ew) for row in rows for ev, ew, _ in row]
    degrees = (len(rows) - 1,) + tuple(max(col) for col in zip(*exps))
    return _Reading(f, f.n, v, w, rows, den, degrees, _prime_avoiding(den))


def read_table(n, table, den, unpack=None, f=None):
    """The reading of f = table / den, a polynomial in n <= 3 variables with
    x first, as `_read(f, v, 5 - v)` reads it (the same rows up to their
    order, den, degrees and prime), for z_v the side variable of largest
    degree, the first on a tie (z2 for a bivariate f).  table holds
    integers on exponent tuples (`_int_table`), or on packed keys that
    unpack turns into them, as the substitution kernel's integer core
    leaves them (`sparse._compose`); then no SparsePoly is made, and the
    reading's f is None.  Dividing table and den by their gcd makes den
    the least common denominator of f's coefficients, the den
    `_int_table` reads."""
    g = math.gcd(den, *table.values())
    keys = table if unpack is None else map(unpack, table)
    terms = [(e + (0,) * (3 - n), c // g) for e, c in zip(keys, table.values()) if c]
    tops = [max(col) for col in zip(*(e for e, _ in terms))] or [0, 0, 0]
    v = 3 if tops[2] > tops[1] else 2
    w = 5 - v
    rows = [[] for _ in range(tops[0] + 1)]
    for e, c in terms:
        rows[e[0]].append((e[v - 1], e[w - 1], c))
    den //= g
    degrees = (tops[0], tops[v - 1], tops[w - 1])
    return _Reading(f, n, v, w, rows, den, degrees, _prime_avoiding(den))


def _from_rows(reading, v0=None):
    """The read f rebuilt from its integer rows, or with v0, f at z_v = v0
    as `f.eval_var(v, v0)` gives it (z_v's slot dropped), summed on
    integers: one rational per term of the result."""
    n, v, w = reading.n, reading.v, reading.w
    table = {}
    if v0 is None:
        for ex, row in enumerate(reading.rows):
            for ev, ew, c in row:
                exps = [ex, 0, 0]
                exps[v - 1], exps[w - 1] = ev, ew
                table[tuple(exps[:n])] = c
        return _from_table(n, table, reading.den)
    power = [v0**k for k in range(reading.degrees[1] + 1)]
    for ex, row in enumerate(reading.rows):
        for ev, ew, c in row:
            key = (ex, ew)[: n - 1]
            table[key] = table.get(key, 0) + c * power[ev]
    return _from_table(n - 1, table, reading.den)


def _poly(reading):
    """The read f: the reading's own, or one rebuilt from its rows."""
    return reading.f if reading.f is not None else _from_rows(reading)


def _group_tables(base):
    """(rows, lc) for each group u of `base`, a factorization of f at one
    point: u's primitive integer rows, z_w its variable 2 (`_int_rows`),
    and their x-leading integer.  A factor of a monic-in-x polynomial has a
    constant x-leading coefficient, so the groups' monic images multiply to
    f's image exactly; _AttemptFailed when one has not."""
    tables = []
    for u, _ in base:
        rows = _int_rows(u, None, 2)[0]
        content = math.gcd(*(c for row in rows for _, _, c in row))
        rows = [[(ev, ew, c // content) for ev, ew, c in row] for row in rows]
        if len(rows[-1]) != 1 or rows[-1][0][1]:
            raise _AttemptFailed("non-constant x-leading coefficient")
        tables.append((rows, rows[-1][0][2]))
    return tables


def _coprime_point(tables, dw, P):
    """The least w0 in range(2 dw r^2 + 3), r the groups, at which the
    groups' images (`_group_tables`) are pairwise coprime mod P, or None;
    P divides no group's lc.  With dw = 0 the images do not depend on w,
    so only w0 = 0 is scanned."""

    def coprime(w0):
        images = [_eval_rows(rows, lc, 0, w0, P) for rows, lc in tables]
        return all(up_deg(up_gcd_p(a, b, P)) == 0 for a, b in combinations(images, 2))

    scan = range(2 * dw * len(tables) ** 2 + 3 if dw else 1)
    return next((w0 for w0 in scan if coprime(w0)), None)


def _cd_product(factors, wlen, m):
    """The product of (x, w) dicts mod (w^wlen, m)."""
    out = factors[0]
    for g in factors[1:]:
        out = cd_reduce(_wcut(_mul_into({}, out, g), wlen), m)
    return out


class PreparedBase:
    """`base`, a factorization [(u, e)] of f at one point, prepared once for
    every lift from it: its groups' tables (`_group_tables`), their
    (x-degree, multiplicity), their coprime point per (dw, P)
    (`_coprime_point`), and the nodes of the lift tree (`node`).  For one P,
    every point found is the least coprime w0, so each node's a0 and b0 are
    the same in every lift and one memo serves them all."""

    def __init__(self, base):
        self.tables = _group_tables(base)
        self.groups = [(len(rows) - 1, e) for (rows, _), (_, e) in zip(self.tables, base)]
        self.points = {}
        self.trees = {}  # (P, w0, wlen) -> (M, images mod M, {node: (A0, B0, _Dioph)})
        self.bezout = {}  # node -> its Bezout memo (`_Dioph`)

    def point(self, dw, P):
        if (dw, P) not in self.points:
            self.points[dw, P] = _coprime_point(self.tables, dw, P)
        return self.points[dw, P]

    def images(self, w0, wlen, m):
        """Each group u^e at (x, w + w0) mod (w^wlen, m): u's integer rows
        over their x-leading integer, raised to e."""
        out = []
        for (rows, lc), (_, mult) in zip(self.tables, self.groups):
            g = _shift_series(_rows_to_series(rows, lc, 1, m), 0, w0, m, 1, wlen)[0]
            out.append(_cd_product([g] * mult, wlen, m))
        return out

    def node(self, P, w0, wlen, m, first, count):
        """(A0, B0, dioph) mod m of the lift tree node over the groups
        first, ..., first + count - 1: A0 the product of the first count // 2
        groups' images at w0 mod (w^wlen, m), B0 of the rest, and their
        `_Dioph`.  The tree of each (P, w0, wlen) keeps its nodes at one
        modulus M, a power of P.  An m dividing M reads them mod m: the
        images are exact over Q with denominators P avoids, so A0 and B0
        mod M reduce to A0 and B0 mod m, and the unique solutions mod M to
        the unique ones mod m, the numbers a fresh build gives.  Any other m
        rebuilds the tree at max(m, M^2), so a precision that keeps rising
        rebuilds it rarely; each node's Bezout pair is memoized across
        rebuilds (`_Dioph`)."""
        key = (P, w0, wlen)
        tree = self.trees.get(key)
        if tree is None or tree[0] % m:
            M = m if tree is None else max(m, tree[0] ** 2)
            tree = self.trees[key] = (M, self.images(w0, wlen, M), {})
        M, images, nodes = tree
        if (first, count) not in nodes:
            h = count // 2
            A0 = _cd_product(images[first : first + h], wlen, M)
            B0 = _cd_product(images[first + h : first + count], wlen, M)
            memo = self.bezout.setdefault((first, count), {})
            nodes[first, count] = (A0, B0, _Dioph(A0, B0, wlen, P, M, memo))
        A0, B0, dioph = nodes[first, count]
        if M == m:
            return A0, B0, dioph
        return cd_reduce(A0, m), cd_reduce(B0, m), dioph.reduced(m)


def slice_point(base):
    """(w0, line): the least t1 = w0 >= 0 at which the groups of `base`,
    the factorization of a polynomial in (x, t1) monic in x, have images
    h(x, w0) pairwise coprime mod the least prime >= 2^20 avoiding their
    denominators, so each group lifts from t1 = w0 on any line through
    that point, and `line`, those images prepared once for lifting every
    line slice from there (`PreparedBase`); None when no w0 scanned gives
    them."""
    tables = _group_tables(base)
    dw = sum(e * (u.degree_in(2) or 0) for u, e in base)
    w0 = _coprime_point(tables, dw, _prime_avoiding(math.lcm(*(lc for _, lc in tables))))
    if w0 is None:
        return None
    return w0, PreparedBase([(u.eval_var(2, w0), e) for u, e in base])


def _lift(reading, v0, prepared, bounds=None):
    """(groups, candidate): f's factorization at z_v = v0, prepared
    (`PreparedBase`), lifted mod P^k > 2B^2 (P the reading's prime, B =
    _factor_bound); groups[i] is group i's (x-degree, multiplicity).
    candidate(S) is (G, e), G monic in x and G^e the factor the groups S
    lift, reconstructed over Q and unproved (junk reconstructs too); None
    when their multiplicities differ or nothing reconstructs.  Raises
    _AttemptFailed when the base images are not squarefree and coprime mod
    P at any w0 scanned.

    The lift runs mod (v^K, w^wlen), K = dv + 1 and wlen = dw + 1.  Base
    images coprime mod (P, w - w0) make the lifted factors unique mod
    (v^K, w^wlen, P^k), so a product of lifted factors truncates the factor
    of f it lifts, whose degrees <= (dv, dw) keep it whole.  A group u^e,
    u read as its primitive integer rows over their x-leading integer,
    lifts to U^e, so a subset of groups of one multiplicity e is rooted
    (`_series_root`) before it is reconstructed.  `bounds` (bx, bv, bw),
    per variable (x first), are proportional: a wanted factor of x-degree a
    lies within (a, a bv / bx, a bw / bx).  No subset recombined with
    x-degree <= bx passes a = min(bx, the sum of the group x-degrees <= bx),
    so the lift is cut at K = min(dv, a bv // bx) + 1 and wlen =
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
    # P avoids f's denominators, which each group's lc divides (Gauss's lemma)
    w0 = prepared.point(dw, P)
    if w0 is None:
        raise _AttemptFailed("no w0 gives coprime base images")
    # a monic factor of f is G / lc(G), G an integer factor of f's integer
    # form, and lc(G) divides f's denominator, which P avoids, so a subset
    # that does not reconstruct is no factor; candidates are reconstructed
    # in the original coordinates, so B needs no term for the translation,
    # and they have degrees within the cut, which B's degree sum is
    B = _factor_bound([c for r in f_rows for *_, c in r], a + K + wlen - 2)
    m = P ** _precision(P, 2 * B * B + 1)

    # lift at the origin: translate the evaluation point there mod m, keeping
    # only the orders the lift carries; the groups' powers there are the
    # prepared tree's
    Fser = _shift_series(_rows_to_series(f_rows, f_den, dv + 1, m), v0, w0, m, K, wlen)
    node = partial(prepared.node, P, w0, wlen, m)
    leaves = _lift_tree(Fser, K, m, node, 0, len(groups))

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


def _attempt_lift(reading, v0, base, bounds=None):
    """The complete [(factor, mult)] of the read f lifted from `base`, its
    factorization at z_v = v0, or with `bounds` the unproved candidates
    within them (`_lift`), sorted as FactorList sorts."""
    groups, candidate = _lift(reading, v0, PreparedBase(base), bounds)
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
    the complete factorization of the read f with its last variable at 0,
    whose index is in `wanted`, in that order (only these are
    reconstructed), by Wang's lift from a known point (Math. Comp. 1978).
    f is bivariate or trivariate and monic in x, read for a lift in its
    last variable: `_read(f, f.n, 5 - f.n)`, or `read_table` for a line
    slice f(x, t), whose groups are in x alone (`slice_point`) and whose
    lift carries one w-order.  Every slice lifted from one preparation
    shares its tables, coprime point and tree nodes.  None where a group
    does not reconstruct, and everywhere when the lift fails.  Unproved:
    the caller decides."""
    try:
        _, candidate = _lift(reading, 0, prepared)
    except _AttemptFailed:
        return [None] * len(wanted)
    found = [candidate((i,)) for i in wanted]
    return [None if pair is None else pair[0] for pair in found]


_MAX_EVAL_ATTEMPTS = 400
_RANK_SIDE = 1009  # probes are ranked by their images at z_w = _RANK_SIDE


def _probe_images(reading):
    """(degraded, image) for the probes f(z_v = v0), off f's reading.
    degraded(v0) is True when v0 drops f's degree in z_w: every x-row of
    f's top z_w terms, a polynomial in z_v, vanishes there (never for
    dw = 0, where the x^dx row, read first, is f's leading term).
    image(v0, q) is f(x, v0, _RANK_SIDE) mod a prime q not dividing den, as
    an ascending list, monic of degree deg_x f since f is monic in x."""
    rows, den, dw = reading.rows, reading.den, reading.degrees[2]
    # per x-row, top first, the (v-exponent, integer) of f's top z_w terms
    top_w = [[(ev, c) for ev, ew, c in row if ew == dw] for row in reversed(rows)]

    def degraded(v0):
        return not any(sum(c * v0**ev for ev, c in row) for row in top_w)

    def image(v0, q):
        return _eval_rows(rows, den, v0, _RANK_SIDE, q)

    return degraded, image


def _factor_monic_sparse(f, bounds=None):
    """[(canonical irreducible, mult)] for f monic in variable 1, <=3 vars;
    with per-variable degree `bounds`, unproved candidates (_attempt_lift).
    f is a SparsePoly, read here, or its reading (`read_table`), which may
    hold no SparsePoly: each probe's base at z_v = v0 is built from the
    reading's rows, and f itself only when it comes back whole."""
    reading = f if isinstance(f, _Reading) else read_table(f.n, *_int_table(f), f=f)
    (dx, dv, _), v, den, P = reading.degrees, reading.v, reading.den, reading.prime
    if not dv:  # f is a polynomial in x alone: z_v has the larger side degree
        return _factor_univariate_pairs(reading.rows, reading.n)
    if not dx:
        raise PolyError("input not monic in its main variable")
    degraded, image = _probe_images(reading)
    point_iter = _eval_points()
    consumed = 0
    probes = []  # [quality, count, arrival, v0]

    def refill(window):
        """Top up the probe pool, ranking each probe by its images mod
        primes; True when an image certifies irreducibility."""
        nonlocal consumed
        while len(probes) < window and consumed < _MAX_EVAL_ATTEMPTS:
            v0 = next(point_iter)
            consumed += 1
            # points that drop a surviving variable's degree force a finer
            # base split and a doomed lift; skip them
            if degraded(v0):
                continue
            img = image(v0, P)
            # the squarefree x-degree mod P is at most the probe's over Q,
            # and equal to it at generic points
            quality = dx - up_deg(up_gcd_p(img, up_deriv(img), P))
            count = 0
            if quality == dx:
                # the factor count mod any prime that keeps the image
                # squarefree bounds the probe's count over Q; the least such
                # prime (P at worst) makes x^q mod the image cheapest
                for q in primes(3):
                    if den % q:
                        small = image(v0, q) if q < P else img
                        if q == P or up_deg(up_gcd_p(small, up_deriv(small), q)) == 0:
                            break
                count = _factor_count_mod_p(small, q)
                # f's monic factors have denominators dividing f's, which q
                # avoids, so a factorization of f maps to one of the image
                # that keeps its degree: one irreducible factor mod q
                # proves f irreducible
                if count == 1:
                    return True
            probes.append([quality, count, consumed, v0])
        return False

    while not refill(4):
        if not probes:  # pragma: no cover
            raise LiftFailure("no good evaluation point found")
        # prefer the point with the least factor merging (largest squarefree
        # part of the image), then the fewest factors mod q (Wang's choice,
        # Math. Comp. 1978), then the earliest
        probes.sort(key=lambda t: (-t[0], t[1], t[2]))
        v0 = probes.pop(0)[3]
        base = _factor_monic_sparse(_from_rows(reading, v0))
        if len(base) == 1 and base[0][1] == 1:
            break
        try:
            return _attempt_lift(reading, v0, base, bounds)
        except _AttemptFailed:
            continue
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


def factor_monic(f, bounds=None):
    """FactorList of a SparsePoly (<=3 vars) monic in variable 1.

    `bounds`, when given, holds a degree bound per variable, x first, and
    only the factors whose x-degree is at most bounds[0] are asked for.  The
    bounds are proportional: a wanted factor of x-degree a lies within
    bounds[i] * a / bounds[0] in each side variable i, as psi's image of a
    factor of total degree a lies within (a, a W, a) of the scheme's
    (delta, delta W, delta).  The lift stops where such factors end at the
    largest x-degree a recombined subset reaches (Wang's EEZ lift cut at
    the wanted degrees).  The result then holds unproved candidates in
    FactorList order (total degree first), scalar 1: each of f's
    irreducible factors within the proportional bounds with its
    multiplicity in f, and possibly products of them or junk; the caller's
    division of f decides.

    Without bounds the result is complete and not multiplied back out:
    Yun and Zassenhaus end on exact quotients in Z[x], the lift divides
    each factor out as often as its multiplicity down to a constant, an
    irreducibility certificate returns f itself, and re-embedding dropped
    variables is a ring automorphism."""
    _require_monic_in_x(f)
    if bounds is None:
        return FactorList.build(f.leading_coefficient(), _factor_monic_sparse(f))
    return factor_candidates(f, bounds)


def factor_candidates(f, bounds):
    """`factor_monic(f, bounds=bounds)`'s unproved candidates, for f monic
    in x: a SparsePoly, or its reading (`read_table`), checked monic by its
    reader, as `engine._psi_reading` checks the projected image."""
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
        rows = _int_rows(f)[0]
        return FactorList.build(f.leading_coefficient(), _factor_univariate_pairs(rows, 1))
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

