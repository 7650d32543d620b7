"""The factoring pipelines: projected factoring, the promise and general
constant-degree factor algorithms, and oracle-driven sparse factor
extraction.

Every pipeline keeps one residual: the input with each accepted factor
divided out, changed only by replacing it with an exact quotient.
The constant-degree pipelines project the input once, on the compact
isolation scheme, factor the trivariate image only as far as a factor of
degree <= delta reaches (the scheme's image degree bounds), and divide out
every candidate inverted through the map that made it: a trivariate factor
is read back on its x- and t-free terms and kept only when the forward map
gives it back exactly.  Under the promise a residual still nonconstant
after that pass is a violation.
Soundness never depends on the scheme: the exact division of the residual,
smallest candidate first, proves each emitted factor and its irreducibility.
"""

import math
from dataclasses import dataclass
from itertools import islice

from .rational import ONE, ZERO
from .sparse import SparsePoly, _compose, _from_table, _int_table, _tops
from .factors import FactorList, divide_out
from .errors import (
    CapError,
    InterpolationFailure,
    NotInCodomain,
    PolyError,
    PromiseViolation,
    VerificationError,
    ZeroPolynomialError,
)
from .pit import (
    find_nonzero_point,
    interpolate_lines,
    interpolation_plan,
    line_count,
    sparse_interpolate,
)
from .isolation import check_image_cells, compact_scheme, psi_images, psi_read_back
# no pipeline calls monicize, psi_invert, psi_map or to_dense; they stay
# importable from here because perfbench/tracer.py hooks them by name
from .isolation import psi_invert, psi_map
from .dense import to_dense
from .basefactor import factor_candidates, factor_monic, lift_slice, read_table, slice_point
from .divisibility import constant_degree_divides
from .config import DEFAULT as DEFAULT_CONFIG


@dataclass(frozen=True)
class MonicShift:
    alpha: tuple
    normalizer: object


@dataclass(frozen=True)
class ProjectedFactorSet:
    s_proj_fac_mult: tuple  # of (factor, multiplicity)
    shift: object
    scheme: object


def _project(f, alpha, directions, gamma):
    """f(alpha x + sum_k directions[k] t_k + gamma) over (x, t_1, ..), f
    already divided by its normalizer (far fewer terms than its image): with
    one direction the bivariate projection or a line slice, with the unit
    vectors the monic shift."""
    assignment = [
        SparsePoly.linear((alpha[i],) + tuple(d[i] for d in directions), gamma[i])
        for i in range(f.n)
    ]
    return f.substitute(assignment, m=1 + len(directions))


def _line_slices(scaled, alpha, origin):
    """read(omega): the line slice scaled(alpha x + (omega - origin) t +
    origin) read for `lift_slice` (`read_table`).  scaled is read into
    integers once, and each slice is expanded from that table by the
    substitution kernel's integer core (`sparse._compose`), so no
    SparsePoly or rational is made per slice."""
    table, den = _int_table(scaled)
    tops = _tops(table, scaled.n)

    def read(omega):
        images = []
        for coords in zip(alpha, origin, omega):
            # z_i -> (a x + (p - o) t + o) / d: the coordinates over one
            # denominator d, read as integers as eval_vars reads its values
            d = math.prod(int(c.denominator) for c in coords)
            a, o, p = (int(c.numerator) * (d // int(c.denominator)) for c in coords)
            terms = (((1, 0), a), ((0, 1), p - o), ((0, 0), o))
            images.append(({e: c for e, c in terms if c}, d))
        return read_table(2, *_compose(table, den, tops, images, 2))

    return read


def _monic_point(f):
    """(alpha, Hom[f](alpha) != 0): f(alpha x + z)/Hom[f](alpha) is monic in x."""
    d = f.degree()
    if d is None or d < 1:
        raise PolyError("cannot monicize a constant")
    top = f.hom_component(d)
    alpha = find_nonzero_point(top, f.n, d)
    return alpha, top.eval_point(alpha)


def monicize(f):
    """(MonicShift, f_alpha) with f_alpha = f(alpha x + z)/Hom[f](alpha),
    monic in the fresh variable x (slot 0 of the result).  Public API that
    no pipeline calls: `projected_factoring` composes the shift with psi
    in one substitution (`_psi_reading`)."""
    alpha, normalizer = _monic_point(f)
    d = f.degree()
    units = [[int(i == j) for i in range(f.n)] for j in range(f.n)]
    f_alpha = _project(f.scale(ONE / normalizer), alpha, units, (0,) * f.n)
    if f_alpha.degree_in(1) != d or f_alpha.terms.get((d,) + (0,) * f.n) != ONE:
        raise VerificationError("monic shift is not monic in x")
    return MonicShift(alpha, normalizer), f_alpha


def _psi_reading(f, alpha, normalizer, scheme):
    """The reading (`read_table`) of psi's image of the monic shift,
    f(alpha_i x + y^{w_i} t + y^{w'_i}) / normalizer in (x, y, t), since
    psi(f_alpha)(x, y, t) = f_alpha(x, psi(z)): one substitution on f's
    integer table (`sparse._compose`), 1 / normalizer folded into its
    denominator, and no rational or SparsePoly made.  VerificationError
    unless the image is monic in x of f's degree: its x^(deg f) row is the
    single term den."""
    table, den = _int_table(f)
    # f / (p / q) = (q table) / (p den), signs moved so that den stays positive
    p, q = int(normalizer.numerator), int(normalizer.denominator)
    if p < 0:
        p, q = -p, -q
    table = {e: c * q for e, c in table.items()}
    images = psi_images(scheme, alpha)
    reading = read_table(3, *_compose(table, den * p, _tops(table, f.n), images, 3))
    d = f.degree()
    if reading.degrees[0] != d or reading.rows[d] != [(0, 0, reading.den)]:
        raise VerificationError("the projected image is not monic in x")
    return reading


def projected_factoring(f, delta, config=None):
    """The unproved candidate factors of f's projection, with their groups'
    multiplicities: find the monic shift's point alpha (`_monic_point`),
    map f to three variables on the compact scheme, the shift and psi in
    one substitution read straight into integers (`_psi_reading`), and
    factor the image only as far as its image degree bounds reach
    (x-degree <= delta), since a factor of f of degree <= delta maps within
    them and its inversion (`_invert_candidate`) rejects any factor
    outside them."""
    config = config or DEFAULT_CONFIG
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if delta > config.max_delta:
        raise CapError("max_delta", delta, config.max_delta)
    if f.is_constant():
        raise PolyError("cannot factor a constant")
    scheme = compact_scheme(f.n, delta)
    # f_alpha(0, z) = f(z), and each term x^a z^e of f_alpha comes from a
    # term z^E of f with e <= E, so f's own terms give psi's image box of
    # f_alpha before the monic shift, d = deg f reaching in x and in t
    check_image_cells(f.degree(), f.terms, scheme, config.max_dense_cells)
    alpha, normalizer = _monic_point(f)
    reading = _psi_reading(f, alpha, normalizer, scheme)
    proj_mult = factor_candidates(reading, scheme.image_degree_bounds()).factors
    return ProjectedFactorSet(proj_mult, MonicShift(alpha, normalizer), scheme)


def _invert_candidate(h, proj):
    """The canonical g whose image is the trivariate factor h, or None: g is
    read back on h's x- and t-free terms (`psi_read_back`, degree <= delta)
    and kept when nonconstant and its image under the map that made h
    (`psi_images`) is h itself, unscaled, as g was read at h's scale.  The
    smallest-first argument of `_constant_degree_search` needs that."""
    try:
        g = psi_read_back(h, proj.scheme)
    except NotInCodomain:
        return None
    if g.is_constant():
        return None
    table, den = _int_table(g)
    images = psi_images(proj.scheme, proj.shift.alpha)
    if _from_table(3, *_compose(table, den, _tops(table, g.n), images, 3)) != h:
        return None
    return g.canonical()


def _constant_degree_search(f, delta, config):
    """(found, residual): project f once and divide out of the residual every
    inverted candidate that divides it, in order, the only proof.  A proper
    factor of a candidate g is a factor of f of degree <= delta, whose image
    is a candidate of smaller total degree that leaves the residual first,
    so a g that divides is irreducible; the residual changes only by exact
    quotients, so its count is its multiplicity in f."""
    if f.is_constant():
        raise PolyError("cannot factor a constant")
    proj = projected_factoring(f, delta, config)
    found = []
    residual = f
    for h, _ in proj.s_proj_fac_mult:
        g = _invert_candidate(h, proj)
        if g is None:
            continue
        residual, e = divide_out(residual, g)
        if e:
            found.append((g, e))
    return found, residual


def factor_constant_degree_promise(f, delta, config=None):
    """Complete factorization under the promise that every irreducible factor
    has degree <= delta; PromiseViolation when the projection pass leaves a
    nonconstant residual."""
    found, residual = _constant_degree_search(f, delta, config or DEFAULT_CONFIG)
    if not residual.is_constant():
        raise PromiseViolation("input has a factor of degree > %d" % delta)
    # lc(f) = c * prod lc(g)^e with every g canonical, so c is the scalar
    result = FactorList.build(residual.constant_value(), found)
    if result.recompose() != f:
        raise VerificationError("promise factorization does not recompose")
    return result


def factor_multiplicity(f, g):
    """Multiplicity of the irreducible g in f: the smallest e with g not
    dividing the e-th partial derivative along a variable g depends on."""
    if g.is_constant():
        raise PolyError("multiplicity of a constant is undefined")
    if f.is_zero():
        raise ZeroPolynomialError("every power of g divides the zero polynomial")
    support = g.var_support()
    z = min(support)
    e = 0
    current = f
    while True:
        if not constant_degree_divides(current, g):
            return e
        e += 1
        current = current.derivative(z, 1)


def constant_degree_factors(f, delta, config=None):
    """All irreducible factors of f of degree <= delta with multiplicities
    (no promise); factors outside the degree bound are left in the residual."""
    found, _ = _constant_degree_search(f, delta, config or DEFAULT_CONFIG)
    return FactorList.build(ONE, found)


# ---------------------------------------------------------------------------
# sparse factors through projection oracles (Algorithm "search, slice,
# interpolate, verify")


def sparse_irreducible_test(f, oracle, config=None):
    """Irreducibility for f in the oracle's class: f is reducible iff every
    projection f(alpha x + beta t + gamma) is reducible.

    An in-class f goes to the oracle's decision procedure when it has one,
    as in `sparse_factors`.  Otherwise True is proved by an irreducible
    degree-keeping projection.  The search stops after `config.su_stall`
    reducible projections, the cut `sparse_factors` uses, and then returns
    False: no preserving pair was found within the cut, which is a proof
    only when the oracle's pair set ran out first."""
    config = config or DEFAULT_CONFIG
    d = f.degree() or 0
    if d == 0:
        raise PolyError("irreducibility is for nonconstant polynomials")
    if d == 1:
        return True
    if oracle.decide_irreducible is not None and oracle.contains(f):
        return oracle.decide_irreducible(f)
    alpha, normalizer = _monic_point(f)
    f = f.scale(ONE / normalizer)
    for pair in islice(oracle.pairs(alpha), config.su_stall):
        image = _project(f, alpha, [pair.beta], pair.gamma)
        fl = factor_monic(image)
        if len(fl.factors) == 1 and fl.factors[0][1] == 1:
            return True
    return False


def _pair_candidates(residual, alpha, pair, s, oracle):
    """Certified irreducible candidate factors from one oracle pair, or None
    when the pair proves the residual irreducible.

    The bivariate projection r_hat of the residual, normalized by
    Hom[residual](alpha) != 0, keeps the residual's degree, so a
    factorization of the residual would factor r_hat: an irreducible r_hat
    gives None.  Otherwise, for each factor h2 of r_hat whose degree the
    class allows, the hidden factor g is read off line slices.  The groups
    of r_hat's factorization are pairwise coprime at t1 = w0
    (`slice_point`, which prepares the groups' images there once for
    every slice of the pair), and each slice is the line
    r(alpha x + (p - o) t + o) through o = gamma + w0 beta and a point p,
    whose t = 0 image is r_hat(x, w0), expanded on integers from the
    residual's table, read once per pair (`_line_slices`): `lift_slice`
    lifts a factor, monic in x, from each group's image there,
    reconstructing only the groups still wanted, and for a true factor's
    group its x-free row is g(o + t (p - o)) / Hom[g](alpha).  When the
    class's support S at h2's degree has at most s monomials, p = o +
    omega_L for the plan's points omega_L, and the rows of N = max_k |S_k|
    lines give g one degree at a time (`interpolate_lines`); otherwise p
    runs over the plan's 2s points, and Ben-Or-Tiwari interpolates the
    rows' values at t = 1, g(p) / Hom[g](alpha).  An interpolated g is
    kept only when it has the degree of h2 and its own projection,
    normalized by Hom[g](alpha), is h2: a factorization of g would then
    factor h2, so g is irreducible.
    Canonical candidates, or [] when no w0 is found, a lift fails or a
    group does not reconstruct."""
    n = residual.n
    normalizer = residual.hom_component(residual.degree()).eval_point(alpha)
    scaled = residual.scale(ONE / normalizer)
    r_hat = _project(scaled, alpha, [pair.beta], pair.gamma)
    base = factor_monic(r_hat).factors
    if len(base) == 1 and base[0][1] == 1:
        return None
    refs = []
    for i, (h, _) in enumerate(base):
        deg = h.degree_in(1)
        if oracle.class_degree_bound is not None and deg > oracle.class_degree_bound:
            continue  # no class member has this degree
        support = None
        if oracle.support_for_degree is not None:
            support = oracle.support_for_degree(deg)
            if len(support) > s:
                support = None  # wider than the bound: Ben-Or-Tiwari on 2s
        need = 2 * s if support is None else line_count(support)
        refs.append((i, h, deg, support, need, []))
    if not refs:
        return []
    # one shared point sequence, cut to the most points any ref needs (a
    # plan for bound k has 2k points); each ref consumes the prefix it needs
    most = max(ref[4] for ref in refs)
    plan = interpolation_plan((most + 1) // 2, n)[:most]
    found = slice_point(base)
    if found is None:
        return []
    # every slice is a line through o = gamma + w0 beta, whose t = 0 image
    # is r_hat(x, w0), prepared once as `line`: the line o + t omega_L for
    # a ref on a known support, the line from o to omega for Ben-Or-Tiwari
    w0, line = found
    origin = tuple(g + w0 * b for g, b in zip(pair.gamma, pair.beta))
    read = _line_slices(scaled, alpha, origin)
    for on_lines in (True, False):
        for w_idx, omega in enumerate(plan):
            active = [
                (i, values)
                for i, _, _, support, need, values in refs
                if (support is not None) == on_lines and w_idx < need
            ]
            if not active:
                break
            point = tuple(o + p for o, p in zip(origin, omega)) if on_lines else omega
            lifted = lift_slice(read(point), line, [i for i, _ in active])
            for (_, values), P in zip(active, lifted):
                if P is None:
                    return []
                # the x-free row, g(o + t (point - o)) / Hom[g](alpha) for
                # a true factor's group
                row = {et: c for (ex, et), c in P.terms.items() if not ex}
                values.append(row if on_lines else sum(row.values(), ZERO))
    candidates = []
    for _, h2, deg, support, _, values in refs:
        try:
            if support is None:
                g = sparse_interpolate(values, s, n, deg)
            else:
                g = interpolate_lines(values, support, origin)
        except InterpolationFailure:
            continue
        if g.degree() != deg:
            continue
        top = g.hom_component(deg).eval_point(alpha)
        if top and _project(g.scale(ONE / top), alpha, [pair.beta], pair.gamma) == h2:
            candidates.append(g.canonical())
    return candidates


def sparse_factors(f, s, oracle, config=None):
    """All irreducible factors of f inside the oracle's class with sparsity
    <= s, with multiplicities.  The divisibility gate is unconditional: a
    degraded oracle can only lose factors, never emit a wrong one.

    The search runs on one residual, f with every accepted factor divided
    out: each oracle pair projects and slices the residual, normalized by
    Hom[residual](alpha), which is nonzero because Hom is multiplicative and
    Hom[f](alpha) != 0.  Every emitted factor is certified irreducible in
    one of two ways: by the oracle's decision procedure on an in-class
    residual, or by a degree-keeping projection that is an irreducible
    factor of the pair's projection r_hat (all of r_hat for the residual
    itself, the factor h2 its values were lifted from for an interpolated
    candidate).  A certified factor passes the sparsity and membership
    gates and is divided out of the residual; its count there is its
    multiplicity in f, since the accepted factors are distinct
    irreducibles, and a count of 0 rejects it.  Every factor of f outside
    `found` divides the residual, so a residual that is constant or proved
    irreducible ends the search without exhausting the grid.
    """
    config = config or DEFAULT_CONFIG
    if s < 1:
        raise ValueError("sparsity bound must be >= 1")
    if f.is_constant():
        raise PolyError("cannot factor a constant")
    alpha = _monic_point(f)[0]
    found = []
    residual = f

    def admit(g):
        """Divide the certified irreducible g out of the residual when it is
        a class member within the sparsity bound; True when it divided."""
        nonlocal residual
        if g.sparsity() > s or not oracle.contains(g):
            return False
        residual, e = divide_out(residual, g)
        if e:
            found.append((g, e))
        return e > 0

    def settle():
        """True when the residual is constant, or an in-class residual the
        oracle decides irreducible, which is then admitted."""
        if residual.is_constant():
            return True
        g = residual.canonical()
        if oracle.decide_irreducible is None or not oracle.contains(g):
            return False
        if not oracle.decide_irreducible(g):
            return False
        admit(g)
        return True

    exhausted = settle()
    stall = 0
    pairs = oracle.pairs(alpha)
    # test the stop rules before drawing, so no pair is drawn unused
    while not exhausted and stall < config.su_stall:
        pair = next(pairs, None)
        if pair is None:
            break
        candidates = _pair_candidates(residual, alpha, pair, s, oracle)
        if candidates is None:
            admit(residual.canonical())
            break
        added = False
        for g in candidates:
            added = admit(g) or added
        if added:
            stall = 0
            exhausted = settle()
        else:
            stall += 1
    return FactorList.build(ONE, found)


def factor_su(f, config=None):
    """Sum-of-univariate factors of a sparse polynomial: the sparse-factors
    pipeline instantiated with the support-grid oracle."""
    from .oracles import su_oracle

    d = f.degree() or 0
    return sparse_factors(f, f.n * d + 1, su_oracle(f.n, d), config)
