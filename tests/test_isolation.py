"""The compact isolation scheme, the weight maps, and the three-variable
projection."""

import json

import pytest

from polyfactor.rational import Q
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product, render_poly
from polyfactor.isolation import (
    IsolationScheme,
    apply_phi,
    compact_scheme,
    monomials_up_to,
    psi_invert,
    psi_map,
    recover_from_phi,
    weights_injective,
)
from polyfactor.basefactor import factor_monic, is_irreducible_lowvar
from polyfactor.errors import CapError, NotInCodomain, PolyError
from polyfactor.dense import to_dense

from conftest import rng_for, random_poly, sympy_irreducible


def bounded_random(rng, n, delta, max_terms=5):
    monos = monomials_up_to(n, delta)
    table = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-5, 5)
        if c:
            table[rng.choice(monos)] = Q(c)
    return SparsePoly(n, table)


def test_scheme_injectivity_is_exhaustive():
    for n, delta in [(1, 1), (2, 2), (3, 2), (4, 2), (2, 3)]:
        scheme = compact_scheme(n, delta)
        for weights in (scheme.w, scheme.w_prime):
            seen = set()
            for mono in monomials_up_to(n, delta):
                v = sum(e * w for e, w in zip(mono, weights))
                assert v not in seen
                seen.add(v)


def greedy_weights_by_full_check(n, delta):
    """The compact scheme's weights as first built: each candidate checked
    by weights_injective over every monomial.  Its weights for n are a
    prefix of those for n + 1."""
    w = []
    for _ in range(n):
        c = (w[-1] + 1) if w else 1
        while not weights_injective(w + [c], delta):
            c += 1
        w.append(c)
    return tuple(w)


@pytest.mark.parametrize("delta, n_max", [(1, 10), (2, 10), (3, 10), (4, 6)])
def test_compact_scheme_keeps_the_greedy_weights(delta, n_max):
    # the weights fix the projection, so the incremental build must choose
    # exactly the weights of the full check
    reference = greedy_weights_by_full_check(n_max, delta)
    for n in range(1, n_max + 1):
        assert compact_scheme(n, delta).w == reference[:n], n


def test_apply_phi_paper_example():
    s = compact_scheme(2, 2)
    g = parse_poly("z1^2 - z2*z3")  # x^2 - z1 z2, x in the first slot
    image = apply_phi(g, s, x_vars=1)
    assert image == parse_poly("z1^2 - z2^4", n=2)
    fl = factor_monic(image)
    assert len(fl.factors) == 2  # (x - y^2)(x + y^2)


def test_apply_phi_constant():
    s = compact_scheme(2, 2)
    one = SparsePoly.const(2, 1)
    assert apply_phi(one, s) == SparsePoly.const(1, 1)


def test_phi_multiplicative():
    rng = rng_for("phi-hom")
    s = compact_scheme(3, 2)
    for _ in range(50):
        f = bounded_random(rng, 3, 2)
        g = bounded_random(rng, 3, 2)
        assert apply_phi(f * g, s) == apply_phi(f, s) * apply_phi(g, s)


def test_recover_round_trip():
    rng = rng_for("phi-recover")
    s = compact_scheme(3, 2)
    y4 = apply_phi(parse_poly("z1*z2", n=3), s)
    assert recover_from_phi(y4, s) == parse_poly("z1*z2", n=3)
    assert recover_from_phi(SparsePoly.const(1, 1), s) == SparsePoly.const(3, 1)
    for _ in range(100):
        g = bounded_random(rng, 3, 2)
        assert recover_from_phi(apply_phi(g, s), s) == g


def test_recover_rejects_out_of_table():
    s = compact_scheme(2, 2)
    bad = SparsePoly(1, {(97,): Q(1)})
    with pytest.raises(NotInCodomain):
        recover_from_phi(bad, s)


def test_psi_fixes_x():
    s = compact_scheme(2, 2)
    g = parse_poly("z1^2", n=3)  # x^2, no z terms
    grid = psi_map(g, s)
    assert grid.to_sparse() == parse_poly("x^2")


def test_psi_linear_monomial():
    s = compact_scheme(1, 2)
    g = parse_poly("z1 - z2")  # x - z1
    grid = psi_map(g, s)
    w, wp = s.w[0], s.w_prime[0]
    expected = {(1, 0, 0): Q(1), (0, w, 1): Q(-1), (0, wp, 0): Q(-1)}
    assert grid.to_sparse().terms == expected


def test_psi_multiplicative():
    rng = rng_for("psi-hom")
    s = compact_scheme(2, 2)
    for _ in range(30):
        f = bounded_random(rng, 3, 2)  # in (x, z1, z2)
        g = bounded_random(rng, 3, 2)
        lhs = psi_map(f, s).to_sparse() * psi_map(g, s).to_sparse()
        rhs = psi_map(f * g, s).to_sparse()
        assert lhs == rhs


def monic_in_x(rng, n, delta):
    """Random monic-in-x candidate of x-degree <= delta over (x, z1..zn)."""
    while True:
        g = bounded_random(rng, n + 1, delta)
        k = rng.randint(1, delta)
        g = SparsePoly(
            g.n,
            {e: c for e, c in g.terms.items() if e[0] == 0 and sum(e) <= delta},
        )
        g = g + SparsePoly.monomial(n + 1, (k,) + (0,) * n)
        if g.degree_in(1) == k:
            return g


def test_psi_invert_round_trip():
    rng = rng_for("psi-invert")
    s2 = compact_scheme(2, 2)
    s3 = compact_scheme(3, 2)
    for _ in range(100):
        n = rng.choice([2, 3])
        scheme = s2 if n == 2 else s3
        g = monic_in_x(rng, n, 2)
        image = psi_map(g, scheme)
        assert psi_invert(image, scheme, 2) == g


def test_image_degree_bounds_hold_and_are_reached():
    """psi_map's image of a polynomial of total degree <= a stays within
    the scheme's (x, y, t) degree bounds scaled by a / delta, (a, a W, a)
    with W the largest weight, for every a <= delta (the proportional bounds
    that `factor_candidates(f, bounds)` relies on), and z_j^a, z_j of the
    largest weight, reaches them."""
    rng = rng_for("image-degree-bounds")
    for n, delta in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        scheme = compact_scheme(n, delta)
        bounds = scheme.image_degree_bounds()
        W = max(scheme.w + scheme.w_prime)
        assert bounds == (delta, delta * W, delta)
        for _ in range(20):
            image = psi_map(bounded_random(rng, n + 1, delta), scheme).to_sparse()
            assert all(
                (image.degree_in(i) or 0) <= b for i, b in enumerate(bounds, start=1)
            )
        j = max(range(n), key=lambda i: max(scheme.w[i], scheme.w_prime[i]))
        for a in range(1, delta + 1):
            scaled = (a, a * W, a)
            for _ in range(20):
                image = psi_map(bounded_random(rng, n + 1, a), scheme).to_sparse()
                assert all(
                    (image.degree_in(i) or 0) <= b for i, b in enumerate(scaled, start=1)
                )
            top = SparsePoly.monomial(n + 1, [0] * (j + 1) + [a] + [0] * (n - j - 1))
            image = psi_map(top, scheme).to_sparse()
            assert (a, image.degree_in(2), image.degree_in(3)) == scaled


def test_psi_map_checks_its_cap_before_substituting(monkeypatch):
    # x^1000 + z1^1000 + z2^1000 maps onto a 1001 x 3001 x 1001 box, bounded
    # from its exponents with weights max(w_i, w'_i) = 3
    s = compact_scheme(2, 2)
    huge = parse_poly("z1^1000 + z2^1000 + z3^1000 + 1")
    small = parse_poly("z1^2 + z2*z3 - 1")
    cells = (2 + 1) * (3 * 2 + 1) * (2 + 1)
    assert psi_map(small, s, max_cells=cells).bounds == (2, 3 * 2, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("substituted before the cap check")

    monkeypatch.setattr(SparsePoly, "substitute", refuse)
    with pytest.raises(CapError) as info:
        psi_map(huge, s, max_cells=4_000_000)
    assert (info.value.cap_name, info.value.requested) == (
        "max_dense_cells",
        1001 * 3001 * 1001,
    )
    with pytest.raises(CapError):
        psi_map(small, s, max_cells=cells - 1)


def test_psi_invert_rejects_perturbation():
    s = compact_scheme(1, 2)
    g = parse_poly("z1 - z2")  # x - z1
    grid = psi_map(g, s)
    spoiled = grid.to_sparse() + parse_poly("t^2") * parse_poly("y", n=3)
    with pytest.raises(NotInCodomain):
        psi_invert(to_dense(spoiled), s, 2)


def test_psi_preserves_irreducibility_empirically():
    rng = rng_for("psi-preserve")
    schemes = {n: compact_scheme(n, 2) for n in (2, 3, 4)}
    checked = 0
    while checked < 15:
        n = rng.choice([2, 3, 4])
        g = monic_in_x(rng, n, 2)
        if not sympy_irreducible(g):
            continue
        image = psi_map(g, schemes[n])
        assert is_irreducible_lowvar(image.to_sparse())
        checked += 1


def test_scheme_json_round_trip():
    # to_json carries every field: the scheme rebuilt from it is the same
    s = compact_scheme(3, 2)
    data = json.loads(s.to_json())
    assert IsolationScheme(data["n"], data["delta"], tuple(data["w"]), tuple(data["w_prime"])) == s


def test_scheme_rejects_weights_not_injective_on_the_bounded_monomials():
    # (1, 2) weighs z1^2 and z2 alike, so it cannot stand for w or for w'
    good = compact_scheme(2, 2)
    assert IsolationScheme(2, 2, good.w, good.w_prime) == good
    with pytest.raises(PolyError, match="^w is not injective"):
        IsolationScheme(2, 2, (1, 2), good.w_prime)
    with pytest.raises(PolyError, match="^w' is not injective"):
        IsolationScheme(2, 2, good.w, (1, 2))
