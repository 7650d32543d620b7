"""Factoring pipelines: monic transforms and the four algorithms."""

import dataclasses
import json
import os
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings

from polyfactor.rational import Q, ONE
from polyfactor.sparse import SparsePoly
from polyfactor.parse import parse_poly, parse_product, render_poly
from polyfactor.engine import (
    constant_degree_factors,
    factor_constant_degree_promise,
    factor_multiplicity,
    factor_su,
    monicize,
    projected_factoring,
    sparse_factors,
    sparse_irreducible_test,
)
from polyfactor.basefactor import factor_monic
from polyfactor.isolation import compact_scheme, psi_invert, psi_map
from polyfactor.oracles import constant_degree_oracle, su_oracle
from polyfactor.config import DEFAULT as DEFAULT_CONFIG, Config
from polyfactor.factors import divide_out
from polyfactor.errors import (
    CapError,
    InterpolationFailure,
    NotInCodomain,
    PolyError,
    PromiseViolation,
    VerificationError,
)

from conftest import (
    lowvar_products,
    rng_for,
    random_irreducible,
    random_irreducible_cubic,
    random_irreducible_quadratic,
    random_poly,
    random_su,
    sympy_factorization,
    sympy_irreducible,
)


def canonical_pairs(fl):
    return {(p, m) for p, m in fl.factors}


def pool_entry(workload, i):
    """(f, expected output) of entry i of a frozen benchmark pool."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "corpus", workload + ".jsonl")) as fh:
        item = json.loads(next(islice(fh, i, None)))
    return parse_poly(item["poly"], item["n"]), item["expected"]


def test_monicize_z1z2():
    f = parse_poly("z1*z2")
    shift, fa = monicize(f)
    assert shift.alpha == (ONE, ONE)
    x, z1, z2 = (SparsePoly.variable(3, i) for i in (1, 2, 3))
    assert fa == x * x + (z1 + z2) * x + z1 * z2


def test_monicize_inhomogeneous():
    f = parse_poly("z1*z2 + z1")
    shift, fa = monicize(f)
    assert shift.alpha == (ONE, ONE)
    assert fa.terms[(2, 0, 0)] == ONE


def test_monicize_random():
    rng = rng_for("monicize")
    for _ in range(100):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, 5, 5)
        if f.is_constant():
            continue
        shift, fa = monicize(f)
        d = f.degree()
        assert fa.degree_in(1) == d
        assert fa.terms[(d,) + (0,) * n] == ONE


def _inverter(n, alpha):
    """(proj, forward): a projection on the compact scheme with the monic
    shift's point alpha, as `_invert_candidate` reads it, and the forward
    map g(z) -> g(alpha_i x + y^{w_i} t + y^{w'_i}) built from SparsePoly
    images, independently of `isolation.psi_images`."""
    from polyfactor.engine import MonicShift, ProjectedFactorSet

    scheme = compact_scheme(n, 2)
    proj = ProjectedFactorSet((), MonicShift(tuple(alpha), ONE, n, 2), scheme)
    x, y, t = (SparsePoly.variable(3, i) for i in (1, 2, 3))
    images = [
        x.scale(a) + y**wi * t + y**wpi
        for a, wi, wpi in zip(alpha, scheme.w, scheme.w_prime)
    ]
    return proj, lambda g: g.substitute(images, m=3)


def test_the_forward_image_inverts_to_the_canonical_polynomial():
    from polyfactor.engine import _invert_candidate

    rng = rng_for("invert forward image")
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        g = random_poly(rng, n, 2, 5)
        if g.is_constant():
            continue
        alpha = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        proj, forward = _inverter(n, alpha)
        h = forward(g)
        assert _invert_candidate(h, proj) == g.canonical()
        # read at h's own scale: a scalar multiple of the image inverts too
        assert _invert_candidate(h.scale(Q(-3, 7)), proj) == g.canonical()
        checked += 1
    assert checked > 50


def test_a_candidate_that_is_no_forward_image_is_rejected():
    from polyfactor.engine import _invert_candidate
    from polyfactor.isolation import _psi_image

    proj, _ = _inverter(2, (ONE, ONE))
    assert proj.scheme.w_prime == (3, 1)  # y-exponents 0..4 and 6 read back
    x, y, t = (SparsePoly.variable(3, i) for i in (1, 2, 3))
    rejected = [
        # psi's image x^2 + y t + y^3 of x^2 + z1, which is no shift image:
        # its free terms read back to z1, whose forward image is x + y t + y^3
        _psi_image(parse_poly("z1^2 + z2", 3), proj.scheme),
        # y^5 has no preimage of degree <= 2 under w'
        x * x + y**5 + SparsePoly.const(3, 1),
        # no x- and t-free term: the read back is 0, a constant
        x * x + y * t + x * y,
    ]
    for h in rejected:
        assert _invert_candidate(h, proj) is None, h


def test_projected_factoring_splits():
    f = parse_product("(z1+z2)*(z1-z2)")
    proj = projected_factoring(f, 1)
    assert len(proj.s_proj_fac_mult) == 2
    assert all(e == 1 for _, e in proj.s_proj_fac_mult)


def test_projected_factoring_multiplicity():
    f = parse_product("(z1+z2)^2")
    proj = projected_factoring(f, 1)
    assert len(proj.s_proj_fac_mult) == 1
    assert proj.s_proj_fac_mult[0][1] == 2


def test_projected_factoring_excludes_high_degree():
    f = parse_poly("z1^3 + z2^3 + 1")  # irreducible cubic
    proj = projected_factoring(f, 2)
    assert proj.s_proj_fac_mult == ()


def test_no_trivariate_lift_fails_on_the_first_cd_pool_entries(monkeypatch):
    """The lift cut at the scheme's degree bounds compares its base product
    with the image at the w-order it carries, so no lift on the first 20 cd
    pool entries fails, and each entry gives its expected output."""
    import json
    import os
    from itertools import islice

    import polyfactor.basefactor as basefactor

    lift = basefactor._attempt_lift
    failures = []

    def recorded(*args):
        try:
            return lift(*args)
        except basefactor._AttemptFailed as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(basefactor, "_attempt_lift", recorded)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "corpus", "cd.jsonl")) as fh:
        pool = [json.loads(line) for line in islice(fh, 20)]
    for item in pool:
        fl = constant_degree_factors(parse_poly(item["poly"], item["n"]), 2)
        assert fl.to_json_dict() == item["expected"]
    assert failures == []


# psi's image box of each overflows max_dense_cells; the monic shift of the
# first alone runs out of memory
HUGE_DEGREE = ["z1^100000 + z2 + 1", "z1^1000 + z2^1000 + 1"]


@pytest.mark.parametrize("text", HUGE_DEGREE)
@pytest.mark.parametrize("pipeline", [constant_degree_factors, factor_constant_degree_promise])
def test_a_huge_degree_meets_the_cell_cap_before_the_monic_shift(monkeypatch, text, pipeline):
    import time

    import polyfactor.engine as engine

    def refuse(f):
        raise AssertionError("shifted before the cap check")

    monkeypatch.setattr(engine, "monicize", refuse)
    f = parse_poly(text)
    start = time.process_time()
    with pytest.raises(CapError) as info:
        pipeline(f, 2)
    assert time.process_time() - start < 1
    assert info.value.cap_name == "max_dense_cells"


@pytest.mark.parametrize("i", [0, 7, 31, 90])
def test_the_early_cell_count_is_psi_maps(i):
    # f's own terms give the box psi_map computes from the shifted f_alpha
    f, _ = pool_entry("cd", i)
    with pytest.raises(CapError) as early:
        projected_factoring(f, 2, Config(max_dense_cells=0))
    with pytest.raises(CapError) as late:
        psi_map(monicize(f)[1], compact_scheme(f.n, 2), max_cells=0)
    assert early.value.requested == late.value.requested > 1


def _check_psi_reading(f):
    """The reading of f's image made in one substitution (`_psi_reading`)
    is the one `_read` gives of the two-step image, monicize then psi_map:
    the same rows as multisets, den, degrees and prime, with v and w as
    the old `_factor_monic_sparse` chose them from the image's degrees.
    Each base at z_v = v0 built from its rows is the image's eval_var, and
    the rows rebuild the image.  Returns the normalizer Hom[f](alpha)."""
    from polyfactor.basefactor import _from_rows, _read
    from polyfactor.engine import _monic_point, _psi_reading

    scheme = compact_scheme(f.n, 2)
    alpha, normalizer = _monic_point(f)
    got = _psi_reading(f, alpha, normalizer, scheme)
    image = psi_map(monicize(f)[1], scheme).to_sparse()
    side = {i: image.degree_in(i) or 0 for i in (2, 3)}
    v = max(side, key=lambda i: (side[i], -i))
    assert got.f is None
    assert _same_reading(got, _read(image, v, 5 - v))
    for v0 in (0, 1, -1, 2):
        assert _from_rows(got, v0) == image.eval_var(v, v0), v0
    assert _from_rows(got) == image
    return normalizer


def test_the_composed_image_reading_is_the_two_step_one_on_the_cd_pool():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "corpus", "cd.jsonl")) as fh:
        pool = [json.loads(line) for line in fh]
    assert len(pool) == 160
    for i, item in enumerate(pool):
        try:
            _check_psi_reading(parse_poly(item["poly"], item["n"]))
        except AssertionError as err:
            raise AssertionError("cd entry %d: %s" % (i, err)) from err


@pytest.mark.parametrize(
    "text, negative",
    [
        # rational coefficients, with Hom[f](alpha) > 0 and < 0
        ("1/3*z1^2*z2 + 2/5*z1*z2 - 7/2*z2^2 + 1/6", False),
        ("-2*z1^2 + 1/3*z1*z2 - z2^2 + 5/7", True),
        ("-3/4*z1*z2*z3 + z1^2 - 1/9*z3 + 2", True),
        ("-(z1 + 2*z2)^2*(z1 - 1/2*z3 + 3)", True),
    ],
)
def test_the_composed_image_reading_folds_a_rational_or_negative_normalizer(text, negative):
    f = parse_product(text)
    normalizer = _check_psi_reading(f)
    assert (normalizer < 0) == negative
    assert normalizer.denominator > 1 or any(c.denominator > 1 for c in f.terms.values())


IRREDUCIBLE_LOW_DEGREE = ["z1 + z2 + 1", "z1^2 + z2^2 + 1", "z1^2 + z2*z3 - 3*z3 + 2"]


@pytest.mark.parametrize("text", IRREDUCIBLE_LOW_DEGREE)
@pytest.mark.parametrize("pipeline", [constant_degree_factors, factor_constant_degree_promise])
def test_an_irreducible_input_comes_back_whole_from_its_reading(monkeypatch, text, pipeline):
    # the image is read with no SparsePoly; an irreducibility certificate
    # builds it from the rows, and psi_invert returns f itself
    import polyfactor.basefactor as basefactor

    from_rows = basefactor._from_rows
    rebuilt = []

    def recorded(reading, v0=None):
        if v0 is None:
            rebuilt.append(reading.f)
        return from_rows(reading, v0)

    monkeypatch.setattr(basefactor, "_from_rows", recorded)
    f = parse_poly(text)
    fl = pipeline(f, 2)
    assert fl.factors == ((f.canonical(), 1),)
    assert fl.recompose() == f
    assert rebuilt == [None]


@pytest.mark.parametrize("pipeline", [constant_degree_factors, factor_constant_degree_promise])
def test_a_non_monic_image_is_a_verification_error(monkeypatch, pipeline):
    # a normalizer other than Hom[f](alpha) leaves the image's x^(deg f)
    # coefficient other than 1
    import polyfactor.engine as engine

    monic_point = engine._monic_point

    def doubled(f):
        alpha, normalizer = monic_point(f)
        return alpha, 2 * normalizer

    monkeypatch.setattr(engine, "_monic_point", doubled)
    with pytest.raises(VerificationError):
        pipeline(parse_product("(z1 + z2 + 1)*(z1^2 - z2)"), 2)


def test_a_non_monic_image_is_a_verification_error_under_optimize_flag():
    """The image's monicity check is a raise, so python -O keeps it."""
    import polyfactor

    script = (
        "import polyfactor.engine as engine\n"
        "from polyfactor.parse import parse_product\n"
        "from polyfactor.errors import VerificationError\n"
        "assert False, 'asserts are on'\n"
        "monic_point = engine._monic_point\n"
        "def doubled(f):\n"
        "    alpha, normalizer = monic_point(f)\n"
        "    return alpha, 2 * normalizer\n"
        "engine._monic_point = doubled\n"
        "try:\n"
        "    engine.constant_degree_factors(parse_product('(z1 + z2 + 1)*(z1^2 - z2)'), 2)\n"
        "except VerificationError:\n"
        "    print('verification error')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "verification error"


def test_promise_two_factors():
    f = parse_product("(z1+z2+1)*(z1^2+z2^2+3)")
    fl = factor_constant_degree_promise(f, 2)
    assert canonical_pairs(fl) == {
        (parse_poly("z1+z2+1").canonical(), 1),
        (parse_poly("z1^2+z2^2+3").canonical(), 1),
    }
    assert fl.recompose() == f


def test_promise_cube():
    fl = factor_constant_degree_promise(parse_product("(z1+1)^3"), 1)
    assert [(render_poly(p), m) for p, m in fl.factors] == [("z1 + 1", 3)]


def test_promise_delta_3_recovers_quadratics_and_cubics():
    # delta = 3 on products of sympy-certified quadratics and cubics; the
    # promise path must return exactly the construction
    rng = rng_for("promise-delta-3")
    for n in [2] * 6 + [3] * 4:
        expected = {}
        f = SparsePoly.const(n, 1)
        shape = rng.choice([(2, 3), (3, 3), (2, 2, 3)])
        for degree in shape:
            if degree == 2:
                g = random_irreducible_quadratic(rng, n).canonical()
            else:
                g = random_irreducible_cubic(rng, n).canonical()
            if g in expected:
                continue
            e = rng.choice([1, 2]) if len(shape) == 2 and degree == 2 else 1
            expected[g] = e
            f = f * g**e
        fl = factor_constant_degree_promise(f, 3)
        assert set(fl.factors) == set(constant_degree_factors(f, 3).factors)
        assert {g: e for g, e in fl.factors} == expected, render_poly(f)
        assert fl.recompose() == f


def test_promise_violation():
    f = parse_product("(z1^3 + z2 + 5)*(z1 + z2)")
    with pytest.raises(PromiseViolation):
        factor_constant_degree_promise(f, 2)


def test_promise_recomposition_gate_holds_under_optimize_flag():
    """The promise gate is an explicit check, so python -O keeps it: a
    search whose factors do not multiply back to f raises."""
    import polyfactor

    script = (
        "import polyfactor.engine as engine\n"
        "from polyfactor.parse import parse_poly\n"
        "from polyfactor.sparse import SparsePoly\n"
        "from polyfactor.errors import VerificationError\n"
        "assert False, 'asserts are on'\n"
        "engine._constant_degree_search = lambda f, delta, config: (\n"
        "    [(parse_poly('z1 + z2'), 2)], SparsePoly.const(2, 1))\n"
        "try:\n"
        "    engine.factor_constant_degree_promise(parse_poly('z1^2 + z2'), 2)\n"
        "except VerificationError:\n"
        "    print('verification error')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "verification error"


def count_projections(monkeypatch):
    """A list that grows by one entry per projected_factoring call."""
    import polyfactor.engine as engine

    calls = []
    original = engine.projected_factoring

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "projected_factoring", counted)
    return calls


def test_promise_violation_fails_fast(monkeypatch):
    # the cubic survives the one projection, which is the violation
    calls = count_projections(monkeypatch)
    f = parse_product("(z1^3 + z2 + 5)*(z1 + z2)")
    with pytest.raises(PromiseViolation):
        factor_constant_degree_promise(f, 2)
    assert len(calls) == 1


def test_constant_degree_factors_projects_once(monkeypatch):
    # entry 9 of the cd benchmark pool
    calls = count_projections(monkeypatch)
    f = parse_poly(
        "-3*z1^3*z2 + z2*z4^3 + 4*z1^3 - 4/3*z4^3 + 7*z2 - 28/3", 4
    )
    assert constant_degree_factors(f, 2).to_json_dict() == {
        "factors": [{"multiplicity": 1, "poly": "z2 - 4/3"}],
        "scalar": "1",
    }
    assert len(calls) == 1


def test_constant_degree_factors_worked_example():
    f = parse_product("(z1+z2)^2*(z1^2+z2^2+1)*(z1^3+z2+5)")
    fl = constant_degree_factors(f, 2)
    assert canonical_pairs(fl) == {
        (parse_poly("z1+z2"), 2),
        (parse_poly("z1^2+z2^2+1"), 1),
    }


def test_constant_degree_factors_irreducible_input():
    f = parse_poly("z1^3 + z2^3 + 1")
    fl = constant_degree_factors(f, 2)
    assert fl.factors == ()


def test_a_candidate_product_of_two_factors_fails_the_division(monkeypatch):
    # entry 146 of the cd pool: the bounded lift returns the images of both
    # linear factors and of their product, all unproved; the product sorts
    # after both, which leave the residual first, so its division fails
    import polyfactor.engine as engine

    f, expected = pool_entry("cd", 146)
    divisions = []

    def recorded(residual, g):
        quotient, e = divide_out(residual, g)
        divisions.append((g, e))
        return quotient, e

    monkeypatch.setattr(engine, "divide_out", recorded)
    assert constant_degree_factors(f, 2).to_json_dict() == expected
    product = parse_poly("z2 + 1/3", 2) * parse_poly("z1 - 2/3*z2", 2)
    assert divisions[-1] == (product.canonical(), 0)


def test_a_candidate_that_is_no_image_is_rejected_before_any_division(monkeypatch):
    # entry 96 of the cd pool: subsets of lifted groups that reconstruct
    # over Q without being the image of a factor of f are candidates too;
    # the inversion rejects them before any division
    import polyfactor.engine as engine

    f, expected = pool_entry("cd", 96)
    invert = engine._invert_candidate
    rejected = []

    def recorded(h, proj):
        g = invert(h, proj)
        if g is None:
            rejected.append(h)
        return g

    monkeypatch.setattr(engine, "_invert_candidate", recorded)
    assert constant_degree_factors(f, 2).to_json_dict() == expected
    assert rejected


def test_psi_is_read_back_on_sparse_terms(monkeypatch):
    # the image is read straight into integers and each candidate is read
    # back on its sparse terms, so no DensePoly3 is built and neither
    # psi_invert nor to_dense runs
    import polyfactor.engine as engine
    import polyfactor.isolation as isolation
    from polyfactor.dense import DensePoly3

    def forbidden(*args, **kwargs):
        raise AssertionError("the cd pipeline reached the dense grid")

    monkeypatch.setattr(DensePoly3, "__init__", forbidden)
    for owner, name in ((engine, "psi_invert"), (isolation, "psi_invert"), (engine, "to_dense")):
        monkeypatch.setattr(owner, name, forbidden)
    for i in (0, 96, 131):
        f, expected = pool_entry("cd", i)
        assert constant_degree_factors(f, 2).to_json_dict() == expected
        with pytest.raises(PromiseViolation):  # the cubic cofactor stays
            factor_constant_degree_promise(f, 2)


def _old_inversion(h, proj, delta):
    """The inversion as it was: psi_invert on h's dense grid, which reads
    the t = 0 slice through w' and checks it by psi's image, then the shear
    z_i -> z_i - alpha_i x, which must remove x, and x -> 0."""
    from polyfactor.dense import to_dense

    try:
        g_hat = psi_invert(to_dense(h), proj.scheme, delta)
    except NotInCodomain:
        return None
    m = proj.scheme.n + 1
    x = SparsePoly.variable(m, 1)
    assignment = [x] + [
        SparsePoly.variable(m, i) - x.scale(a) for i, a in enumerate(proj.shift.alpha, start=2)
    ]
    sheared = g_hat.substitute(assignment, m=m)
    g = sheared.eval_var(1, 0)
    if 1 in sheared.var_support() or g.is_constant() or g.degree() > delta:
        return None
    return g.canonical()


def test_the_inversion_accepts_exactly_the_old_candidates_on_the_fast_cd_entries(monkeypatch):
    # every fast entry's candidates invert; entry 96 adds rejected ones
    import polyfactor.engine as engine

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "corpus", "cd.costs.json")) as fh:
        costs = json.load(fh)
    invert = engine._invert_candidate
    outcomes = []

    def compared(h, proj):
        g = invert(h, proj)
        assert g == _old_inversion(h, proj, 2), h
        outcomes.append(g is not None)
        return g

    monkeypatch.setattr(engine, "_invert_candidate", compared)
    fast = [i for i, cost in enumerate(costs) if cost < 0.1]
    assert len(fast) == 59
    for i in fast + [96]:
        f, expected = pool_entry("cd", i)
        assert constant_degree_factors(f, 2).to_json_dict() == expected, i
    # both ways back accept and reject candidates
    assert sum(outcomes) > 60 and not all(outcomes)


def test_multiplicity_worked_example():
    f = parse_product("(z1+z2)^2*z1")
    g = parse_poly("z1+z2")
    assert factor_multiplicity(f, g) == 2
    # derivative chain: d/dz1 = (z1+z2)(3 z1+z2) divisible, second is not
    d1 = f.derivative(1)
    assert d1 == parse_product("(z1+z2)*(3*z1+z2)")
    assert d1.exact_divide(g) is not None
    assert f.derivative(1, 2).exact_divide(g) is None


def test_multiplicity_zero_when_not_a_factor():
    assert factor_multiplicity(parse_poly("z1^2+1"), parse_poly("z1+1")) == 0


def test_multiplicity_matches_division_oracle():
    rng = rng_for("multiplicity")
    for _ in range(60):
        n = rng.randint(2, 4)
        g = random_irreducible(rng, n, rng.choice([1, 2]))
        h = random_poly(rng, n, 2, 3)
        if h.is_zero() or h.exact_divide(g) is not None:
            continue
        k = rng.randint(1, 4)
        f = g**k * h
        assert factor_multiplicity(f, g) == k == divide_out(f, g)[1]
        for j in range(4):
            assert divide_out(g**j * h, g) == (h, j)


def test_multiplicity_constant_rejected():
    with pytest.raises(PolyError):
        factor_multiplicity(parse_poly("z1"), SparsePoly.const(1, 2))
    with pytest.raises(PolyError):
        divide_out(parse_poly("z1"), SparsePoly.const(1, 2))


def test_sparse_irreducible_test():
    assert sparse_irreducible_test(parse_poly("z1^2+z2^2+z3^2"), su_oracle(3, 2))
    # a reducible input draws pairs up to the su_stall cut
    assert not sparse_irreducible_test(parse_product("(z1+1)*(z2+1)"), su_oracle(2, 2))
    assert sparse_irreducible_test(parse_poly("z1 + 5*z2"), su_oracle(2, 1))


def counting_oracle(oracle):
    """(oracle drawing the same pairs, a one-slot list of pairs drawn)."""
    drawn = [0]

    def generator(alpha):
        for pair in oracle.pairs(alpha):
            drawn[0] += 1
            yield pair

    return dataclasses.replace(oracle, generator=generator), drawn


def test_sparse_irreducible_test_stops_at_the_stall_cut():
    # every projection of a reducible input is reducible, so without the
    # oracle's decision procedure only the cut ends the search; the su grid
    # alone holds far more pairs
    f = parse_poly("z1^2 - z2^2")
    undecided = dataclasses.replace(su_oracle(2, 2), decide_irreducible=None)
    for config in (DEFAULT_CONFIG, Config(su_stall=5)):
        oracle, drawn = counting_oracle(undecided)
        assert sparse_irreducible_test(f, oracle, config) is False
        assert drawn[0] == config.su_stall


def test_sparse_irreducible_test_asks_the_oracle_first():
    # an in-class input goes to the oracle's decision procedure, which
    # proves z1^2 - z2^2 reducible without drawing a pair; an input outside
    # the class still searches the pairs
    oracle, drawn = counting_oracle(su_oracle(2, 2))
    assert sparse_irreducible_test(parse_poly("z1^2 - z2^2"), oracle) is False
    assert drawn[0] == 0
    assert sparse_irreducible_test(parse_poly("z1^2 + 3*z2^2 + 1"), oracle) is True
    assert drawn[0] == 0
    assert sparse_irreducible_test(parse_poly("z1*z2 + z1 + 1"), oracle) is True
    assert drawn[0] >= 1


def test_sparse_pipelines_take_only_the_shift_point(monkeypatch):
    # the sparse pipelines read alpha and Hom[f](alpha), never the shifted
    # polynomial f(alpha x + z), and give the results the full shift gave
    import polyfactor.engine as engine

    def shifted(f):
        raise AssertionError("the sparse pipelines need no shifted polynomial")

    monkeypatch.setattr(engine, "monicize", shifted)
    f = parse_product("(z1^2 + z2^2 + 1)*(z1 + 2*z2 - 3)*(z1*z2 + 1)", 2)
    assert factor_su(f).to_json_dict() == {
        "scalar": "1",
        "factors": [
            {"poly": "z1 + 2*z2 - 3", "multiplicity": 1},
            {"poly": "z1^2 + z2^2 + 1", "multiplicity": 1},
        ],
    }
    g = parse_product("(z1*z2 + z3)*(z1 + z2 + z3 + 1)*(z1^3 + z2*z3^2 + 2)", 3)
    assert sparse_factors(g, 12, constant_degree_oracle(2, 3, 6)).to_json_dict() == {
        "scalar": "1",
        "factors": [
            {"poly": "z1 + z2 + z3 + 1", "multiplicity": 1},
            {"poly": "z1*z2 + z3", "multiplicity": 1},
        ],
    }
    assert sparse_irreducible_test(parse_poly("z1*z2 + z1 + 1"), su_oracle(2, 2))
    assert sparse_irreducible_test(parse_poly("z1^2 + z2^3*z3 + z3 - 1"), su_oracle(3, 4))
    undecided = dataclasses.replace(su_oracle(2, 2), decide_irreducible=None)
    f = parse_poly("z1^2 - z2^2")
    assert sparse_irreducible_test(f, undecided, Config(su_stall=5)) is False


def test_sparse_irreducible_test_keeps_certified_irreducibles():
    # sympy-certified irreducible inputs of both classes, degree >= 2, find
    # a preserving pair well inside the su_stall cut
    rng = rng_for("irreducible-within-stall")
    cases = []
    for n in (2, 3, 4):
        for d in (2, 3):
            for _ in range(3):
                g = random_su(rng, n, d, certified_irreducible=True)
                while g.degree() < 2:
                    g = random_su(rng, n, d, certified_irreducible=True)
                cases.append((g, su_oracle(n, g.degree())))
        for _ in range(3):
            g = random_irreducible_quadratic(rng, n)
            cases.append((g, constant_degree_oracle(2, n, 2)))
    assert len(cases) == 27
    for g, oracle in cases:
        oracle, drawn = counting_oracle(oracle)
        assert sparse_irreducible_test(g, oracle), render_poly(g)
        assert drawn[0] <= 3


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lowvar_products())
def test_sparse_factors_matches_sympy(f):
    # the constant-degree class at delta = 2 holds exactly the factors of
    # degree <= 2; the search keeps those with sparsity <= 12
    fl = sparse_factors(f, 12, constant_degree_oracle(2, f.n, f.degree()))
    _, mults = sympy_factorization(f)
    expected = {
        g: e for g, e in mults.items() if g.degree() <= 2 and g.sparsity() <= 12
    }
    assert dict(fl.factors) == expected


def test_unchanged_residual_is_decided_once(monkeypatch):
    # the input is in the SU class and reducible; once z1 + z2 is divided
    # out, the cofactor leaves the class and its first irreducible
    # projection ends the search, so the SU decision runs only on the input
    # itself
    import polyfactor.oracles as oracles

    calls = 0
    original = oracles.su_decide_irreducible

    def counted(g):
        nonlocal calls
        calls += 1
        return original(g)

    monkeypatch.setattr(oracles, "su_decide_irreducible", counted)
    fl = factor_su(parse_poly("2*z1^3 + 2*z2^3 + 2*z1 + 2*z2"))
    assert [(render_poly(p), m) for p, m in fl.factors] == [("z1 + z2", 1)]
    assert calls == 1


def test_irreducible_projection_settles_the_residual(monkeypatch):
    # neither input is in the SU class, and both are irreducible: the first
    # irreducible projection of the residual proves it and ends the search
    import polyfactor.oracles as oracles

    drawn = 0
    original = oracles.IrredProjOracle.pairs

    def counted(oracle, alpha):
        nonlocal drawn
        for pair in original(oracle, alpha):
            drawn += 1
            yield pair

    monkeypatch.setattr(oracles.IrredProjOracle, "pairs", counted)
    for text in ("z1^30*z2 + z2^2 + 1", "z1^30*z2 + z2^2 + z3*z4 + 1"):
        drawn = 0
        assert factor_su(parse_poly(text)).factors == (), text
        assert drawn <= 2, text


def test_reducible_candidate_fails_the_certificate(monkeypatch):
    # every degree-2 interpolation yields l1 * l2, which divides f; the
    # linear references fail to interpolate until that product has been
    # offered once, so it reaches the search while it still divides the
    # residual, and only the projection certificate can turn it away
    import polyfactor.engine as engine

    l1, l2, q = (parse_poly(t) for t in ("z1 + 2*z2 + 1", "z1 - z2 + 3", "z1^2 + z2^2 + 3"))
    f = l1 * l2 * q
    product = l1 * l2
    original = engine.interpolate_lines
    offered = False

    def rigged(rows, support, origin):
        nonlocal offered
        if max(sum(e) for e in support) == 2:
            offered = True
            return product
        if not offered:
            raise InterpolationFailure("held back")
        return original(rows, support, origin)

    monkeypatch.setattr(engine, "interpolate_lines", rigged)
    fl = sparse_factors(f, 12, constant_degree_oracle(2, 2, f.degree()))
    assert offered
    assert product.canonical() not in dict(fl.factors)
    _, mults = sympy_factorization(f)
    for g, e in fl.factors:
        assert sympy_irreducible(g), g
        assert mults[g] == e, g
    assert dict(fl.factors) == mults


def test_sparse_factors_below_the_support_size_run_ben_or_tiwari(monkeypatch):
    # at n = 3 the degree-2 support has C(5, 2) = 10 > s = 4 monomials, so
    # the quadratic factor is read off 2s values by Ben-Or-Tiwari
    import polyfactor.engine as engine

    degrees = []
    original = engine.sparse_interpolate

    def spy(values, s, n, d):
        degrees.append(d)
        return original(values, s, n, d)

    monkeypatch.setattr(engine, "sparse_interpolate", spy)
    f = parse_product("(z1^2 + 2*z2*z3 + 3)*(z1 - z3 + 2)*(z1^3 + z2 + 5)")
    fl = sparse_factors(f, 4, constant_degree_oracle(2, 3, f.degree()))
    assert 2 in degrees
    _, mults = sympy_factorization(f)
    expected = {g: e for g, e in mults.items() if g.degree() <= 2 and g.sparsity() <= 4}
    assert parse_poly("z1^2 + 2*z2*z3 + 3") in expected
    assert dict(fl.factors) == expected


@pytest.mark.parametrize("s", [0, -3])
@pytest.mark.parametrize("text", ["z1^2 - z2", "(z1*z2+1)*(z1+z2^2+3)"])
def test_a_sparsity_bound_below_one_is_refused_before_any_work(monkeypatch, s, text):
    import polyfactor.engine as engine

    def no_work(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(engine, "_monic_point", no_work)
    f = parse_product(text)
    with pytest.raises(ValueError, match="sparsity bound must be >= 1"):
        sparse_factors(f, s, su_oracle(f.n, f.degree()))


@pytest.mark.parametrize(
    "text, make_oracle",
    [
        # SU: a factor found, then the stall cut or the settled residual
        ("(z1^2+z2^2+z3^2)*(z1+1)", lambda f: su_oracle(f.n, f.degree())),
        ("(z1 + z2 + 1)^2*(z1*z2 + 5)", lambda f: su_oracle(f.n, f.degree())),
        ("(z1*z2 + 1)*(z1*z2 - 2)", lambda f: su_oracle(f.n, f.degree())),
        # constant degree: the residual is exhausted by divided-out factors
        ("(z1+z2)*(z1^2+z2^2+1)", lambda f: constant_degree_oracle(2, f.n, f.degree())),
        ("(z1^2 + 2*z2*z3 + 3)*(z1 - z3 + 2)*(z1^3 + z2 + 5)",
         lambda f: constant_degree_oracle(2, f.n, f.degree())),
    ],
)
def test_sparse_factors_draws_only_the_pairs_it_projects(monkeypatch, text, make_oracle):
    import polyfactor.engine as engine

    projected = 0
    original = engine._pair_candidates

    def counted(*args):
        nonlocal projected
        projected += 1
        return original(*args)

    monkeypatch.setattr(engine, "_pair_candidates", counted)
    f = parse_product(text)
    oracle, drawn = counting_oracle(make_oracle(f))
    sparse_factors(f, 12, oracle, Config(su_stall=20))
    assert drawn[0] == projected >= 1


def test_slices_are_lifted_not_factored_from_scratch(monkeypatch):
    # su pool entry 3: a pair's projection r_hat is a square, (x + t1 + 1)^2
    # up to the pair's coordinates, while its slices are irreducible
    # quadratics; the slice lift then offers junk, which the interpolation
    # checks turn away, and no slice is factored from scratch: each is read
    # as a bivariate line slice, and nothing is factored while it is lifted
    import polyfactor.basefactor as basefactor
    import polyfactor.engine as engine

    f, expected = pool_entry("su", 3)
    factor, lift = basefactor._factor_monic_sparse, engine.lift_slice
    slices, factored = [], []
    lifting = False

    def recorded_lift(reading, *args):
        nonlocal lifting
        slices.append(reading)
        lifting = True
        try:
            return lift(reading, *args)
        finally:
            lifting = False

    def recorded(g, *args):
        factored.append(lifting)
        return factor(g, *args)

    monkeypatch.setattr(engine, "lift_slice", recorded_lift)
    monkeypatch.setattr(basefactor, "_factor_monic_sparse", recorded)
    assert factor_su(f).to_json_dict() == expected
    assert slices and {(r.n, r.v, r.w, r.degrees[2]) for r in slices} == {(2, 2, 3, 0)}
    assert factored and not any(factored)


@pytest.mark.parametrize(
    "g_text, cofactor_text, n, alpha, beta, gamma, point",
    [
        # at t1 = 0 both factors' images vanish at x = 0, so the line
        # starts at t1 = 1
        ("z1 + z2^2 + 1", "z1 + z2 + 1", 2, (1, 1), (2, 3), (-1, 0), 1),
        ("z1^2 + z2^2 + z3 + 1", "(z1 + z2*z3 + 2)^2", 3, (1, 2, 1), (1, 3, -2), (0, 1, 2), 0),
        ("z1*z2 + z3^2 - 5", "(z1 - z3 + 3)*(z2^2 + 2)", 3, (2, 1, 1), (3, -1, 2), (1, 0, 1), 0),
    ],
)
def test_the_line_slice_reads_what_the_trivariate_slice_reads(
    g_text, cofactor_text, n, alpha, beta, gamma, point
):
    # a group that lifts a true factor g gives g(omega) / Hom[g](alpha) on
    # the trivariate slice through gamma and on the line slice from
    # gamma + w0 beta alike
    from polyfactor.basefactor import PreparedBase, _read, lift_slice, slice_point
    from polyfactor.engine import _line_slices, _project
    from polyfactor.pit import interpolation_plan

    g = parse_poly(g_text, n)
    f = g * parse_product(cofactor_text, n)
    scaled = f.scale(ONE / f.hom_component(f.degree()).eval_point(alpha))
    base = factor_monic(_project(scaled, alpha, [beta], gamma)).factors
    top = g.hom_component(g.degree()).eval_point(alpha)
    i = [h for h, _ in base].index(_project(g.scale(ONE / top), alpha, [beta], gamma).canonical())
    w0, line_base = slice_point(base)
    assert w0 == point
    origin = tuple(c + w0 * b for c, b in zip(gamma, beta))
    prepared = PreparedBase(base)
    read_line = _line_slices(scaled, alpha, origin)
    for omega in interpolation_plan(2, n):
        secondary = tuple(o - c for o, c in zip(omega, gamma))
        T = _project(scaled, alpha, [beta, secondary], gamma)
        trivariate = lift_slice(_read(T, 3, 2), prepared, [i])[0]
        line = lift_slice(read_line(omega), line_base, [i])[0]
        want = g.eval_point(omega) / top
        assert trivariate.eval_point((0, 0, 1)) == line.eval_point((0, 1)) == want, omega


@pytest.mark.parametrize("workload, i", [("su", 30), ("su", 55), ("su", 72), ("sparse-cd", 21)])
def test_each_line_slice_lifts_the_hidden_factor_along_its_whole_line(monkeypatch, workload, i):
    # slice L of a pair follows omega_L, the L-th point of
    # interpolation_plan, from the pair's origin o = gamma + w0 beta: for
    # every group that is a true factor g's projection, the x-free row of
    # the factor lifted from it is g(o + t omega_L) / Hom[g](alpha),
    # coefficient by coefficient
    import polyfactor.engine as engine
    from polyfactor.engine import _project
    from polyfactor.pit import interpolation_plan

    pair_candidates, point, lift = engine._pair_candidates, engine.slice_point, engine.lift_slice
    pairs = []  # per pair drawn: [alpha, pair, base, w0, every slice's lifts]

    def recorded_pair(residual, alpha, pair, *rest):
        pairs.append([alpha, pair, None, None, []])
        return pair_candidates(residual, alpha, pair, *rest)

    def recorded_point(base):
        found = point(base)
        if found is not None:
            pairs[-1][2:4] = base, found[0]
        return found

    def recorded_lift(reading, prepared, wanted):
        every = lift(reading, prepared, range(len(prepared.groups)))
        pairs[-1][4].append(every)
        return [every[j] for j in wanted]

    monkeypatch.setattr(engine, "_pair_candidates", recorded_pair)
    monkeypatch.setattr(engine, "slice_point", recorded_point)
    monkeypatch.setattr(engine, "lift_slice", recorded_lift)
    f, expected = pool_entry(workload, i)
    if workload == "su":
        got = factor_su(f)
    else:
        got = sparse_factors(f, 12, constant_degree_oracle(2, f.n, f.degree() or 1))
    assert got.to_json_dict() == expected
    _, mults = sympy_factorization(f)
    checked = 0
    for alpha, pair, base, w0, lifts in pairs:
        if not lifts:
            continue
        origin = tuple(c + w0 * b for c, b in zip(pair.gamma, pair.beta))
        groups = [h for h, _ in base]
        for g in mults:
            top = g.hom_component(g.degree()).eval_point(alpha)
            h2 = _project(g.scale(ONE / top), alpha, [pair.beta], pair.gamma)
            if h2.canonical() not in groups:
                continue
            j = groups.index(h2.canonical())
            for omega, lifted in zip(interpolation_plan(len(lifts), f.n), lifts):
                line = [SparsePoly.linear((w,), o) for w, o in zip(omega, origin)]
                want = g.substitute(line, m=1).scale(ONE / top)
                row = {(et,): c for (ex, et), c in lifted[j].terms.items() if not ex}
                assert row == want.terms, (g, omega)
                checked += 1
    assert checked >= 4


@pytest.mark.parametrize("i", [30, 72])
def test_a_pair_whose_groups_collide_at_t1_0_slices_from_t1_1(monkeypatch, i):
    # su pool entries 30 and 72 are the only ones with a pair whose groups'
    # images share a root at t1 = 0; their lines start at t1 = 1, where
    # every slice lifts every group
    import polyfactor.engine as engine

    points, lifts = [], []
    point, lift = engine.slice_point, engine.lift_slice

    def recorded_point(base):
        points.append(point(base))
        return points[-1]

    def recorded_lift(*args):
        lifts.append(lift(*args))
        return lifts[-1]

    monkeypatch.setattr(engine, "slice_point", recorded_point)
    monkeypatch.setattr(engine, "lift_slice", recorded_lift)
    f, expected = pool_entry("su", i)
    assert factor_su(f).to_json_dict() == expected
    assert points[0][0] == 1
    assert lifts and all(P is not None for lifted in lifts for P in lifted)


@pytest.mark.parametrize("i", [30, 55, 76])
def test_slices_sharing_their_pair_preparation_lift_what_a_fresh_one_lifts(monkeypatch, i):
    # every slice of a pair lifts from one preparation of the pair's line
    # base, whose lift tree nodes each slice may rebuild at a larger modulus
    # or read mod its own; each must lift what a preparation of the line
    # base read anew gives, for every group.  su pool entry 30 has a pair
    # with w0 = 1; entry 55 has junk groups that reconstruct under some
    # moduli and not others; entry 76 has a pair of four slices
    import polyfactor.basefactor as basefactor
    import polyfactor.engine as engine
    from polyfactor.basefactor import PreparedBase

    point, lift = engine.slice_point, engine.lift_slice
    line_bases = []  # (preparation, line base)
    shared_slices = []  # per slice, its preparation
    reductions = []  # per slice, the tree nodes it read mod its own modulus
    reduced = basefactor._Dioph.reduced

    def recorded_reduced(dioph, m):
        reductions[-1] += 1
        return reduced(dioph, m)

    def recorded_point(base):
        found = point(base)
        if found is not None:
            w0, line = found
            line_bases.append((line, [(h.eval_var(2, w0), e) for h, e in base]))
        return found

    def recorded_lift(reading, prepared, wanted):
        reductions.append(0)
        every = range(len(prepared.groups))
        lifted = lift(reading, prepared, every)
        line_base = next(lb for line, lb in line_bases if line is prepared)
        assert lifted == lift(reading, PreparedBase(line_base), every)
        shared_slices.append(prepared)
        return [lifted[j] for j in wanted]

    monkeypatch.setattr(engine, "slice_point", recorded_point)
    monkeypatch.setattr(engine, "lift_slice", recorded_lift)
    monkeypatch.setattr(basefactor._Dioph, "reduced", recorded_reduced)
    f, expected = pool_entry("su", i)
    assert factor_su(f).to_json_dict() == expected
    # the check is not vacuous: some preparation served several slices,
    # and some slice read its nodes from a tree kept at a larger modulus
    assert any(shared_slices.count(line) > 1 and line.trees for line, _ in line_bases)
    assert any(reductions)


def _same_reading(got, want):
    """The same rows as multisets, den, degrees, prime and variables."""
    rows = [sorted(row) for row in got.rows]
    return (rows, got[1:4], got[5:]) == ([sorted(row) for row in want.rows], want[1:4], want[5:])


@pytest.mark.parametrize("workload, i", [("su", 30), ("su", 55), ("su", 76), ("sparse-cd", 21)])
def test_the_integer_line_slice_is_the_rational_one_read(monkeypatch, workload, i):
    # every slice a pair reads from the residual's integer table has the
    # rows, den, degrees and prime that reading its rational projection
    # gives, the rows as multisets
    import polyfactor.engine as engine
    from polyfactor.basefactor import _read
    from polyfactor.engine import _project

    line_slices = engine._line_slices
    checked = []

    def recorded(scaled, alpha, origin):
        read = line_slices(scaled, alpha, origin)

        def checked_read(omega):
            got = read(omega)
            direction = tuple(o - c for o, c in zip(omega, origin))
            want = _read(_project(scaled, alpha, [direction], origin), 2, 3)
            assert _same_reading(got, want), omega
            checked.append(omega)
            return got

        return checked_read

    monkeypatch.setattr(engine, "_line_slices", recorded)
    f, expected = pool_entry(workload, i)
    if workload == "su":
        got = factor_su(f)
    else:
        got = sparse_factors(f, 12, constant_degree_oracle(2, f.n, f.degree() or 1))
    assert got.to_json_dict() == expected
    assert len(checked) >= 5


@pytest.mark.parametrize(
    "text, alpha, origin, omega",
    [
        # rational images: every coordinate, and the residual, has a
        # denominator
        (
            "z1^2*z2 + 1/3*z2^3 - 2/5*z1 + 7",
            (Q(1, 2), Q(2, 3)),
            (Q(-1, 4), Q(5, 6)),
            (Q(3, 7), Q(1, 3)),
        ),
        (
            "1/6*z1^3 + z1*z2*z3 - z3^2 + 1/4",
            (Q(1), Q(0), Q(3, 2)),
            (Q(0), Q(1, 3), Q(2)),
            (Q(2), Q(5), Q(-1, 2)),
        ),
        # a dead image: z2 -> 0
        ("z1^2 + z2^2*z1 + 1/3", (Q(1), Q(0)), (Q(2, 5), Q(0)), (Q(3), Q(0))),
    ],
)
def test_the_integer_line_slice_reads_rational_images(text, alpha, origin, omega):
    from polyfactor.basefactor import _read
    from polyfactor.engine import _line_slices, _project

    f = parse_poly(text)
    direction = tuple(o - c for o, c in zip(omega, origin))
    want = _read(_project(f, alpha, [direction], origin), 2, 3)
    got = _line_slices(f, alpha, origin)(omega)
    assert want.den > 1
    assert _same_reading(got, want)


def test_sparse_factors_with_su_oracle():
    f = parse_product("(z1^2+z2^2+z3^2)*(z1+1)")
    fl = factor_su(f)
    assert canonical_pairs(fl) == {
        (parse_poly("z1^2+z2^2+z3^2"), 1),
        (parse_poly("z1+1", n=3), 1),
    }


def test_sparse_factors_irreducible_in_class():
    f = parse_poly("z1^2 + z2^3 + z3 + 4")
    fl = factor_su(f)
    assert canonical_pairs(fl) == {(f.canonical(), 1)}


def test_sparse_factors_mixed_cofactor():
    f = parse_product("(z1 + z2 + 1)^2*(z1*z2 + 5)")
    fl = factor_su(f)
    assert canonical_pairs(fl) == {(parse_poly("z1+z2+1"), 2)}


def test_sparse_factors_constant_degree_oracle():
    f = parse_product("(z1+z2)*(z1^2+z2^2+1)")
    oracle = constant_degree_oracle(2, 2, f.degree())
    fl = sparse_factors(f, 8, oracle)
    fl3 = constant_degree_factors(f, 2)
    assert canonical_pairs(fl) == canonical_pairs(fl3)


def test_algorithms_2_and_3_agree_on_promise_inputs():
    rng = rng_for("agreement")
    for _ in range(10):
        n = rng.randint(2, 3)
        f = SparsePoly.const(n, 1)
        for _ in range(rng.randint(1, 2)):
            f = f * random_irreducible(rng, n, rng.choice([1, 2])) ** rng.randint(1, 2)
        if f.is_constant():
            continue
        a2 = factor_constant_degree_promise(f, 2)
        a3 = constant_degree_factors(f, 2)
        assert canonical_pairs(a2) == canonical_pairs(a3)
