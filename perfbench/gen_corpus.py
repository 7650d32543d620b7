"""Build the frozen benchmark corpora.

Usage: python3 perfbench/gen_corpus.py [--seed N] [--check]

Each workload gets one JSON-lines file: one line per input, holding the
variable count, the polynomial text and the expected canonical output of its
pipeline.  Inputs are products of distinct building blocks whose
irreducibility sympy certifies here, so the expected factor list is known
by construction and never comes from the code under test.  Only this script
imports sympy; the timed benchmark reads the frozen files.

The default seed is the frozen one and is written to perfbench/corpus/;
other seeds go to perfbench/out/corpus-seed<N>/.  `--check` regenerates a
seed and fails unless every file matches the frozen ones byte for byte.
"""

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sympy  # noqa: E402

from polyfactor.factors import FactorList  # noqa: E402
from polyfactor.parse import render_poly  # noqa: E402
from polyfactor.rational import Q, ONE  # noqa: E402
from polyfactor.sparse import SparsePoly  # noqa: E402

DEFAULT_SEED = 0
# pool sizes: the runner draws each run's inputs from these pools
POOL_SIZES = {"cd": 160, "sparse-cd": 96, "su": 96}


# ---------------------------------------------------------------------------
# certification (sympy, build time only)


def sympy_irreducible(f):
    syms = sympy.symbols("z1:%d" % (f.n + 1))
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(int(c.numerator), int(c.denominator))
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    _, factors = sympy.factor_list(expr)
    nonconstant = [(b, e) for b, e in factors if b.free_symbols]
    return len(nonconstant) == 1 and nonconstant[0][1] == 1


# ---------------------------------------------------------------------------
# building blocks (same shapes as the acceptance-suite generators)


def _mono(n, powers):
    exps = [0] * n
    for var, e in powers:
        exps[var - 1] += e
    return tuple(exps)


def random_linear(rng, n):
    while True:
        table = {(0,) * n: Q(rng.randint(-4, 4))}
        for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))):
            c = rng.randint(-3, 3)
            if c:
                table[_mono(n, [(v, 1)])] = Q(c)
        f = SparsePoly(n, table)
        if f.degree() == 1:
            return f


def random_quadratic(rng, n):
    while True:
        support = rng.sample(range(1, n + 1), rng.randint(2, min(3, n)))
        table = {_mono(n, [(support[0], 2)]): Q(rng.choice([1, 1, 2, -1]))}
        for v in support[1:]:
            if rng.random() < 0.7:
                table[_mono(n, [(v, 2)])] = Q(rng.choice([1, 2, 3, -1, -2]))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(support, 2)
            c = rng.randint(-3, 3)
            if c:
                table[_mono(n, [(a, 1), (b, 1)])] = Q(c)
        if rng.random() < 0.8:
            table[(0,) * n] = Q(rng.choice([1, 2, 3, 5, 7, -2]))
        f = SparsePoly(n, table)
        if f.degree() == 2 and sympy_irreducible(f):
            return f


def random_cubic(rng, n):
    while True:
        support = rng.sample(range(1, n + 1), min(n, rng.randint(2, 3)))
        table = {_mono(n, [(support[0], 3)]): ONE}
        for v in support[1:]:
            table[_mono(n, [(v, rng.choice([1, 2, 3]))])] = Q(rng.choice([1, 2, -1, -3]))
        table[(0,) * n] = Q(rng.choice([2, 3, 5, 7, 11]))
        f = SparsePoly(n, table)
        if f.degree() == 3 and sympy_irreducible(f):
            return f


def random_su(rng, n, d):
    """Certified-irreducible sum of univariates of degree <= d."""
    while True:
        table = {}
        for v in rng.sample(range(1, n + 1), rng.randint(1, n)):
            deg = rng.randint(1, d)
            table[_mono(n, [(v, deg)])] = Q(rng.choice([1, 2, 3, -1, -2]))
            if deg > 1 and rng.random() < 0.4:
                c = rng.randint(-3, 3)
                if c:
                    table[_mono(n, [(v, 1)])] = Q(c)
        if rng.random() < 0.8:
            table[(0,) * n] = Q(rng.randint(1, 9))
        f = SparsePoly(n, table)
        if not f.is_constant() and f.degree() <= d and sympy_irreducible(f):
            return f


def small_product(rng, n):
    """1-2 distinct small irreducibles (degree 1-2) with multiplicities."""
    expected = {}
    budget = 6
    for _ in range(rng.randint(1, 2)):
        delta = rng.choice([1, 1, 2])
        g = (random_linear(rng, n) if delta == 1 else random_quadratic(rng, n)).canonical()
        e = rng.randint(1, 3 if delta == 1 else 2)
        if g in expected or delta * e > budget:
            continue
        budget -= delta * e
        expected[g] = e
    if not expected:
        expected[random_linear(rng, n).canonical()] = 1
    return expected


# ---------------------------------------------------------------------------
# workloads: (f, expected factor dict) per input


def cd_input(rng):
    n = rng.choice([2, 3, 3, 4, 4, 5])
    expected = small_product(rng, n)
    return n, expected, [random_cubic(rng, n)]


def sparse_cd_input(rng):
    n = rng.choice([2, 3])
    expected = small_product(rng, n)
    extra = [random_cubic(rng, n)] if rng.random() < 0.4 else []
    return n, expected, extra


def su_input(rng, index):
    n = rng.randint(2, 4)
    expected = {}
    for _ in range(rng.randint(1, 2)):
        g = random_su(rng, n, 2).canonical()
        if g not in expected:
            expected[g] = rng.randint(1, 2)
    extra = []
    if index % 3 == 0:
        while True:
            h = random_quadratic(rng, n)
            if any(sum(1 for e in exps if e) > 1 for exps in h.terms):
                extra.append(h)
                break
    return n, expected, extra


def build_pool(workload, seed, size):
    rng = random.Random("perfbench::%s::%d" % (workload, seed))
    lines = []
    for index in range(size):
        if workload == "cd":
            n, expected, extra = cd_input(rng)
        elif workload == "sparse-cd":
            n, expected, extra = sparse_cd_input(rng)
        else:
            n, expected, extra = su_input(rng, index)
        f = SparsePoly.const(n, ONE)
        for g, e in expected.items():
            f = f * g**e
        for h in extra:
            f = f * h
        want = FactorList.build(ONE, list(expected.items())).to_json_dict()
        lines.append(
            json.dumps(
                {"n": n, "degree": f.degree(), "poly": render_poly(f), "expected": want},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--check", action="store_true",
                    help="regenerate --seed and compare with the frozen files")
    args = ap.parse_args(argv)
    mismatched = []
    out = os.path.join(HERE, "corpus")
    if args.seed != DEFAULT_SEED:
        out = os.path.join(HERE, "out", "corpus-seed%d" % args.seed)
    for workload, size in POOL_SIZES.items():
        text = build_pool(workload, args.seed, size)
        if args.check:
            path = os.path.join(HERE, "corpus", workload + ".jsonl")
            with open(path) as fh:
                if fh.read() != text:
                    mismatched.append(path)
            continue
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, workload + ".jsonl")
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote %s (%d inputs)" % (path, text.count("\n")))
    if mismatched:
        print("regenerated corpus differs: %s" % ", ".join(mismatched))
        return 1
    if args.check:
        print("frozen corpus reproduced byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
