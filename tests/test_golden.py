"""Golden outputs: the fast entries of the frozen benchmark pools must
reproduce their expected JSON byte for byte.

The pools under perfbench/corpus/ were certified by sympy when they were
frozen; each entry carries its expected output and its cost at reference
speed.  This re-runs the entries that cost under 0.1 s, through the same
pipeline calls as perfbench/run.py, and only reads the corpus.

Run as a script, it checks every entry of the named pools, whatever its
cost, prints each entry whose output differs, each pool's entry count,
process time, three slowest entries, the number of line slices
the sparse search lifted (calls of `engine.lift_slice`)
and the oracle pairs it drew (the pool's total and the most any one
entry drew), the traffic across the integer boundary (integer reads,
calls of `sparse._int_table`, and `SparsePoly` constructions), the
substitutions (calls of `sparse._compose`, the substitution kernel's
integer core), the Diophantine builds (`basefactor._Dioph`
constructions, one per lift tree node a `PreparedBase` builds: the
w-lift and the v-lift solve with the same one), the Bezout lift steps
(calls of `basefactor._bezout_step`), the lift's v-orders (the sum of
K over `basefactor._lift_pair` calls), its Diophantine solves (calls
of `basefactor._Dioph.solve`, one univariate solve per v-order and
w-order whose right side is nonzero), the univariate factorizations over Q
(calls of `basefactor._factor_univariate_pairs`), the complete
recombinations (calls of `basefactor._complete_recombination`, one per
complete lift that reached recombining) and the probe images evaluated
(calls of `basefactor._row_values`: one per probe `basefactor._probes`
ranks, whose images mod P and mod q reduce the same integers), the
inversions tried and accepted (calls of `engine._invert_candidate`, and
those that returned a polynomial) and the divisions of the residual
(calls of `engine.divide_out`, and those that divided), then the line
count of src/polyfactor (as `cat src/polyfactor/*.py | wc -l` counts
it), and exits 1 if an entry differs:

    python tests/test_golden.py [workload ...]    # default: every pool
"""

import glob
import json
import os
import sys
import time

import pytest

import polyfactor.basefactor as basefactor
import polyfactor.engine as engine
import polyfactor.sparse as sparse
from polyfactor.oracles import IrredProjOracle
from polyfactor import (
    constant_degree_factors,
    constant_degree_oracle,
    factor_su,
    parse_poly,
    sparse_factors,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "perfbench", "corpus")
FAST_S = 0.1

PIPELINES = {
    "cd": lambda f: constant_degree_factors(f, 2),
    "su": factor_su,
    "sparse-cd": lambda f: sparse_factors(
        f, 12, constant_degree_oracle(2, f.n, f.degree() or 1)
    ),
}


def load_pool(workload):
    with open(os.path.join(CORPUS, workload + ".jsonl")) as fh:
        return [json.loads(line) for line in fh]


def fast_entries(workload):
    pool = load_pool(workload)
    with open(os.path.join(CORPUS, workload + ".costs.json")) as fh:
        costs = json.load(fh)
    assert len(costs) == len(pool)
    return [(i, item) for i, (item, cost) in enumerate(zip(pool, costs)) if cost < FAST_S]


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


def differing_output(workload, item):
    """The entry's canonical output when it differs from the expected one,
    else None."""
    out = canonical(PIPELINES[workload](parse_poly(item["poly"], item["n"])).to_json_dict())
    return None if out == canonical(item["expected"]) else out


@pytest.mark.parametrize("workload", sorted(PIPELINES))
def test_fast_pool_entries_reproduce_expected_output(workload):
    entries = fast_entries(workload)
    assert entries
    wrong = [i for i, item in entries if differing_output(workload, item) is not None]
    assert not wrong, "%s entries %s differ from their expected output" % (workload, wrong)


def main(workloads):
    unknown = sorted(set(workloads) - set(PIPELINES))
    if unknown:
        print("unknown workload %s; choose from %s"
              % (", ".join(unknown), ", ".join(sorted(PIPELINES))), file=sys.stderr)
        return 2
    lift_slice = engine.lift_slice

    def counted(reading, prepared, wanted):
        nonlocal slices
        slices += 1
        return lift_slice(reading, prepared, wanted)

    pairs = IrredProjOracle.pairs

    def counted_pairs(oracle, alpha):
        nonlocal drawn
        for pair in pairs(oracle, alpha):
            drawn += 1
            yield pair

    read = sparse._int_table

    def counted_read(poly, pack=None):
        nonlocal reads
        reads += 1
        return read(poly, pack)

    compose = sparse._compose

    def counted_compose(*args):
        nonlocal substitutions
        substitutions += 1
        return compose(*args)

    bezout_step = basefactor._bezout_step

    def counted_step(*args):
        nonlocal steps
        steps += 1
        return bezout_step(*args)

    lift_pair = basefactor._lift_pair

    def counted_pair(Fser, A0, B0, K, *args):
        nonlocal orders
        orders += K
        return lift_pair(Fser, A0, B0, K, *args)

    dioph_init = basefactor._Dioph.__init__

    def counted_dioph(dioph, *args):
        nonlocal builds
        builds += 1
        dioph_init(dioph, *args)

    solve = basefactor._Dioph.solve

    def counted_solve(dioph, e):
        nonlocal solves
        solves += 1
        return solve(dioph, e)

    univariate = basefactor._factor_univariate_pairs

    def counted_univariate(*args):
        nonlocal univariates
        univariates += 1
        return univariate(*args)

    recombination = basefactor._complete_recombination

    def counted_recombination(*args):
        nonlocal recombinations
        recombinations += 1
        return recombination(*args)

    row_values = basefactor._row_values

    def counted_values(*args):
        nonlocal images
        images += 1
        return row_values(*args)

    invert = engine._invert_candidate

    def counted_invert(h, proj):
        nonlocal tried, accepted
        tried += 1
        g = invert(h, proj)
        accepted += g is not None
        return g

    divide = engine.divide_out

    def counted_divide(residual, g):
        nonlocal divisions, divided
        divisions += 1
        quotient, e = divide(residual, g)
        divided += e > 0
        return quotient, e

    init = sparse.SparsePoly.__init__

    def counted_init(self, n, terms):
        nonlocal built
        built += 1
        init(self, n, terms)

    engine.lift_slice = counted
    IrredProjOracle.pairs = counted_pairs
    for module in list(sys.modules.values()):  # every importer of the kernels
        if getattr(module, "_int_table", None) is read:
            module._int_table = counted_read
        if getattr(module, "_compose", None) is compose:
            module._compose = counted_compose
    basefactor._bezout_step = counted_step
    basefactor._lift_pair = counted_pair
    basefactor._Dioph.__init__ = counted_dioph
    basefactor._Dioph.solve = counted_solve
    basefactor._factor_univariate_pairs = counted_univariate
    basefactor._complete_recombination = counted_recombination
    basefactor._row_values = counted_values
    engine._invert_candidate = counted_invert
    engine.divide_out = counted_divide
    sparse.SparsePoly.__init__ = counted_init
    wrong = 0
    for workload in workloads or sorted(PIPELINES):
        pool = load_pool(workload)
        times = []
        slices = reads = built = substitutions = builds = steps = orders = solves = 0
        univariates = recombinations = images = tried = accepted = divisions = divided = 0
        drawn_per_entry = []
        for i, item in enumerate(pool):
            start = time.process_time()
            drawn = 0
            out = differing_output(workload, item)
            times.append((time.process_time() - start, i))
            drawn_per_entry.append(drawn)
            if out is not None:
                wrong += 1
                print("%s entry %d: got %s, expected %s"
                      % (workload, i, out, canonical(item["expected"])), flush=True)
        slowest = ", ".join("%d (%.2f s)" % (i, t) for t, i in sorted(times)[:-4:-1])
        print("%s: %d entries, %.1f s process time, %d slices, %d oracle pairs "
              "(at most %d per entry), %d integer reads, %d SparsePoly "
              "constructions, %d substitutions, %d Diophantine builds, %d Bezout "
              "lift steps, %d lift v-orders, %d Diophantine solves, %d univariate "
              "factorizations over Q, %d complete recombinations, %d probe "
              "images, %d inversions tried (%d accepted), %d divisions (%d "
              "divided); slowest: %s"
              % (workload, len(pool), sum(t for t, _ in times), slices,
                 sum(drawn_per_entry), max(drawn_per_entry), reads, built,
                 substitutions, builds, steps, orders, solves, univariates,
                 recombinations, images, tried, accepted, divisions, divided,
                 slowest),
              flush=True)
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "polyfactor", "*.py"))):
        with open(path) as fh:
            lines += fh.read().count("\n")
    print("src/polyfactor: %d lines" % lines)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
