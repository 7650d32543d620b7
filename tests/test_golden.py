"""Golden outputs: the fast entries of the frozen benchmark pools must
reproduce their expected JSON byte for byte.

The pools under perfbench/corpus/ were certified by sympy when they were
frozen; each entry carries its expected output and its cost at reference
speed.  This re-runs the entries that cost under 0.1 s, through the same
pipeline calls as perfbench/run.py, and only reads the corpus.
"""

import json
import os

import pytest

from polyfactor import (
    constant_degree_factors,
    constant_degree_oracle,
    factor_su,
    parse_poly,
    sparse_factors,
)

CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "corpus")
FAST_S = 0.1

PIPELINES = {
    "cd": lambda f: constant_degree_factors(f, 2),
    "su": factor_su,
    "sparse-cd": lambda f: sparse_factors(
        f, 12, constant_degree_oracle(2, f.n, f.degree() or 1)
    ),
}


def fast_entries(workload):
    with open(os.path.join(CORPUS, workload + ".jsonl")) as fh:
        pool = [json.loads(line) for line in fh]
    with open(os.path.join(CORPUS, workload + ".costs.json")) as fh:
        costs = json.load(fh)
    assert len(costs) == len(pool)
    return [(i, item) for i, (item, cost) in enumerate(zip(pool, costs)) if cost < FAST_S]


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(PIPELINES))
def test_fast_pool_entries_reproduce_expected_output(workload):
    call = PIPELINES[workload]
    entries = fast_entries(workload)
    assert entries
    wrong = []
    for i, item in entries:
        out = call(parse_poly(item["poly"], item["n"])).to_json_dict()
        if canonical(out) != canonical(item["expected"]):
            wrong.append(i)
    assert not wrong, "%s entries %s differ from their expected output" % (workload, wrong)
