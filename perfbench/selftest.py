"""Fast self-test of the benchmark harness (about ten seconds).

Usage: python3 perfbench/selftest.py

Runs the harness on a tiny corpus in both modes and checks that every metric
declared in BENCHMARK.json prints by name with its declared unit, that a
planted wrong factor trips the soundness gate, that a hooked attribute gone
from the package stops a traced run, and that the benchmark refuses to run
where the package sources are missing.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), spec["workloads"]
    assert spec["run_seconds"] == run.SIZED_FOR_SECONDS, spec["run_seconds"]
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def tiny(workload, count=3):
    """The cheapest pool entries of a workload."""
    pool, costs = run.load_pool(workload)
    order = sorted(range(len(pool)), key=lambda i: (costs[i], i))
    return [pool[i] for i in order[:count]]


def check_metrics(workload, trace, want):
    items = tiny(workload)
    result = run.run_workload(workload, 1, 0, trace, items=items)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.report(result)
    lines = printed.getvalue().splitlines()
    body = run.as_json(result)
    assert set(body) == {"correct", "attempted", "failed", "metrics"}, body
    passes = 1 + 2 * run.TRACE_ROUNDS if trace else run.SAMPLING[workload]["passes"]
    assert result["passes"] == passes, result["passes"]
    assert body["correct"] and body["failed"] == 0 and body["attempted"] == passes * len(items), body
    assert trace or result["tail_percentile"] == 50.0, result["tail_percentile"]  # no tail
    got = {name: m["unit"] for name, m in body["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    for name, unit in want.items():
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit for line in lines
        ), "%s [%s] not printed" % (name, unit)


def check_gate():
    from polyfactor import parse_poly
    from polyfactor.factors import FactorList

    item = next(i for i in tiny("cd", 20) if i["expected"]["factors"])
    good = item["expected"]
    assert run.soundness_violations([item], [good]) == []
    planted = json.loads(json.dumps(good))
    planted["factors"][0]["multiplicity"] += 1
    assert run.soundness_violations([item], [planted]), "over-counted multiplicity passed"
    planted = json.loads(json.dumps(good))
    planted["factors"].append({"poly": "z1 + 7", "multiplicity": 1})
    assert run.soundness_violations([item], [planted]), "non-dividing factor passed"

    # end to end: a pipeline that emits a wrong factor stops the run (code 3)
    def wrong(f):
        return FactorList.build(1, [(parse_poly("z1 + 7", f.n), 1)])

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            run.run_workload("cd", 1, 0, 0, items=[item], call=wrong)
    except SystemExit as exc:
        assert exc.code == 3, exc.code
    else:
        raise AssertionError("planted wrong factor did not trip the gate")


def check_missing_hook_fails():
    import polyfactor.engine as engine
    from tracer import HookMissing, Tracer

    saved = engine.psi_map
    del engine.psi_map
    tracer = Tracer()
    try:
        tracer.install()
    except HookMissing:
        pass
    else:
        raise AssertionError("a missing hook did not stop the traced run")
    finally:
        tracer.uninstall()
        engine.psi_map = saved


def check_refuses_without_sources():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "su", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout


def main():
    end_to_end, per_layer = declared()
    for workload in run.WORKLOADS:
        check_metrics(workload, 0, end_to_end)
    check_metrics("su", 1, per_layer)
    check_gate()
    check_missing_hook_fails()
    check_refuses_without_sources()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
