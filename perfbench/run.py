"""Closed-loop benchmark of the three polyfactor pipelines.

    python3 perfbench/run.py --workload {cd,sparse-cd,su,all} --seed N \
        --seconds S --trace {0,1}

One process, one caller: the next input is sent only when the previous one
returned.  One operation is one corpus line: parse_poly, the pipeline call,
FactorList.to_json_dict.  A run sends the seed's inputs in a few whole
passes (the sample is sized so they take about --seconds), compares every
output with its expected JSON, and then checks outside the clock that every
emitted factor g^e divides the input while g^(e+1) does not; a violation
exits with code 3 and no result line.

The gated times are at reference speed: every send, and every fresh set-up
process, is timed between two probes of a fixed pure-Python kernel that runs
no polyfactor code, and its wall time is scaled by REF_KERNEL_S over the
probes' median.  A shared core's speed jumps by about 1.7x, for
milliseconds or for many minutes, and the kernel slows with it; a change to
polyfactor does not move the kernel.  Each input's latency is the median of
its scaled sends.  The wall-clock figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced pass
and then TRACE_ROUNDS rounds that send each input untraced and traced, back
to back, and prints the per-layer metrics (see perfbench/tracer.py); the
outputs of every send are checked in both modes.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(HERE, "corpus")
OUT = os.path.join(HERE, "out")

# Per workload: pool entries left out because they are slower than cap_s,
# the slowest remaining entries pinned into every sample so each seed
# carries the same heavy tail, entries drawn one per cost bin from the rest,
# and the number of passes.  Costs are the reference-speed timings frozen in
# corpus/<workload>.costs.json when the benchmark was defined; they only
# stratify the draw.  Each input is sent once per pass.  The cap trades long
# inputs for more inputs in the same time.  The sizes give passes of about
# SIZED_FOR_SECONDS in all at reference speed; other --seconds values scale
# the number drawn.
SAMPLING = {
    "cd": {"cap_s": 1.0, "pinned": 0, "drawn": 64, "passes": 2},
    "su": {"cap_s": 1.0, "pinned": 0, "drawn": 48, "passes": 2},
    "sparse-cd": {"cap_s": 2.0, "pinned": 2, "drawn": 16, "passes": 3},
}
WORKLOADS = tuple(SAMPLING)
SIZED_FOR_SECONDS = 30
# Fresh set-up processes per pass, run after it, so that the median of all
# of them spans the whole run rather than one slow stretch.
SETUP_PROBES = 3
# The reference kernel's seconds on a fast core of the 2-core x86-64 box the
# benchmark was defined on, and the kernel runs in each probe between sends.
REF_KERNEL_S = 0.0026
KERNEL_RUNS = 3
TAIL_BEYOND = 10
# A traced run's rounds: each sends every input once untraced and once traced.
TRACE_ROUNDS = 2


def load_polyfactor():
    """Import polyfactor from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "polyfactor", "__init__.py")):
        raise SystemExit("perfbench: no polyfactor sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import polyfactor

    if not os.path.abspath(polyfactor.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported polyfactor from %s" % polyfactor.__file__)
    return polyfactor


def pipeline(workload):
    from polyfactor import (
        constant_degree_factors,
        constant_degree_oracle,
        factor_su,
        sparse_factors,
    )

    if workload == "cd":
        return lambda f: constant_degree_factors(f, 2)
    if workload == "sparse-cd":
        return lambda f: sparse_factors(
            f, 12, constant_degree_oracle(2, f.n, f.degree() or 1)
        )
    return factor_su


# ---------------------------------------------------------------------------
# inputs


def load_pool(workload):
    with open(os.path.join(CORPUS, workload + ".jsonl")) as fh:
        pool = [json.loads(line) for line in fh]
    with open(os.path.join(CORPUS, workload + ".costs.json")) as fh:
        costs = json.load(fh)
    if len(costs) != len(pool):
        raise SystemExit("perfbench: %s.costs.json does not match the pool" % workload)
    return pool, costs


def select(costs, seed, pinned, drawn, cap_s):
    """Pool indices of one seed's inputs, in the order they are sent."""
    usable = sorted(
        (i for i, c in enumerate(costs) if c <= cap_s), key=lambda i: (costs[i], i)
    )
    chosen = usable[len(usable) - pinned:] if pinned else []
    rest = usable[: len(usable) - pinned]
    drawn = min(drawn, len(rest))
    rng = random.Random("perfbench-select::%d" % seed)
    for b in range(drawn):
        lo = b * len(rest) // drawn
        hi = (b + 1) * len(rest) // drawn
        chosen.append(rest[rng.randrange(lo, hi)])
    rng.shuffle(chosen)
    return chosen


def inputs_for(workload, seed, seconds):
    """(this seed's inputs, the fixed warm-up input): the warm-up is the pool
    entry at the first cost quartile, the same for every seed."""
    pool, costs = load_pool(workload)
    by_cost = sorted(range(len(pool)), key=lambda i: (costs[i], i))
    warm = pool[by_cost[len(by_cost) // 4]]
    spec = SAMPLING[workload]
    drawn = max(1, round(spec["drawn"] * seconds / SIZED_FOR_SECONDS))
    chosen = select(costs, seed, spec["pinned"], drawn, spec["cap_s"])
    return [pool[i] for i in chosen], warm


# ---------------------------------------------------------------------------
# measurement

_KERNEL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}


def reference_kernel():
    """Fixed work of the kind polyfactor does (a dict of Fraction terms
    squared), sharing no code with it."""
    product = {}
    for (a, b), c in _KERNEL_TERMS.items():
        for (d, e), g in _KERNEL_TERMS.items():
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * g
    return product


def probe():
    """Seconds of KERNEL_RUNS runs of the reference kernel, collector off so
    the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_RUNS):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds, before, after):
    """Wall seconds scaled to reference speed, from the probes around them."""
    return seconds * REF_KERNEL_S / statistics.median(before + after)


def run_pass(items, call, tracer=None, first_op=0):
    """One closed-loop pass: (wall latencies, latencies at reference speed,
    outputs).  Each send is probed around.  With a tracer, the operation ids
    start at first_op."""
    from polyfactor import parse_poly

    latencies = []
    scaled = []
    outputs = []
    clock = time.perf_counter
    before = probe()
    for op, item in enumerate(items, first_op):
        t0 = clock()
        try:
            if tracer is None:
                out = call(parse_poly(item["poly"], item["n"])).to_json_dict()
            else:
                tracer.op = op
                f = tracer.call("parse", parse_poly, item["poly"], item["n"])
                fl = tracer.call("engine", call, f)
                out = tracer.call("parse", fl.to_json_dict)
        except Exception as exc:  # a raising pipeline counts as a failed op
            out = {"error": "%s: %s" % (type(exc).__name__, exc)}
        latencies.append(clock() - t0)
        outputs.append(out)
        after = probe()
        scaled.append(to_reference(latencies[-1], before, after))
        before = after
    return latencies, scaled, outputs


def soundness_violations(items, outputs):
    """(input, factor) pairs where g^e does not divide f or g^(e+1) does."""
    from polyfactor import parse_poly

    bad = []
    seen = set()
    for item, out in zip(items, outputs):
        key = (item["poly"], json.dumps(out, sort_keys=True))
        if key in seen or "factors" not in out:
            continue
        seen.add(key)
        f = parse_poly(item["poly"], item["n"])
        for entry in out["factors"]:
            g = parse_poly(entry["poly"], item["n"])
            e = entry["multiplicity"]
            quotient = f.exact_divide(g**e) if not g.is_constant() else None
            if quotient is None or quotient.exact_divide(g) is not None:
                bad.append((item["poly"], entry))
    return bad


def percentile(sorted_values, q):
    """Percentile q in [0, 100], interpolated between neighbouring ranks."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def setup_times(workload, seed, seconds):
    """(wall, reference-speed) times of SETUP_PROBES fresh processes that
    each import polyfactor, load and parse this seed's inputs and make the
    first call."""
    times = []
    for _ in range(SETUP_PROBES):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - t0
        times.append((wall, to_reference(wall, before, probe())))
    return times


def setup_probe(workload, seed, seconds):
    load_polyfactor()
    from polyfactor import parse_poly

    items, warm = inputs_for(workload, seed, seconds)
    for item in items:
        parse_poly(item["poly"], item["n"])
    pipeline(workload)(parse_poly(warm["poly"], warm["n"])).to_json_dict()


def run_workload(workload, seed, seconds, trace, items=None, call=None):
    """Result dict for one workload, or SystemExit(3) on a soundness violation.
    items and call default to the seed's inputs and the real pipeline."""
    load_polyfactor()
    from polyfactor import parse_poly

    seed_items, warm = inputs_for(workload, seed, seconds)
    items = seed_items if items is None else items
    call = call or pipeline(workload)
    call(parse_poly(warm["poly"], warm["n"])).to_json_dict()  # warm caches

    sends = []  # (wall latencies, reference-speed latencies) per pass
    emitted = []  # one list of outputs, in input order, per pass
    setup = []
    # a traced run makes one untraced pass, then the paired traced passes
    for _ in range(1 if trace else SAMPLING[workload]["passes"]):
        lat, scaled, outs = run_pass(items, call)
        sends.append((lat, scaled))
        emitted.append(outs)
        if not trace:
            setup += setup_times(workload, seed, seconds)
    if trace:
        layers, traced_outs = traced_passes(items, call, workload, seed)
        emitted += traced_outs
    attempted = len(items) * len(emitted)
    failed = sum(
        1 for outs in emitted for item, out in zip(items, outs) if out != item["expected"]
    )

    bad = []
    for outs in emitted:
        bad += soundness_violations(items, outs)
    if bad:
        for poly, entry in bad[:20]:
            print("SOUNDNESS VIOLATION: %s emitted for %s" % (entry, poly), file=sys.stderr)
        raise SystemExit(3)

    result = {
        "workload": workload,
        "seed": seed,
        "inputs": len(items),
        "passes": len(emitted),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        result["layers"] = layers
        return result

    # with fewer than 2 * TAIL_BEYOND inputs there is no tail: report p50
    tail_q = max(50.0, 100.0 * (len(items) - TAIL_BEYOND) / len(items))
    result["tail_percentile"] = tail_q
    result["fail_rate"] = failed / attempted
    # kind 0 is wall-clock time, kind 1 reference speed (the gated metrics)
    for kind, key in ((0, "wall"), (1, "metrics")):
        # each input's latency is the median of its sends
        latency = sorted(statistics.median(p[kind][i] for p in sends) for i in range(len(items)))
        result[key] = {
            "inputs_per_s": (len(items) / sum(latency), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
            "latency_tail_ms": (1000 * percentile(latency, tail_q), "ms"),
            "setup_s": (statistics.median(t[kind] for t in setup), "s"),
        }
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return result


def traced_passes(items, call, workload, seed):
    """(per-layer metrics, the outputs of every send) from TRACE_ROUNDS
    rounds; spans go to perfbench/out/.

    Each round sends every input untraced and traced back to back, in an
    order that alternates by input and by round; trace.overhead_ratio is the
    traced sends' seconds over the untraced sends' seconds, both summed at
    reference speed."""
    from tracer import Tracer

    tracer = Tracer()
    seconds = {False: [], True: []}  # reference-speed latencies, untraced and traced
    sends = {}  # (round, traced) -> outputs in input order
    for r in range(TRACE_ROUNDS):
        for op, item in enumerate(items):
            for with_trace in ((False, True) if (op + r) % 2 == 0 else (True, False)):
                try:
                    if with_trace:
                        tracer.install()
                    _, latency, out = run_pass([item], call, tracer if with_trace else None,
                                               first_op=r * len(items) + op)
                finally:
                    tracer.uninstall()
                seconds[with_trace] += latency
                sends.setdefault((r, with_trace), []).extend(out)
    emitted = sum(
        len(out.get("factors", ())) for (_, traced), outs in sends.items() if traced for out in outs
    )
    layers = tracer.layer_metrics(emitted)
    layers["trace.overhead_ratio"] = (sum(seconds[True]) / sum(seconds[False]), "ratio")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl.gz" % (workload, seed)))
    return layers, list(sends.values())


# ---------------------------------------------------------------------------
# reporting


def source_loc():
    """Physical lines of src/polyfactor/*.py: informational, never gated."""
    total = 0
    package = os.path.join(SRC, "polyfactor")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def report(result):
    """Human-readable lines; every metric by name with its unit."""
    print(
        "workload=%s seed=%d inputs=%d passes=%d attempted=%d failed=%d"
        % (result["workload"], result["seed"], result["inputs"], result["passes"],
           result["attempted"], result["failed"])
    )
    metrics = result.get("metrics") or result["layers"]
    if "fail_rate" in result:
        print("  %-40s %.6f ratio" % ("fail_rate", result["fail_rate"]))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms" and result["inputs"] < 2 * TAIL_BEYOND:
            note = "  (p50: no tail, fewer than %d inputs)" % (2 * TAIL_BEYOND)
        elif name == "latency_tail_ms":
            note = "  (p%.1f: %d of %d inputs per pass beyond it)" % (
                result["tail_percentile"], TAIL_BEYOND, result["inputs"])
        print("  %-40s %.6g %s%s" % (name, value, unit, note))
    for name, (value, unit) in result.get("wall", {}).items():
        print("  %-40s %.6g %s  (wall clock, not gated)" % ("wall." + name, value, unit))


def as_json(result):
    metrics = result.get("metrics") or result["layers"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="polyfactor closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SIZED_FOR_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-out", help="also write the full results to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    load_polyfactor()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {}
    full = {"source_loc": source_loc(), "results": []}
    print("source_loc %d lines (src/polyfactor, informational)" % full["source_loc"])
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        report(result)
        final[name] = as_json(result)
        full["results"].append(dict(result, **final[name]))
    if args.json_out:
        for entry in full["results"]:
            entry.pop("layers", None)
        with open(args.json_out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
