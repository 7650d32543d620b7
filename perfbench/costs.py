"""Time every pool entry of one workload and freeze the timings.

Usage: python3 perfbench/costs.py --workload {cd,sparse-cd,su}

Writes perfbench/corpus/<workload>.costs.json, one number of seconds per pool
line, at reference speed as run.py measures it: the median of three runs, or
one run for an entry slower than SINGLE_ABOVE_S (an entry still running after
TIMEOUT_S is recorded as TIMEOUT_S).

run.py uses these timings only to stratify which pool entries a seed draws;
they are never compared with a new measurement.  Every entry, also those
run.py leaves out as too slow, must give its expected output: otherwise this
exits with code 1 and writes nothing.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time

import run

TIMEOUT_S = 60
SINGLE_ABOVE_S = 10.0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    args = ap.parse_args(argv)
    run.load_polyfactor()
    from polyfactor import parse_poly

    with open(os.path.join(run.CORPUS, args.workload + ".jsonl")) as fh:
        pool = [json.loads(line) for line in fh]
    call = run.pipeline(args.workload)
    signal.signal(signal.SIGALRM, _alarm)
    costs = []
    bad = []
    for index, item in enumerate(pool):
        times = []
        status = "ok"
        while len(times) < 3 and not (times and times[0] > SINGLE_ABOVE_S):
            before = run.probe()
            t0 = time.perf_counter()
            signal.alarm(TIMEOUT_S)
            try:
                out = call(parse_poly(item["poly"], item["n"])).to_json_dict()
                times.append(run.to_reference(time.perf_counter() - t0, before, run.probe()))
            except _Timeout:
                out = None
                times.append(float(TIMEOUT_S))
            finally:
                signal.alarm(0)
            if out != item["expected"]:
                status = "timeout" if out is None else "MISMATCH"
        cost = statistics.median(times)
        print("%4d %8.3f s  %s" % (index, cost, status), flush=True)
        costs.append(round(cost, 3))
        if status != "ok":
            bad.append(index)
    if bad:
        # a pool entry that fails or times out would be a defect hidden by
        # the cap, so nothing is frozen
        print("costs: entries %s did not give their expected output" % bad, file=sys.stderr)
        return 1
    with open(os.path.join(run.CORPUS, args.workload + ".costs.json"), "w") as fh:
        json.dump(costs, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
