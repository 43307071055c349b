#!/usr/bin/env python3
"""Performance gate over repeated traced perfbench runs.

    $ python3 tools/perf_gate.py RESULT...

Each RESULT file holds the standard output of one
`python3 perfbench/run.py --workload small-inputs --seed <s> --seconds 10
--trace 1` run; its last line is the result object. For each gated
quantity the gate takes the median and the inclusive quartiles across the
runs. A quantity fails only when its whole interquartile range lies on the
wrong side of its bound: a single run can swing far past any bound (a
hang-killed trial holds its slot for seconds), while a consistent
regression moves the quartiles.

Exit 0: every quantity passes. 1: some quantity fails. 2: the runs cannot
be judged: fewer than MIN_RUNS files, a file without a result line, a run
whose output check failed, or a gated metric that is missing or not finite.
"""
import json
import math
import statistics
import sys

MIN_RUNS = 5

# (metric, comparison, bound). "<=" fails when q1 > bound, ">=" when
# q3 < bound.
GATES = (
    # ROADMAP item 6: the trace writer, the campaign metrics registry and
    # the file-backed profiler together may cost at most 15% of untraced
    # trials/s.
    ("telemetry.overhead_frac", "<=", 0.15),
    # The paper's Sec. 5.1 worst case: an injected trial costs at most 8x
    # a native setup + run.
    ("supervisor.overhead_x", "<=", 8.0),
    # jobs = nproc must be no slower than jobs 1: on 4 vCPUs that is an
    # efficiency of 1/4.
    ("sched.scaling_eff", ">=", 0.25),
)


def refuse(reason):
    print(f"perf_gate: {reason}", file=sys.stderr)
    sys.exit(2)


def gated_values(path):
    """The gated metrics of one run, as {name: value}."""
    try:
        with open(path, encoding="utf-8") as stream:
            result = json.loads(stream.read().splitlines()[-1])
    except (OSError, IndexError, ValueError) as error:
        refuse(f"{path}: no result line ({error})")
    if not isinstance(result, dict) or result.get("correct") is not True:
        refuse(f"{path}: the run is not \"correct\": true")
    values = {}
    for name, _, _ in GATES:
        try:
            values[name] = float(result["metrics"][name]["value"])
        except (KeyError, TypeError, ValueError):
            refuse(f"{path}: metric {name} is missing")
        if not math.isfinite(values[name]):
            refuse(f"{path}: metric {name} is not finite")
    return values


def main(paths):
    if len(paths) < MIN_RUNS:
        refuse(f"{len(paths)} result files; need at least {MIN_RUNS}")
    runs = [gated_values(path) for path in paths]
    failed = False
    for name, comparison, bound in GATES:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        fails = q1 > bound if comparison == "<=" else q3 < bound
        failed = failed or fails
        print(f"{name} {comparison} {bound:g}: {median:.3f} "
              f"[{q1:.3f}, {q3:.3f}] n={len(values)} "
              f"{'FAIL' if fails else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
