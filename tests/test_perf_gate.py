#!/usr/bin/env python3
"""Self-test of tools/perf_gate.py.

    $ python3 tests/test_perf_gate.py [RESULT_DIR]

RESULT_DIR holds five traced small-inputs result files; the default is
tests/perf_gate_fixtures, five real runs trimmed to their host line and the
fields the gate reads. The runs as they are must pass (exit 0); each gated
quantity pushed past its bound on every run must fail by name (exit 1); a
run set the gate cannot judge must be refused (exit 2). CI points it at its
fresh runs as the proof that the gate can go red.
"""
import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(HERE), "tools", "perf_gate.py")

# Each gated quantity moved past its bound. A value first comes back into
# the range a real run can reach (a traced round is not cheaper than an
# untraced one, nor jobs N more than N times faster than jobs 1): outside
# it is hang noise, and two such runs would hold a quartile on the passing
# side whatever the regression.
REGRESSIONS = {
    "telemetry.overhead_frac": lambda value: max(value, 0.0) + 0.5,
    "supervisor.overhead_x": lambda value: value * 3,
    "sched.scaling_eff": lambda value: min(value, 1.0) * 0.1,
}


def regress(name):
    def edit(runs):
        for _, result in runs:
            metric = result["metrics"][name]
            metric["value"] = REGRESSIONS[name](metric["value"])
    return edit


def cases():
    """(label, edit of the loaded runs, wanted exit, quantity that must FAIL)."""
    yield "runs as they are", lambda runs: None, 0, None
    for name in REGRESSIONS:
        yield f"{name} regressed", regress(name), 1, name
    yield "four runs", lambda runs: runs.pop(), 2, None
    yield ("\"correct\": false",
           lambda runs: runs[0][1].update(correct=False), 2, None)
    yield ("missing metric",
           lambda runs: runs[0][1]["metrics"].pop("sched.scaling_eff"), 2,
           None)
    yield ("NaN metric",
           lambda runs: runs[0][1]["metrics"]["supervisor.overhead_x"].update(
               value=float("nan")), 2, None)


def load(paths):
    """Each run as (its lines before the result line, the result object)."""
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        runs.append((lines[:-1], json.loads(lines[-1])))
    return runs


def write(runs, directory):
    paths = []
    for index, (head, result) in enumerate(runs):
        path = os.path.join(directory, f"run{index}.out")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(head + [json.dumps(result)]) + "\n")
        paths.append(path)
    return paths


def main(argv):
    directory = argv[0] if argv else os.path.join(HERE, "perf_gate_fixtures")
    paths = sorted(glob.glob(os.path.join(directory, "*.out")))
    if len(paths) != 5:
        print(f"test_perf_gate: want 5 result files in {directory}, "
              f"found {len(paths)}")
        return 1
    failures = 0
    for label, edit, want, failing in cases():
        runs = load(paths)
        edit(runs)
        with tempfile.TemporaryDirectory() as tmp:
            gate = subprocess.run([sys.executable, GATE, *write(runs, tmp)],
                                  capture_output=True, text=True, check=False)
        ok = gate.returncode == want
        if failing is not None:
            ok = ok and any(line.startswith(failing + " ") and
                            line.endswith(" FAIL")
                            for line in gate.stdout.splitlines())
        failures += not ok
        print(f"{'ok' if ok else 'FAIL'}: {label}: exit {gate.returncode} "
              f"(want {want})")
        if not ok:
            print(gate.stdout + gate.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
