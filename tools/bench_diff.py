#!/usr/bin/env python3
"""Compare two BENCH_*.json documents row by row — the CI perf gate.

    $ bench_diff.py baseline.json current.json [--threshold 0.5] [--json]

Each BENCH_*.json document (bench/bench_common.hpp's bench_doc) carries a
`bench` name, a `schema_version`, and a `points` array. Points are matched
between the two documents by their identity keys (workload / jobs —
whatever non-metric keys the point carries), and only *relative* metrics
are compared: speedups and overhead fractions. Absolute ms/trial and trials/s depend on the host
the bench ran on, so a committed baseline can only make portable claims
about ratios ("jobs=4 is >= 3x jobs=1", "profiler on is within noise of
off") — and those are exactly what this gate protects.

A relative metric regresses when it moves *against* the claim by more than
the noise threshold:

  - speedup (higher is better): current < baseline * (1 - t)
  - overhead_fraction (lower is better): current > baseline + t

The threshold is deliberately generous (default 0.5 = 50% relative / +0.5
absolute overhead) because CI machines are noisy; the gate exists to catch
"parallel trials stopped scaling" and "the profiler got expensive", not
2% jitter.

Exit codes: 0 = no regression, 1 = at least one regression, 2 = usage or
unreadable/incompatible documents.
"""

import argparse
import json
import sys

# Point keys that identify a row rather than measure it.
IDENTITY_KEYS = ("workload", "jobs")

# Relative metrics and their direction: "up" means higher is better.
RELATIVE_METRICS = {
    "speedup": "up",
    "speedup_telemetry_off": "up",
    "speedup_telemetry_on": "up",
    "overhead_fraction": "down",
}


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.stderr.write(f"bench_diff: {path}: {error}\n")
        return None
    if not isinstance(doc, dict) or "points" not in doc:
        sys.stderr.write(f"bench_diff: {path}: not a BENCH_*.json document\n")
        return None
    return doc


def point_key(point):
    """Identity of one point: the non-metric keys, in a stable order."""
    return tuple(
        (key, point[key]) for key in IDENTITY_KEYS if key in point
    )


def key_label(key):
    return ", ".join(f"{name}={value}" for name, value in key) or "(only row)"


def compare(baseline, current, threshold):
    """Yields finding dicts; regression=True entries trip the gate."""
    if baseline.get("bench") != current.get("bench"):
        yield {
            "regression": True,
            "metric": "bench",
            "detail": (
                f"bench name mismatch: baseline is "
                f"'{baseline.get('bench')}', current is "
                f"'{current.get('bench')}'"
            ),
        }
        return
    if baseline.get("schema_version") != current.get("schema_version"):
        yield {
            "regression": True,
            "metric": "schema_version",
            "detail": (
                f"schema mismatch: baseline v{baseline.get('schema_version')}"
                f" vs current v{current.get('schema_version')}"
            ),
        }
        return

    base_points = {point_key(p): p for p in baseline["points"]}
    for point in current["points"]:
        key = point_key(point)
        base = base_points.pop(key, None)
        if base is None:
            yield {
                "regression": False,
                "metric": "coverage",
                "detail": f"new point not in baseline: {key_label(key)}",
            }
            continue
        for metric, direction in RELATIVE_METRICS.items():
            if metric not in base or metric not in point:
                continue
            before = float(base[metric])
            after = float(point[metric])
            if direction == "up":
                regressed = after < before * (1.0 - threshold)
                moved = (
                    f"{metric} fell {before:.3f} -> {after:.3f} "
                    f"(allowed >= {before * (1.0 - threshold):.3f})"
                )
            else:
                regressed = after > before + threshold
                moved = (
                    f"{metric} rose {before:.3f} -> {after:.3f} "
                    f"(allowed <= {before + threshold:.3f})"
                )
            yield {
                "regression": regressed,
                "metric": metric,
                "point": key_label(key),
                "detail": moved,
            }
    for key in base_points:
        yield {
            "regression": True,
            "metric": "coverage",
            "detail": f"baseline point missing from current: {key_label(key)}",
        }


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json documents; exit 1 on regression."
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="noise allowance: relative drop for speedups, absolute rise "
        "for overhead fractions (default 0.5)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args()
    if args.threshold <= 0.0:
        sys.stderr.write("bench_diff: --threshold must be positive\n")
        return 2

    baseline = load_doc(args.baseline)
    current = load_doc(args.current)
    if baseline is None or current is None:
        return 2

    findings = list(compare(baseline, current, args.threshold))
    regressions = [f for f in findings if f["regression"]]

    if args.as_json:
        print(
            json.dumps(
                {
                    "bench": current.get("bench"),
                    "threshold": args.threshold,
                    "regressed": bool(regressions),
                    "findings": findings,
                }
            )
        )
    else:
        name = current.get("bench", "?")
        for finding in findings:
            tag = "REGRESSION" if finding["regression"] else "ok"
            where = finding.get("point", "")
            print(
                f"[{tag}] {name}"
                + (f" [{where}]" if where else "")
                + f": {finding['detail']}"
            )
        checked = sum(1 for f in findings if f["metric"] in RELATIVE_METRICS)
        print(
            f"bench_diff: {name}: {checked} relative metrics checked, "
            f"{len(regressions)} regression(s), threshold {args.threshold}"
        )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
