#!/usr/bin/env python3
"""Schema check for phifi telemetry outputs (docs/TELEMETRY.md,
docs/OBSERVATORY.md).

Validates an NDJSON campaign trace, a metrics snapshot (JSON or
OpenMetrics text), a latency-anatomy profile stream and/or a --history
campaign ledger produced by phifi_run, and cross-checks them against the
trace's end record when several are given:

    check_telemetry.py --trace campaign.ndjson --metrics metrics.json
    check_telemetry.py --metrics metrics.json --openmetrics metrics.om
    check_telemetry.py --history reliability.ndjson
    check_telemetry.py --trace campaign.ndjson --profile campaign.profile
    check_telemetry.py --schema build/generated/telemetry_schema.py

--schema loads the field table that phicheck generates at build time from
tools/phicheck/ndjson_schema.txt (the declared source of truth for NDJSON
record shapes). With --schema this script (a) self-checks its own hardcoded
field expectations against the table, so validator/spec drift fails CI even
without an artifact to validate, and (b) strictly checks every record in
--trace/--history against its family: required fields present, no fields
outside the declared set.

Exits non-zero with a pointed message on the first violation. Stdlib only,
so CI can run it without installing anything.
"""

import argparse
import json
import sys

DUE_KINDS = {"none", "crash", "abnormal-exit", "hang", "rlimit", "stall",
             "machine-check"}
FABRIC_KINDS = {"worker_join", "worker_leave", "lease_grant", "lease_adopt",
                "lease_done", "lease_reclaim"}
PROFILE_PHASES_US = ("fork_us", "setup_us", "inject_us", "run_us",
                     "classify_us", "rob_wait_us", "journal_us", "flush_us")


# The NDJSON line currently being validated, so fail() can show the actual
# offending record instead of leaving the user to fish it out by line number.
_OFFENDING_LINE = None

# Field table loaded from --schema: {family: {"required": [...],
# "optional": [...]}}. None means no strict field checking.
_SCHEMA = None


def set_offending_line(line):
    global _OFFENDING_LINE
    _OFFENDING_LINE = line


def fail(message):
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    if _OFFENDING_LINE:
        shown = _OFFENDING_LINE
        if len(shown) > 300:
            shown = shown[:300] + "...[truncated]"
        print(f"check_telemetry: offending line: {shown}", file=sys.stderr)
    sys.exit(1)


def require(condition, message):
    if not condition:
        fail(message)


def load_schema(path):
    """Loads the phicheck-generated field table (a Python file defining
    SCHEMA) without importing it as a module."""
    scope = {}
    with open(path, encoding="utf-8") as stream:
        exec(compile(stream.read(), path, "exec"), scope)  # noqa: S102
    schema = scope.get("SCHEMA")
    require(isinstance(schema, dict) and schema,
            f"{path}: no SCHEMA dict (regenerate with phicheck "
            f"--emit-ndjson-schema)")
    for family, fields in schema.items():
        require(isinstance(fields, dict)
                and set(fields) == {"required", "optional"},
                f"{path}: malformed family {family!r}")
    return schema


def schema_fields(family):
    """All declared fields (required + optional) for a family."""
    entry = _SCHEMA[family]
    return set(entry["required"]) | set(entry["optional"])


def check_fields(record, family, where, extra_ok=()):
    """Strict shape check against the generated table: every required field
    present, nothing outside the declared set. No-op without --schema."""
    if _SCHEMA is None:
        return
    require(family in _SCHEMA,
            f"{where}: record family {family!r} missing from the schema "
            f"table (update tools/phicheck/ndjson_schema.txt)")
    allowed = schema_fields(family) | set(extra_ok)
    # The trace writer stamps correlation context onto every record.
    if family.startswith("trace.") and "trace.context" in _SCHEMA:
        allowed |= schema_fields("trace.context")
    for key in record:
        require(key in allowed,
                f"{where}: field {key!r} is not declared for {family} in "
                f"ndjson_schema.txt")
    for key in _SCHEMA[family]["required"]:
        require(key in record,
                f"{where}: {family} record is missing required field "
                f"{key!r}")


def schema_self_check(schema):
    """Cross-checks this script's hardcoded field expectations against the
    generated table, so the validator cannot silently lag the writers."""
    expected = {
        "trace.fabric": {"kind", "worker", "lease", "begin", "end",
                         "injected", "ts_ms"},
        "trace.end": {"completed", "masked", "sdc", "due", "not_injected",
                      "elapsed_ms", "stopped_early", "due_kinds"},
        "trace.campaign": {"workload", "trials", "time_windows", "jobs"},
        "history.campaign_summary":
            set(HISTORY_COUNTS) | set(HISTORY_RATES)
            | {"workload", "fingerprint", "stopped_early", "interrupted",
               "aborted", "elapsed_seconds", "trials_per_sec", "cells"},
        "history.cell": {"model", "category", "window", "masked", "sdc",
                         "due", "sdc_rate"},
        "profile": set(PROFILE_PHASES_US) | {"attempt", "workload"},
    }
    for family, fields in expected.items():
        require(family in schema,
                f"schema table lost family {family!r} that this validator "
                f"depends on")
        declared = (set(schema[family]["required"])
                    | set(schema[family]["optional"]))
        missing = fields - declared
        require(not missing,
                f"{family}: validator checks field(s) {sorted(missing)} "
                f"that the schema table no longer declares")
    print(f"check_telemetry: schema OK: {len(schema)} families, "
          f"validator expectations all declared")


def check_hex_id(record, key, where):
    """Validates a 16-hex correlation id (docs/FLEET_OBSERVABILITY.md)."""
    value = check_string(record, key, where)
    require(len(value) == 16
            and all(c in "0123456789abcdef" for c in value),
            f"{where}: '{key}' = {value!r} is not 16 hex digits")
    return value


def check_number(record, key, where, minimum=None):
    require(key in record, f"{where}: missing '{key}'")
    value = record[key]
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: '{key}' is not a number: {value!r}")
    if minimum is not None:
        require(value >= minimum, f"{where}: '{key}' = {value} < {minimum}")
    return value


def check_string(record, key, where, allowed=None):
    require(key in record, f"{where}: missing '{key}'")
    value = record[key]
    require(isinstance(value, str), f"{where}: '{key}' is not a string")
    if allowed is not None:
        require(value in allowed,
                f"{where}: '{key}' = {value!r} not in {sorted(allowed)}")
    return value


def check_fabric(record, where):
    """Returns the event kind. Fabric records are the coordinator's lease
    lifecycle log (docs/FABRIC.md); lease-less kinds (worker_join/leave)
    carry zeroed range fields."""
    kind = check_string(record, "kind", where, allowed=FABRIC_KINDS)
    # Correlation (docs/FLEET_OBSERVABILITY.md): every fabric record names
    # the run it belongs to and the worker it concerns.
    check_hex_id(record, "run_id", where)
    check_number(record, "worker", where, minimum=1)
    check_number(record, "lease", where, minimum=0)
    begin = check_number(record, "begin", where, minimum=0)
    end = check_number(record, "end", where, minimum=0)
    require(end >= begin, f"{where}: lease end {end} < begin {begin}")
    injected = check_number(record, "injected", where, minimum=0)
    require(injected <= end - begin,
            f"{where}: injected {injected} exceeds lease width "
            f"{end - begin}")
    check_number(record, "ts_ms", where, minimum=0)
    if kind in ("lease_grant", "lease_adopt", "lease_done", "lease_reclaim"):
        require(record["lease"] >= 1, f"{where}: {kind} without a lease id")
        require(end > begin, f"{where}: {kind} with an empty range")
    return kind


def check_trace(path):
    """Returns (end_record_or_None, segments, fabric_kind_counts,
    run_ids)."""
    fabric_counts = {name: 0 for name in FABRIC_KINDS}
    header = None
    segments = 0
    end = None
    run_ids = set()
    unstamped = 0  # records with no run_id (ok only outside fabric runs)
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            set_offending_line(line)
            if not line:
                fail(f"{where}: blank line in NDJSON stream")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{where}: unparseable record: {error}")
            require(isinstance(record, dict), f"{where}: not an object")
            # Correlation context stamped by the trace writer: validate on
            # every record that carries it, and remember whether any record
            # went unstamped (a fabric trace may not mix).
            if "run_id" in record:
                run_ids.add(check_hex_id(record, "run_id", where))
            else:
                unstamped += 1
            if "worker_id" in record:
                check_number(record, "worker_id", where, minimum=1)
            kind = check_string(record, "type", where)
            if kind in ("campaign", "fabric", "end"):
                check_fields(record, f"trace.{kind}", where)
            if kind == "campaign":
                # A resumed campaign appends a second header (resumed=true)
                # and restarts the campaign clock; only the first segment
                # may claim a fresh start.
                if segments > 0:
                    require(record.get("resumed") is True,
                            f"{where}: non-resumed campaign header after "
                            f"existing records")
                check_string(record, "workload", where)
                if header is not None:
                    require(record["workload"] == header["workload"],
                            f"{where}: workload changed across resume")
                check_number(record, "trials", where, minimum=1)
                check_number(record, "time_windows", where, minimum=1)
                jobs = record.get("jobs", 1)
                require(isinstance(jobs, int) and jobs >= 1,
                        f"{where}: 'jobs' = {jobs!r} is not a positive int")
                header = record
                segments += 1
                end = None
            elif kind == "fabric":
                fabric_counts[check_fabric(record, where)] += 1
            elif kind == "end":
                require(end is None, f"{where}: duplicate end record")
                for key in ("completed", "masked", "sdc", "due",
                            "not_injected"):
                    check_number(record, key, where, minimum=0)
                require(record["masked"] + record["sdc"] + record["due"]
                        == record["completed"],
                        f"{where}: masked+sdc+due != completed")
                check_number(record, "elapsed_ms", where, minimum=0)
                require(isinstance(record.get("stopped_early"), bool),
                        f"{where}: 'stopped_early' is not a bool")
                due_kinds = record.get("due_kinds")
                require(isinstance(due_kinds, dict),
                        f"{where}: 'due_kinds' is not an object")
                for kind_name, count in due_kinds.items():
                    require(kind_name in DUE_KINDS and kind_name != "none",
                            f"{where}: unknown due_kind {kind_name!r}")
                    require(isinstance(count, int) and count > 0,
                            f"{where}: due_kinds[{kind_name!r}] = {count!r} "
                            f"(zero-count kinds are omitted)")
                require(sum(due_kinds.values()) == record["due"],
                        f"{where}: due_kinds sum {sum(due_kinds.values())} "
                        f"!= due {record['due']}")
                end = record
            # Unknown types are forward-compatible: skip.
    set_offending_line(None)  # whole-file checks below have no single line
    fabric_total = sum(fabric_counts.values())
    # A fabric coordinator's trace is pure lease lifecycle, with no
    # campaign header. Anything else must lead with a header.
    require(header is not None or fabric_total > 0,
            f"{path}: no campaign header record")
    if fabric_total > 0:
        require(fabric_counts["lease_grant"] + fabric_counts["lease_adopt"]
                >= fabric_counts["lease_done"],
                f"{path}: more lease_done events than grants + adoptions")
        require(fabric_counts["worker_join"] >= 1,
                f"{path}: fabric events without any worker_join")
        # Fabric runs stamp run_id on *every* record, and one run writes
        # exactly one run id per trace stream.
        require(unstamped == 0,
                f"{path}: {unstamped} record(s) without run_id in a fabric "
                f"trace")
        require(len(run_ids) == 1,
                f"{path}: expected one run_id, saw {sorted(run_ids)}")
    print(f"check_telemetry: trace OK: {path} ({fabric_total} fabric "
          f"records, {segments} segment(s), "
          f"end={'present' if end else 'absent'})")
    return end, segments, fabric_counts, run_ids


def check_metrics(path):
    """Returns the counters dict."""
    with open(path, encoding="utf-8") as stream:
        try:
            snapshot = json.load(stream)
        except json.JSONDecodeError as error:
            fail(f"{path}: unparseable JSON: {error}")
    for section in ("counters", "gauges", "histograms"):
        require(section in snapshot and isinstance(snapshot[section], dict),
                f"{path}: missing '{section}' object")
    counters = snapshot["counters"]
    for name, value in counters.items():
        require(isinstance(value, (int, float)) and value >= 0,
                f"{path}: counter '{name}' = {value!r}")
    for name, hist in snapshot["histograms"].items():
        where = f"{path}: histogram '{name}'"
        edges = hist.get("upper_edges")
        hist_counts = hist.get("counts")
        require(isinstance(edges, list) and edges, f"{where}: bad edges")
        require(edges == sorted(edges) and len(set(edges)) == len(edges),
                f"{where}: edges not strictly ascending")
        require(isinstance(hist_counts, list)
                and len(hist_counts) == len(edges) + 1,
                f"{where}: counts length != edges + overflow")
        require(sum(hist_counts) == hist.get("count"),
                f"{where}: bucket counts do not sum to 'count'")
    completed = counters.get("campaign.completed")
    if completed is not None:
        split = sum(counters.get(f"campaign.{k}", 0)
                    for k in ("masked", "sdc", "due"))
        require(split == completed,
                f"{path}: masked+sdc+due = {split} != campaign.completed "
                f"= {completed}")
    print(f"check_telemetry: metrics OK: {path} "
          f"({len(counters)} counters)")
    return counters


def openmetrics_name(name):
    """The C++ renderer's sanitization: phifi_ prefix, [^A-Za-z0-9_] -> _."""
    return "phifi_" + "".join(
        c if c.isalnum() or c == "_" else "_" for c in name)


def parse_openmetrics(path):
    """Returns (samples dict name->float, types dict family->kind)."""
    samples = {}
    types = {}
    helps = set()
    lines = open(path, encoding="utf-8").read().splitlines()
    require(lines and lines[-1] == "# EOF",
            f"{path}: missing '# EOF' terminator")
    for lineno, line in enumerate(lines[:-1], start=1):
        where = f"{path}:{lineno}"
        set_offending_line(line)
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            require(kind in ("counter", "gauge", "histogram"),
                    f"{where}: unknown metric type {kind!r}")
            require(family not in types, f"{where}: duplicate # TYPE")
            types[family] = kind
            continue
        if line.startswith("# HELP "):
            helps.add(line.split(" ", 3)[2])
            continue
        require(not line.startswith("#"), f"{where}: stray comment line")
        name, _, value = line.rpartition(" ")
        require(name and not name.endswith(" "), f"{where}: bad sample line")
        try:
            samples[name] = float(value)
        except ValueError:
            fail(f"{where}: sample value {value!r} is not a number")
        base = name.split("{", 1)[0]
        require(base.startswith("phifi_"),
                f"{where}: sample {base!r} lacks the phifi_ prefix")
    set_offending_line(None)
    for family in types:
        require(family in helps, f"{path}: {family} has # TYPE but no # HELP")
    return samples, types


def check_openmetrics(path, snapshot_path=None):
    samples, types = parse_openmetrics(path)
    for name in samples:
        base = name.split("{", 1)[0]
        family = base
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[:-len(suffix)] in types:
                family = base[:-len(suffix)]
        require(family in types, f"{path}: sample {name!r} has no # TYPE")

    # Histogram invariants: cumulative non-decreasing buckets, +Inf last
    # and equal to _count.
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = [(name, value) for name, value in samples.items()
                   if name.startswith(f"{family}_bucket{{")]
        require(buckets, f"{path}: histogram {family} has no buckets")
        require(buckets[-1][0] == f'{family}_bucket{{le="+Inf"}}',
                f"{path}: {family}: last bucket is not le=\"+Inf\"")
        previous = 0.0
        for name, value in buckets:
            require(value >= previous,
                    f"{path}: {family}: cumulative bucket {name} decreased")
            previous = value
        require(buckets[-1][1] == samples.get(f"{family}_count"),
                f"{path}: {family}: +Inf bucket != _count")

    if snapshot_path is not None:
        with open(snapshot_path, encoding="utf-8") as stream:
            snapshot = json.load(stream)
        for name, value in snapshot["counters"].items():
            om = openmetrics_name(name) + "_total"
            require(samples.get(om) == value,
                    f"{om} = {samples.get(om)} but JSON counter "
                    f"{name!r} = {value}")
        for name, value in snapshot["gauges"].items():
            om = openmetrics_name(name)
            require(samples.get(om) == value,
                    f"{om} = {samples.get(om)} but JSON gauge "
                    f"{name!r} = {value}")
        for name, hist in snapshot["histograms"].items():
            family = openmetrics_name(name)
            cumulative = [value for key, value in samples.items()
                          if key.startswith(f"{family}_bucket{{")]
            disjoint = [b - a for a, b in
                        zip([0.0] + cumulative[:-1], cumulative)]
            require(disjoint == hist["counts"],
                    f"{family}: de-cumulated buckets {disjoint} != JSON "
                    f"counts {hist['counts']}")
            require(samples.get(f"{family}_count") == hist["count"],
                    f"{family}_count != JSON count")
        print("check_telemetry: openmetrics and metrics snapshot agree")
    print(f"check_telemetry: openmetrics OK: {path} "
          f"({len(samples)} samples, {len(types)} families)")


def check_profile(path):
    """Validates a latency-anatomy NDJSON stream (phifi_run --profile).
    Returns the number of profile records."""
    records = 0
    seen_attempts = set()
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            set_offending_line(line)
            if not line:
                fail(f"{where}: blank line in NDJSON stream")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{where}: unparseable record: {error}")
            require(isinstance(record, dict), f"{where}: not an object")
            if record.get("type") != "profile":
                continue  # forward compatibility
            check_fields(record, "profile", where)
            attempt = check_number(record, "attempt", where, minimum=0)
            # One record per committed attempt — within one process's
            # stream an attempt index never repeats.
            require(attempt not in seen_attempts,
                    f"{where}: duplicate profile record for attempt "
                    f"{attempt}")
            seen_attempts.add(attempt)
            check_string(record, "workload", where)
            for key in PROFILE_PHASES_US:
                value = check_number(record, key, where, minimum=0)
                require(isinstance(value, int),
                        f"{where}: '{key}' = {value!r} is not an integer "
                        f"microsecond count")
            records += 1
    set_offending_line(None)
    require(records, f"{path}: no profile records")
    print(f"check_telemetry: profile OK: {path} ({records} records, "
          f"all attempts distinct)")
    return records


HISTORY_COUNTS = ("completed", "masked", "sdc", "due", "not_injected",
                  "trials_target", "seed", "jobs")
HISTORY_RATES = ("sdc_rate", "sdc_ci_lo", "sdc_ci_hi",
                 "due_rate", "due_ci_lo", "due_ci_hi")


def check_history(path):
    """Returns the list of campaign_summary records."""
    records = []
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            set_offending_line(line)
            if not line:
                fail(f"{where}: blank line in NDJSON ledger")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{where}: unparseable record: {error}")
            if record.get("type") != "campaign_summary":
                continue  # forward compatibility
            check_fields(record, "history.campaign_summary", where)
            check_string(record, "workload", where)
            if record.get("run_id"):
                check_hex_id(record, "run_id", where)
            fingerprint = check_string(record, "fingerprint", where)
            require(len(fingerprint) == 16
                    and all(c in "0123456789abcdef" for c in fingerprint),
                    f"{where}: fingerprint {fingerprint!r} is not 16 hex "
                    f"digits")
            for key in HISTORY_COUNTS:
                check_number(record, key, where, minimum=0)
            split = (record["masked"] + record["sdc"] + record["due"])
            require(split == record["completed"],
                    f"{where}: masked+sdc+due = {split} != completed = "
                    f"{record['completed']}")
            for key in ("stopped_early", "interrupted", "aborted"):
                require(isinstance(record.get(key), bool),
                        f"{where}: '{key}' is not a bool")
            check_number(record, "elapsed_seconds", where, minimum=0)
            check_number(record, "trials_per_sec", where, minimum=0)
            for key in HISTORY_RATES:
                value = check_number(record, key, where, minimum=0)
                require(value <= 1.0,
                        f"{where}: '{key}' = {value} outside [0, 1]")
            require(record["sdc_ci_lo"] <= record["sdc_rate"]
                    <= record["sdc_ci_hi"],
                    f"{where}: sdc interval does not bracket sdc_rate")
            cells = record.get("cells")
            require(isinstance(cells, list), f"{where}: 'cells' not a list")
            for i, cell in enumerate(cells):
                cell_where = f"{where} cell[{i}]"
                check_fields(cell, "history.cell", cell_where)
                check_string(cell, "model", cell_where)
                check_string(cell, "category", cell_where)
                check_number(cell, "window", cell_where, minimum=0)
                total = sum(check_number(cell, key, cell_where, minimum=0)
                            for key in ("masked", "sdc", "due"))
                require(total > 0, f"{cell_where}: empty cell persisted")
                rate = check_number(cell, "sdc_rate", cell_where, minimum=0)
                require(rate <= 1.0,
                        f"{cell_where}: sdc_rate {rate} outside [0, 1]")
            records.append(record)
    set_offending_line(None)
    require(records, f"{path}: no campaign_summary records")
    print(f"check_telemetry: history OK: {path} ({len(records)} campaign "
          f"record(s))")
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="NDJSON campaign trace to validate")
    parser.add_argument("--metrics", help="JSON metrics snapshot to validate")
    parser.add_argument("--openmetrics",
                        help="OpenMetrics text exposition to validate "
                             "(cross-checked against --metrics when given)")
    parser.add_argument("--history",
                        help="--history campaign ledger to validate")
    parser.add_argument("--profile",
                        help="latency-anatomy NDJSON stream to validate "
                             "(cross-checked against --trace when given)")
    parser.add_argument("--schema",
                        help="phicheck-generated field table "
                             "(build/generated/telemetry_schema.py); "
                             "enables strict per-record field checking")
    args = parser.parse_args()
    if not any((args.trace, args.metrics, args.openmetrics, args.history,
                args.profile, args.schema)):
        parser.error("nothing to check: pass --trace, --metrics, "
                     "--openmetrics, --history, --profile and/or --schema")

    if args.schema:
        global _SCHEMA
        _SCHEMA = load_schema(args.schema)
        schema_self_check(_SCHEMA)

    trace = check_trace(args.trace) if args.trace else None
    counters = check_metrics(args.metrics) if args.metrics else None
    if args.openmetrics:
        check_openmetrics(args.openmetrics, snapshot_path=args.metrics)
    history = check_history(args.history) if args.history else None
    profile_records = check_profile(args.profile) if args.profile else None

    # Every cross-check reads the trace's end record: the campaign tally of
    # a local run, the fleet fold of the LeaseDone details on a coordinator.
    if trace is not None and (counters is not None or history is not None
                              or profile_records is not None):
        end, segments, fabric_counts, run_ids = trace
        require(end is not None, "trace has no end record to cross-check")

    if trace is not None and profile_records is not None:
        # The profiler observes every committed attempt (NotInjected ones
        # included) and skips journal-replayed ones, so on a single-segment
        # trace its record count is the end record's attempt count.
        if segments == 1:
            attempts = end["completed"] + end["not_injected"]
            require(profile_records == attempts,
                    f"profile has {profile_records} records but the end "
                    f"record counts {attempts} attempts (every committed "
                    f"attempt must be profiled exactly once)")
            print("check_telemetry: end record and profile agree")

    if trace is not None and counters is not None:
        for key in ("completed", "masked", "sdc", "due"):
            value = counters.get(f"campaign.{key}", 0)
            require(value == end[key],
                    f"campaign.{key} = {value} but the end record says "
                    f"{end[key]}")
        # The coordinator increments these counters at the same sites it
        # traces the matching lifecycle event, so a same-run pair must agree.
        for kind, counter in (("lease_grant", "fabric.leases_granted"),
                              ("lease_reclaim", "fabric.leases_reclaimed")):
            if counter in counters:
                require(counters[counter] == fabric_counts[kind],
                        f"{counter} = {counters[counter]} but the trace "
                        f"has {fabric_counts[kind]} {kind} events")
        print("check_telemetry: trace and metrics agree")
    if trace is not None and history is not None:
        # On a coordinator the history is typically a replay of the merged
        # shard journals, so equality proves the live fold == the merge.
        latest = history[-1]
        for key in ("completed", "masked", "sdc", "due"):
            require(latest[key] == end[key],
                    f"history.{key} = {latest[key]} but the end record "
                    f"says {end[key]}")
        print("check_telemetry: trace and history agree")
        if run_ids and latest.get("run_id"):
            require(latest["run_id"] in run_ids,
                    f"history run_id {latest['run_id']!r} does not match "
                    f"the trace ({sorted(run_ids)})")

if __name__ == "__main__":
    main()
