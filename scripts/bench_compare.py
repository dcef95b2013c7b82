#!/usr/bin/env python3
"""Perf-trajectory gate for the bench JSON files (DESIGN.md §12).

Validates BENCH_throughput.json / BENCH_latency.json against their checked-in
schemas (scripts/bench_*.schema.json) and fails when the current run's
throughput regresses more than the tolerance against the checked-in baseline:

    bench_compare.py --current build/BENCH_throughput.json \
                     --baseline BENCH_throughput.json \
                     --schema scripts/bench_throughput.schema.json \
                     [--tolerance 10] [--validate-only]

Same-job mode (the CI gate): parent and change are built and run
alternately on one host, and the gate fails only when the change's median
ops_per_sec falls below the parent's median by more than
max(tolerance, the parent runs' own interquartile range as a percent of
their median):

    bench_compare.py --schema scripts/bench_throughput.schema.json \
                     --baseline-runs parent-*.json --current-runs change-*.json \
                     --tolerance 2

Exit codes: 0 ok (improvement, within tolerance, or baseline missing — a new
checkout has nothing to regress against), 1 regression or invalid file,
2 usage error. Tolerance is percent (default 10, env SPE_BENCH_TOLERANCE).

Stdlib only. The schema validator is a deliberate subset of JSON Schema —
type / required / properties / items / minimum / const / enum — exactly what
the two bench schemas use; unknown keywords are rejected so a schema edit
cannot silently stop validating.
"""

import argparse
import json
import os
import statistics
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}

_KNOWN_KEYWORDS = {
    "$schema", "title", "description", "type", "required", "properties",
    "items", "minimum", "const", "enum", "additionalProperties",
}


def validate(instance, schema, path="$"):
    """Returns a list of error strings (empty = valid)."""
    errors = []
    unknown = set(schema) - _KNOWN_KEYWORDS
    if unknown:
        return ["%s: schema uses unsupported keywords %s" % (path, sorted(unknown))]

    if "const" in schema and instance != schema["const"]:
        errors.append("%s: expected %r, got %r" % (path, schema["const"], instance))
    if "enum" in schema and instance not in schema["enum"]:
        errors.append("%s: %r not one of %r" % (path, instance, schema["enum"]))

    expected = schema.get("type")
    if expected is not None:
        py = _TYPES.get(expected)
        if py is None:
            return ["%s: schema names unknown type %r" % (path, expected)]
        # bool is an int subclass in Python; never accept it for numbers.
        if isinstance(instance, bool) and expected in ("number", "integer"):
            errors.append("%s: expected %s, got boolean" % (path, expected))
            return errors
        if not isinstance(instance, py):
            errors.append(
                "%s: expected %s, got %s" % (path, expected, type(instance).__name__))
            return errors

    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append("%s: %r below minimum %r" % (path, instance, schema["minimum"]))

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append("%s: missing required key %r" % (path, key))
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                errors.extend(validate(instance[key], sub, "%s.%s" % (path, key)))
        if schema.get("additionalProperties") is False:
            for key in instance:
                if key not in props:
                    errors.append("%s: unexpected key %r" % (path, key))

    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], "%s[%d]" % (path, i)))

    return errors


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit("bench_compare: cannot read %s %s: %s" % (what, path, e))
    except ValueError as e:
        print("bench_compare: %s %s is not valid JSON: %s" % (what, path, e))
        raise SystemExit(1)


def compare_throughput(current, baseline, tolerance_pct):
    """Returns (ok, message) for the ops_per_sec trajectory."""
    base = baseline.get("ops_per_sec", 0.0)
    cur = current.get("ops_per_sec", 0.0)
    if not isinstance(base, (int, float)) or base <= 0:
        return True, "baseline has no usable ops_per_sec; skipping comparison"
    delta_pct = (cur - base) / base * 100.0
    msg = "ops_per_sec %.1f -> %.1f (%+.1f%%, tolerance -%g%%)" % (
        base, cur, delta_pct, tolerance_pct)
    if delta_pct < -tolerance_pct:
        return False, "REGRESSION: " + msg
    return True, msg


MIN_PAIRED_RUNS = 5


def compare_paired(current_runs, baseline_runs, tolerance_pct):
    """Returns (ok, message) for same-job parent/change runs of ops_per_sec.

    The noise band is the parent's own interquartile range relative to its
    median, floored at tolerance_pct: a noisy host widens the band, a quiet
    one never narrows it below the floor.
    """
    base = [r["ops_per_sec"] for r in baseline_runs]
    cur = [r["ops_per_sec"] for r in current_runs]
    base_med = statistics.median(base)
    cur_med = statistics.median(cur)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    iqr_pct = (q3 - q1) / base_med * 100.0
    band_pct = max(tolerance_pct, iqr_pct)
    delta_pct = (cur_med - base_med) / base_med * 100.0
    msg = ("median ops_per_sec %.1f (parent, %d runs, IQR %.1f%%) -> %.1f "
           "(change, %d runs): %+.1f%%, band -%.1f%%" % (
               base_med, len(base), iqr_pct, cur_med, len(cur), delta_pct,
               band_pct))
    if delta_pct < -band_pct:
        return False, "REGRESSION: " + msg
    return True, msg


def load_runs(paths, schema, what):
    """Loads and schema-checks every run file; None when one is invalid."""
    runs = []
    for path in paths:
        run = load_json(path, what)
        errors = validate(run, schema)
        if errors:
            print("bench_compare: %s %s fails schema:" % (what, path))
            for err in errors:
                print("  " + err)
            return None
        runs.append(run)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", help="JSON produced by this run")
    parser.add_argument("--current-runs", nargs="+", metavar="JSON",
                        help="same-job runs of the change (with --baseline-runs)")
    parser.add_argument("--baseline-runs", nargs="+", metavar="JSON",
                        help="same-job runs of the parent commit")
    parser.add_argument("--baseline",
                        help="checked-in reference JSON (throughput compare)")
    parser.add_argument("--schema", required=True,
                        help="schema to validate --current (and --baseline) against")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("SPE_BENCH_TOLERANCE", "10")),
                        help="max allowed ops_per_sec drop, percent (default 10)")
    parser.add_argument("--validate-only", action="store_true",
                        help="schema-check --current and exit (no baseline diff)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    paired = args.current_runs is not None or args.baseline_runs is not None
    if paired == (args.current is not None):
        parser.error("give either --current or --current-runs/--baseline-runs")

    schema = load_json(args.schema, "schema")
    if paired:
        if (len(args.current_runs or []) < MIN_PAIRED_RUNS or
                len(args.baseline_runs or []) < MIN_PAIRED_RUNS):
            parser.error("same-job mode needs at least %d runs of each side"
                         % MIN_PAIRED_RUNS)
        current_runs = load_runs(args.current_runs, schema, "change run")
        baseline_runs = load_runs(args.baseline_runs, schema, "parent run")
        if current_runs is None or baseline_runs is None:
            return 1
        ok, message = compare_paired(current_runs, baseline_runs, args.tolerance)
        print("bench_compare: " + message)
        return 0 if ok else 1

    current = load_json(args.current, "current report")

    errors = validate(current, schema)
    if errors:
        print("bench_compare: %s fails %s:" % (args.current, args.schema))
        for err in errors:
            print("  " + err)
        return 1
    print("bench_compare: %s matches %s" % (args.current, args.schema))
    if args.validate_only:
        return 0

    if not args.baseline:
        parser.error("--baseline is required unless --validate-only")
    if not os.path.exists(args.baseline):
        # A fresh checkout / first run has nothing to regress against.
        print("bench_compare: baseline %s missing; nothing to compare (ok)"
              % args.baseline)
        return 0
    baseline = load_json(args.baseline, "baseline")
    errors = validate(baseline, schema)
    if errors:
        print("bench_compare: baseline %s fails schema; skipping comparison (ok)"
              % args.baseline)
        for err in errors:
            print("  " + err)
        return 0

    ok, message = compare_throughput(current, baseline, args.tolerance)
    print("bench_compare: " + message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
