#!/usr/bin/env python3
"""Validate BENCH_cluster.json: schema + regression vs the checked-in file.

Stdlib-only. Two jobs:

1. Schema (fatal, exit 1): every gate section the benches merge into the
   file must be present with the expected numeric fields, so a bench that
   silently stops writing its section can't pass CI on a stale file.
2. Regression: each gate metric is compared against the checked-in baseline
   (the repo's BENCH_cluster.json). Deterministic metrics (byte/row counts
   and bit-identical flags — e.g. pipeline.peak_over_footprint) are a *hard* gate:
   moving more than --tolerance (default 20%) in the bad direction fails
   with exit 1. Wall-clock-derived ratios (dispatch.speedup,
   prepared_reexec.speedup, udf_vs_builtin_ratio, concurrency.speedup) are
   *advisory*: a move past --timing-tolerance (default 50%) prints a
   WARNING naming each offending metric but never fails the run, because
   the baseline is measured on a developer machine and CI runs on noisy
   shared runners — a hard wall-clock band flakes there, while the benches'
   own --check flags still enforce the machine-local thresholds at measure
   time. Improvements print a note so the baseline can be refreshed.

Usage:
    check_bench_json.py <measured.json> [--baseline BENCH_cluster.json]
                        [--tolerance 0.20] [--timing-tolerance 0.50]
"""

import argparse
import json
import sys

# section -> field -> None (informational) or (direction, kind):
# direction "higher"/"lower" = which way is better; kind "timing" metrics
# derive from wall-clock ratios (loose tolerance), "exact" metrics from
# deterministic byte/row counts (strict tolerance).
SCHEMA = {
    "dispatch": {
        "spawn_per_call_ns": None,  # informational, no direction gated
        "worker_pool_ns": None,
        "speedup": ("higher", "timing"),
    },
    "prepared_reexec": {
        "cold_execute_s": None,
        "prepared_reexec_s": None,
        "speedup": ("higher", "timing"),
        "reexec_repartitions": None,
    },
    "udf_repair": {
        "builtin_agg_s": None,
        "udf_agg_s": None,
        "udf_vs_builtin_ratio": ("lower", "timing"),
        "repairs_applied": None,
    },
    "pipeline": {
        "peak_materialized_bytes": None,
        "footprint_bytes": None,
        # Absolute memory bound: peak transient bytes over the table's
        # logical footprint (<=2 enforced by the bench's own --check).
        "peak_over_footprint": ("lower", "exact"),
        "morsels": None,  # >0 enforced by the bench's own --check
        "pipelined_s": None,
    },
    "out_of_core": {
        "footprint_bytes": None,
        "budget_bytes": None,
        "bytes_spilled": None,  # >0 enforced by the bench's own --check
        "pages_evicted": None,
        "pool_peak_resident_bytes": None,
        "within_budget": ("higher", "exact"),
        "in_memory_s": None,
        "out_of_core_s": None,
        "slowdown": ("lower", "timing"),
        "violations_identical": ("higher", "exact"),
    },
    "concurrency": {
        "sessions": None,
        "serial_s": None,
        "concurrent_s": None,
        "speedup": ("higher", "timing"),
        "violations_identical": ("higher", "exact"),
    },
    "fault_tolerance": {
        "clean_s": None,
        "faulted_s": None,
        "overhead": ("lower", "timing"),
        "tasks_failed": None,
        "tasks_retried": None,
        "violations_identical": ("higher", "exact"),
        "deadline_clean_s": None,
        "deadline_run_s": None,
        "deadline_exceeded": ("higher", "exact"),
    },
    "delta_incremental": {
        "base_rows": None,
        "delta_rows": None,
        "full_reexec_s": None,
        "incremental_s": None,
        "speedup": ("higher", "timing"),
        "full_rows_scanned": None,
        # Deterministic delta-scaling ratio (rows a full round scans / rows
        # an incremental round processes) — the machine-independent form of
        # the ≥10x claim, so it hard-gates while the wall-clock speedup
        # above only warns.
        "row_ratio": ("higher", "exact"),
        "delta_rows_processed": None,
        "groups_remerged": None,
        "incremental_repartitions": None,  # ==0 enforced by bench --check
        "violations_identical": ("higher", "exact"),
    },
    "observability": {
        "off_s": None,
        "profile_s": None,
        "off_overhead": ("lower", "timing"),
        "profile_overhead": ("lower", "timing"),
        "spans_recorded_off": None,  # ==0 enforced by the bench's own --check
        "operator_spans": ("higher", "exact"),
        "spans_total": None,
        "rows_reconciled": ("higher", "exact"),
    },
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"check_bench_json: {path}: file not found")
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench_json: {path}: invalid JSON: {e}")


def check_schema(doc, path):
    if not isinstance(doc, dict):
        sys.exit(f"check_bench_json: {path}: top level is not a JSON object "
                 f"(got {type(doc).__name__})")
    errors = []
    for section, fields in SCHEMA.items():
        if section not in doc:
            errors.append(f"missing section {section!r}")
            continue
        if not isinstance(doc[section], dict):
            errors.append(f"section {section!r} is not an object")
            continue
        for field in fields:
            value = doc[section].get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{section}.{field} missing or non-numeric: {value!r}")
    if errors:
        for e in errors:
            print(f"check_bench_json: {path}: {e}", file=sys.stderr)
        sys.exit(1)


def check_regressions(measured, baseline, tolerance, timing_tolerance):
    """Hard-fails deterministic metrics >tolerance worse than the baseline;
    wall-clock ("timing") metrics only warn, naming each offender."""
    failures = []
    warnings = []
    if not isinstance(baseline, dict):
        # A renamed/corrupted baseline must fail by name, not by traceback.
        sys.exit("check_bench_json: FAILED: baseline top level is not a JSON "
                 f"object (got {type(baseline).__name__})")
    for section, fields in SCHEMA.items():
        measured_section = measured.get(section)
        if not isinstance(measured_section, dict):
            # check_schema normally catches this; a renamed section reaching
            # here (e.g. schema and bench disagree) still fails by name.
            failures.append(f"{section}: section missing from measured file")
            continue
        base_section = baseline.get(section)
        if not isinstance(base_section, dict):
            # Baseline predates this section (first run after a new gate
            # lands): nothing to regress against yet.
            print(f"check_bench_json: note: baseline has no {section!r} section; "
                  "regression check skipped for it")
            continue
        for field, gate in fields.items():
            if gate is None:
                continue
            direction, kind = gate
            field_tolerance = timing_tolerance if kind == "timing" else tolerance
            new = measured_section.get(field)
            if not isinstance(new, (int, float)) or isinstance(new, bool):
                failures.append(f"{section}.{field}: gated metric missing "
                                f"from measured file: {new!r}")
                continue
            old = base_section.get(field)
            if not isinstance(old, (int, float)) or isinstance(old, bool) or old <= 0:
                continue
            ratio = new / old
            sink = warnings if kind == "timing" else failures
            if direction == "higher" and ratio < 1.0 - field_tolerance:
                sink.append(
                    f"{section}.{field} regressed: {new:.4g} vs baseline "
                    f"{old:.4g} ({(1.0 - ratio) * 100:.1f}% worse, "
                    f"tolerance {field_tolerance * 100:.0f}%)")
            elif direction == "lower" and ratio > 1.0 + field_tolerance:
                sink.append(
                    f"{section}.{field} regressed: {new:.4g} vs baseline "
                    f"{old:.4g} ({(ratio - 1.0) * 100:.1f}% worse, "
                    f"tolerance {field_tolerance * 100:.0f}%)")
            elif (direction == "higher" and ratio > 1.0 + field_tolerance) or (
                    direction == "lower" and ratio < 1.0 - field_tolerance):
                print(f"check_bench_json: note: {section}.{field} improved "
                      f"({old:.4g} -> {new:.4g}); consider refreshing the "
                      "checked-in baseline")
    if warnings:
        # Advisory only: wall-clock ratios flake on shared CI runners, so a
        # miss is surfaced loudly (with the metric names) but never fatal.
        names = ", ".join(w.split(" regressed:")[0] for w in warnings)
        for w in warnings:
            print(f"check_bench_json: WARNING (advisory): {w}", file=sys.stderr)
        print(f"check_bench_json: WARNING: timing metric(s) past tolerance: "
              f"{names} — not failing (wall-clock metrics are advisory; "
              "re-measure on the baseline machine to confirm)",
              file=sys.stderr)
    if failures:
        names = ", ".join(f.split(" regressed:")[0] for f in failures)
        for f in failures:
            print(f"check_bench_json: FAILED: {f}", file=sys.stderr)
        print(f"check_bench_json: FAILED metric(s): {names}", file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", help="freshly written BENCH_cluster.json")
    parser.add_argument("--baseline", default="BENCH_cluster.json",
                        help="checked-in baseline to diff against")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression for deterministic "
                             "gate metrics (byte counts)")
    parser.add_argument("--timing-tolerance", type=float, default=0.50,
                        help="allowed fractional regression for "
                             "wall-clock-derived gate metrics")
    args = parser.parse_args()

    measured = load(args.measured)
    check_schema(measured, args.measured)
    baseline = load(args.baseline)
    check_regressions(measured, baseline, args.tolerance, args.timing_tolerance)
    print(f"check_bench_json: OK ({args.measured}: schema valid, no "
          f"deterministic gate metric >{args.tolerance * 100:.0f}% worse "
          f"than {args.baseline})")


if __name__ == "__main__":
    main()
