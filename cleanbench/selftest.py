#!/usr/bin/env python3
"""Self-test of the CleanDB benchmark at smoke size.

Run from the root of a source checkout:

    python3 cleanbench/selftest.py

For every workload it checks that
  * each metric BENCHMARK.json names is emitted, with its unit, and no other;
  * the deterministic per-layer counts repeat exactly across two runs;
  * a held-out seed emits the same metric set and passes the correctness gate;
  * the correctness gate fails when given a wrong reference digest.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys

import run

SMOKE_SECONDS = "1"
SEED = 7
HELD_OUT_SEED = 1009

# Per-layer metrics that depend only on the inputs, never on timing.
DETERMINISTIC = (
    "algebra.nests_coalesced",
    "physical.repartitions",
    "physical.cache_hit_ratio",
    "engine.rows_shuffled",
    "engine.bytes_shuffled",
    "engine.shuffle_batches",
    "engine.groups_built",
    "engine.morsels_processed",
    "engine.dispatches",
    "engine.node_imbalance",
    "text.comparisons",
    "cluster.precision",
    "cluster.recall",
    "cleaning.incremental_ratio",
    "cleaning.delta_rows_processed",
    "cleaning.groups_remerged",
    "cleaning.violations",
    "cleaning.retracted",
    "cleaning.new",
    "cleaning.dirty_entities",
)


def drive(workload, seed, trace, *extra):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        print(f"selftest: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_shape(result, defs, what):
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys {sorted(result)}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {d["name"]: d["unit"] for d in defs}
    check(emitted == expected, f"{what}: metrics {emitted} != BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def check_passes(result, what):
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correctness gate failed ({result['failed']} of "
          f"{result['attempted']} operations)")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()
    for w in spec["workloads"]:
        name = w["name"]
        first = drive(name, SEED, 1)
        second = drive(name, SEED, 1)
        end_to_end = drive(name, SEED, 0)
        for result, defs, what in ((first, spec["per_layer"], "traced run"),
                                   (second, spec["per_layer"], "second traced run"),
                                   (end_to_end, spec["end_to_end"], "end-to-end run")):
            check_shape(result, defs, f"{name} {what}")
            check_passes(result, f"{name} {what}")
        for metric in DETERMINISTIC:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            check(a == b, f"{name}: {metric} differs across runs ({a} vs {b})")

        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            held_out = drive(name, HELD_OUT_SEED, trace)
            check_shape(held_out, defs, f"{name} held-out seed")
            check_passes(held_out, f"{name} held-out seed")

        corrupt = drive(name, SEED, 0, "--corrupt-reference")
        check(corrupt["correct"] is False and corrupt["failed"] >= 1,
              f"{name}: the gate passed against a wrong reference digest")
        print(f"selftest: {name} ok", file=sys.stderr)
    print("selftest: all workloads ok", file=sys.stderr)


if __name__ == "__main__":
    main()
