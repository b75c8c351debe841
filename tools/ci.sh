#!/usr/bin/env bash
# CI driver: configure → build → test for the release, asan, ubsan, and
# tsan presets, then the perf/memory regression gates.
#
# Env knobs:
#   JOBS=<n>              parallelism (default: nproc)
#   CI_SKIP_CONFIGURE=1   skip `cmake --preset` for build dirs that are
#                         already configured — local iteration stays
#                         incremental instead of reconfiguring from scratch
#                         every run. Fresh/unconfigured dirs still configure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CI_SKIP_CONFIGURE="${CI_SKIP_CONFIGURE:-0}"

configure() {
  local preset="$1"
  if [[ "$CI_SKIP_CONFIGURE" == "1" && -f "build-$preset/CMakeCache.txt" ]]; then
    echo "=== [$preset] configure skipped (CI_SKIP_CONFIGURE=1, cache present) ==="
    return
  fi
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
}

for preset in release asan ubsan tsan; do
  configure "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] ctest ==="
  # The ubsan and tsan test presets exclude LABELS slow cases (bench/example
  # smokes) via CMakePresets.json — UB coverage comes from the unit/e2e
  # suites, the tsan leg exists for the concurrency suites (worker pool,
  # morsel pump, partition cache, session stress), and the slow cases
  # already run under release and asan.
  ctest --preset "$preset" -j "$JOBS"
done

# Gate commands run under `set -x` so a CI failure log shows the exact
# invocation to reproduce locally.
set -x

# Perf regression gate: the worker-pool dispatch path must stay clearly
# faster than spawn-per-call (--check exits non-zero past a generous
# threshold), so the pool can't silently regress back to thread-per-operator.
# Full (non-smoke) scale: the checked-in BENCH_cluster.json baseline is
# measured at full scale, so the regression diff below compares like with
# like.
./build-release/bench_cluster_primitives --check \
  --out build-release/BENCH_cluster.json

# Prepared-query + UDF + pipeline + fault-tolerance gates on the 8-FD
# unified plan (pure compute): re-executing a PreparedQuery on a warm
# session must stay ≥2× over a cold one-shot Execute with zero
# re-partitioning; a registered (monoid-annotated) UDF aggregate must stay
# within 1.3× of the built-in; the registered repair loop must match the
# hand-rolled cell set; the morsel-driven pipeline must stream (morsels > 0)
# and hold peak transient memory within 2× the table's logical footprint;
# under a buffer pool budgeted at 1/8 of the dataset footprint the
# plan must spill, keep pool residency within the budget, stay within 2× of
# the in-memory wall-clock, and produce bit-identical violations; with 5%
# injected task failures the plan must retry its way to bit-identical
# violations at ≤1.5× clean wall-clock; and a deadline at 10% of the clean
# wall-clock must return kDeadlineExceeded promptly. The observability gate
# rides the same binary: zero spans recorded with profiling off, the
# profile's per-operator counters summing exactly to the flat metrics, ≥6
# operator spans on the 8-FD plan, and a Chrome trace written for the
# validator below. The delta-incremental gate rides it too: after a 1%
# mutation, incremental re-validation must beat full re-execution ≥10x in
# wall-clock and in the deterministic delta-scaling row ratio, with zero
# re-partitions and the merged (violations − retractions + new) set
# canonically identical to a cold post-delta run. Measured numbers merge
# into BENCH_cluster.json next to the dispatch gate's.
./build-release/bench_unified_cleaning --nonet --check \
  --out build-release/BENCH_cluster.json \
  --trace-out build-release/trace_unified.json

# The exported Chrome trace must be a structurally valid trace_event file:
# a JSON array of events, every "X" event carrying ph/ts/dur/pid/tid/name,
# and spans nesting properly within each (pid, tid) track — a crossing
# means the recorder or the exporter is broken.
python3 tools/check_trace_json.py build-release/trace_unified.json

# Fault-injection seed sweep under ThreadSanitizer: three deterministic
# failure schedules through the session-concurrency stress suite. Each seed
# replays a different set of injected task failures while concurrent
# drivers, the churn thread, and the repair loop race — tsan verifies the
# retry/abort/join protocol leaves no lockstep assumptions behind, and the
# tests themselves verify the results stay bit-identical to the fault-free
# baseline.
for seed in 7 21 1337; do
  CLEANM_FAULT_SEED="$seed" ctest --preset tsan -R concurrency_stress_test \
    --output-on-failure
done

# Schema + regression check of the freshly measured BENCH_cluster.json
# against the checked-in baseline: a deterministic (byte-count /
# bit-identical) gate metric >20% worse fails; wall-clock-derived ratios
# only *warn* past their band — shared runners are too noisy for a hard
# wall-clock gate, and the benches' own --check flags already enforce the
# machine-local thresholds at measure time.
python3 tools/check_bench_json.py build-release/BENCH_cluster.json \
  --baseline BENCH_cluster.json

set +x
echo "CI OK: release + asan + ubsan + tsan presets built and tested clean; dispatch, prepared-reexec, UDF-aggregate, pipeline (peak ≤ 2× footprint), out-of-core, fault-tolerance, observability, and delta-incremental gates passed; fault seed sweep clean under tsan; bench JSON and Chrome trace validated."
