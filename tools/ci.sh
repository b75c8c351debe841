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

# Each bench states its gates, thresholds and hard or advisory status
# once, next to the measurement (bench/harness.h); --check prints every
# gate and exits 1 if a hard one failed.
#
# Start from an empty file: each bench merges its sections into it, and a
# section a bench stopped writing must not survive from an earlier run and
# pass the schema check below.
rm -f build-release/BENCH_cluster.json

# Substrate gates: RunOnNodes dispatch on a leased worker pool must stay
# clearly faster than the bench's own spawn-per-call reference (one fresh
# thread per node around the same closure), so dispatch can't silently
# regress to creating threads or pools per operator; the bit-parallel
# Levenshtein kernel must agree with the DP and beat it.
# Full (non-smoke) scale: the checked-in BENCH_cluster.json baseline is
# measured at full scale, so the regression diff below compares like with
# like.
./build-release/bench_cluster_primitives --check \
  --out build-release/BENCH_cluster.json

# Session-layer gates on the 8-FD unified plan (pure compute): prepared
# re-execution reuses plans and partitions; a registered UDF aggregate
# costs what the built-in does and the registered repair loop fixes the
# hand-rolled cell set; the morsel pipeline streams instead of
# materializing; a budgeted buffer pool spills yet stays exact; injected
# task failures retry to bit-identical violations, and a deadline cuts an
# execution off promptly; profiling off records no spans and the profile
# reconciles with the flat metrics (plus a Chrome trace for the validator
# below); incremental re-validation after a 1% mutation beats full
# re-execution and matches a cold post-delta run; concurrent prepared
# sessions overlap their network waits on no more worker pools than
# sessions. Measured numbers merge into BENCH_cluster.json next to the
# dispatch section.
./build-release/bench_unified_cleaning --nonet --check \
  --out build-release/BENCH_cluster.json \
  --trace-out build-release/trace_unified.json

# The exported Chrome trace must be a structurally valid trace_event file:
# a JSON array of events, every "X" event carrying ph/ts/dur/pid/tid/name,
# and spans nesting properly within each (pid, tid) track — a crossing
# means the recorder or the exporter is broken.
python3 tools/check_trace_json.py build-release/trace_unified.json

# Term-validation gate (E1–E3 on the engine): CLUSTER BY over every DBLP
# author occurrence must never report a dictionary entry as a dirty term,
# and the tf q=2 run must report pairs.
./build-release/bench_term_validation --check

# Table 4 gate (E5 on the engine): the one-step transform partitions
# lineitem once and the two-step transform twice (rows_scanned n and 2n);
# one step against two steps is an advisory wall-clock gate.
./build-release/bench_transformations --check

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
# bit-identical) gate metric that got worse past its tolerance fails;
# wall-clock-derived ratios only *warn* — shared runners are too noisy for
# a hard wall-clock gate, and the benches' own --check flags already
# enforce the machine-local thresholds at measure time.
python3 tools/check_bench_json.py build-release/BENCH_cluster.json \
  --baseline BENCH_cluster.json

# Benchmark self-test at smoke size (builds its own driver under
# .bench_build/): every workload passes its digest correctness gate on two
# seeds and fails it against a wrong reference, and the deterministic
# per-layer counters repeat exactly across runs. No other check replays
# delta_stream's diff stream (previous − retracted + new) against a cold
# run over the final table, or requires delta_rows_processed,
# groups_remerged and cleaning.incremental_ratio to be reproducible.
python3 cleanbench/selftest.py

set +x
echo "CI OK: release + asan + ubsan + tsan presets built and tested clean; dispatch, prepared-reexec, UDF-aggregate, pipeline, out-of-core, fault-tolerance, observability, delta-incremental, term-validation and transformation gates passed; fault seed sweep clean under tsan; bench JSON and Chrome trace validated; cleanbench selftest (digest gates, diff-stream replay, deterministic counters) passed."
