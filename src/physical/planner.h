// Physical planner/executor: lowers algebra plans onto the virtual cluster
// (paper Section 6, Table 2).
//
// Operator mapping (Table 2 of the paper, Spark column → engine column):
//   Select      → predicate stage fused into a segment's per-row expansion
//   Unnest      → expansion stage fused the same way
//   Reduce      → morsel-fed per-node monoid fold, merged on the driver
//   Nest        → engine::MorselAggregator under the configured strategy:
//                 CleanDB uses local pre-aggregation (aggregateByKey →
//                 mapPartitions); the baselines use sort-/hash-shuffles
//   Equi join   → engine::HashEquiJoin
//   Theta join  → engine::ThetaJoin under the configured algorithm
//                 (CleanDB: statistics-aware matrix partitioning)
//   Outer join  → engine::HashLeftOuterJoin
//
// Every plan runs as pipeline segments (pipeline.cc): a resident source
// streamed in morsels through its fused Select/Unnest chain by
// engine::Cluster::PumpToDriver / PumpOnWorkers.
//
// The executor also implements the two sharing mechanisms enabled by the
// algebra rewriter — shared scans (each table parallelized once, Figure 1's
// DAG) and shared Nests (a coalesced Nest node executes once and feeds
// every consumer) — by reading and writing the session-owned
// PartitionCache, so the sharing extends across repeated executions of a
// PreparedQuery, not just within one query.
#pragma once

#include <map>
#include <string>

#include "algebra/algebra.h"
#include "algebra/algebra_eval.h"  // Catalog, CollectVars
#include "engine/aggregate.h"
#include "engine/cluster.h"
#include "engine/join.h"
#include "physical/compile.h"
#include "physical/partition_cache.h"

namespace cleanm {

class BufferPool;
class SpillContext;

/// Knobs distinguishing CleanDB from the baseline systems.
struct PhysicalOptions {
  engine::AggregateStrategy aggregate_strategy =
      engine::AggregateStrategy::kLocalCombine;
  engine::ThetaJoinAlgo theta_algo = engine::ThetaJoinAlgo::kMatrix;
};

/// \brief Execution state: cluster, catalog, options, session cache.
///
/// The cache outlives the executor (a session runs many executors over its
/// lifetime); an executor is cheap and constructed per execution.
struct Executor {
  Executor(engine::Cluster* cluster_in, const Catalog* catalog_in,
           PhysicalOptions options_in, PartitionCache* cache_in,
           bool persist_nests_in = true,
           const FunctionRegistry* functions_in = nullptr)
      : cluster(cluster_in),
        catalog(catalog_in),
        options(options_in),
        functions(functions_in ? functions_in : catalog_in->functions),
        cache(cache_in),
        persist_nests(persist_nests_in) {}

  engine::Cluster* cluster = nullptr;
  const Catalog* catalog = nullptr;
  PhysicalOptions options;
  /// Session function registry (may be null): registered scalars resolve
  /// inside compiled expressions, registered aggregates supply Nest/Reduce
  /// monoids whose partial accumulators merge across worker nodes like the
  /// built-ins. Defaults to the catalog's registry.
  const FunctionRegistry* functions = nullptr;
  /// Session-owned partition cache (required): scans, wrapped scans, and
  /// Nest outputs are looked up and published here, keyed by table
  /// generation and active partition count.
  PartitionCache* cache = nullptr;
  /// When false, Nest outputs go into `local_nests` instead of the session
  /// cache. Nest entries are keyed by plan-node identity, so outputs of
  /// *transient* plans (one-shot Execute, the programmatic ops) could
  /// never be hit again — persisting them would only pin dead partitions
  /// and LRU-evict live ones. Within-execution sharing of a coalesced
  /// Nest (Figure 1) works in either mode.
  bool persist_nests = true;
  std::map<const AlgOp*, engine::Partitioned> local_nests;
  /// Per-execution poison-row quarantine (null = off). When set, pipeline
  /// segments route a row whose compiled expression or UDF throws into the
  /// sink (recorded with source label, node, and row ordinal) and skip it
  /// instead of failing the execution; past the sink's cap the execution
  /// aborts.
  engine::QuarantineSink* quarantine = nullptr;
  /// Buffer pool for page-backed table scans (null = scans use the
  /// resident Dataset). Set by the session/execution alongside `spill`.
  BufferPool* pool = nullptr;
  /// Per-execution spill context (null = breakers never spill). When set
  /// and over budget, Nest partials and hash-join build sides go to the
  /// spill file and are re-read for the merge/probe phase.
  SpillContext* spill = nullptr;
  /// Delta-extended scan rebuild: on a base-scan cache miss, a cached
  /// partitioning of an earlier generation of the same table may be
  /// patched forward through the table's delta log (rows removed/appended
  /// in place of a full re-partition), as long as the whole window since
  /// that generation is mutations. False (ExecOptions::incremental=false)
  /// forces every miss to re-partition from the catalog dataset.
  bool delta_scan = true;

  /// Compile context for this execution: registered functions + the
  /// cluster's metrics (udf_calls accounting).
  CompileEnv Env() const { return {functions, &cluster->metrics()}; }

  // ---- Execution (operator-level streaming; pipeline.cc) ----
  //
  // The plan decomposes into MorselSource → Transform* chains: Select /
  // Unnest stages stream fixed-size morsels from a resident source (a
  // cached scan, a Nest output, a Join output) without materializing any
  // intermediate operator output; pipeline *breakers* sit only at
  // Nest / Reduce / shuffle (join) boundaries, and a Nest consumes its own
  // input morsel-wise (engine::MorselAggregator), so the keyed expansion
  // is never materialized either. Per-node row order, fold order, and
  // node-major delivery do not depend on `morsel_rows`, so results are
  // bit-identical at every morsel size.

  /// Streams the plan's output tuples (layout CollectVars(plan)) to
  /// `consume` in node-major order, `morsel_rows` rows at a time. A non-OK
  /// status from `consume` aborts the execution early and is returned.
  /// The root must not be a Reduce (use RunToValue).
  Status Run(const AlgOpPtr& plan, size_t morsel_rows,
             const std::function<Status(size_t node, engine::Partition&&)>& consume);

  /// Executes a full plan; Reduce roots fold morsel-fed per-node partials
  /// to a single Value, other roots collect their streamed tuples into a
  /// list Value (same convention as the reference evaluator).
  Result<Value> RunToValue(const AlgOpPtr& plan, size_t morsel_rows);

  // ---- Internals shared by planner.cc and pipeline.cc ----

  /// A compiled pipeline segment: the resident source partitioning plus the
  /// composed row-wise transform chain above it. Owned (breaker-output)
  /// storage is charged to the peak_bytes_materialized gauge for the
  /// segment's lifetime.
  struct PipelineSegment {
    PipelineSegment() = default;
    PipelineSegment(PipelineSegment&& o) noexcept { *this = std::move(o); }
    PipelineSegment& operator=(PipelineSegment&& o) noexcept {
      ReleaseNow();
      borrowed = std::move(o.borrowed);
      owned = std::move(o.owned);
      owned_bytes = o.owned_bytes;
      gauge = o.gauge;
      expand = std::move(o.expand);
      identity = o.identity;
      o.borrowed = nullptr;
      o.owned_bytes = 0;
      o.gauge = nullptr;
      return *this;
    }
    PipelineSegment(const PipelineSegment&) = delete;
    PipelineSegment& operator=(const PipelineSegment&) = delete;
    ~PipelineSegment() { ReleaseNow(); }

    void ReleaseNow() {
      if (gauge && owned_bytes) {
        gauge->ReleaseMaterialized(owned_bytes);
        owned_bytes = 0;
      }
    }
    const engine::Partitioned& data() const {
      return borrowed ? *borrowed : owned;
    }

    /// Pinned cache-resident source: the pin keeps the partitioning alive
    /// even if a concurrent execution's eviction or RegisterTable
    /// invalidation drops it from the cache mid-stream.
    PartitionPin borrowed;
    engine::Partitioned owned;     ///< breaker output owned by the segment
    uint64_t owned_bytes = 0;      ///< `owned`'s charge on the gauge
    QueryMetrics* gauge = nullptr;
    engine::MorselExpand expand;   ///< source row → output tuples
    bool identity = false;         ///< no transforms: source rows pass through
  };

  /// A Nest stage compiled to physical form: the keyed expansion feeding
  /// the aggregation (tuple-level, so the Nest breaker fuses it as a chain
  /// terminal without re-wrapping rows), and the monoid AggregateSpec.
  struct CompiledNest {
    std::function<void(const Value& tuple, engine::Partition*)> expand;
    engine::AggregateSpec spec;
  };

  /// The {var: record} wrapped scan, resolved through (and pinned in) the
  /// session cache.
  Result<PartitionPin> WrappedScan(const AlgOp& scan);

  /// Executes a join node over already-resolved inputs.
  Result<engine::Partitioned> ExecJoin(const AlgOpPtr& plan,
                                       const engine::Partitioned& left,
                                       const engine::Partitioned& right);

  /// Compiles a Nest node's grouping expansion + aggregation spec.
  Result<CompiledNest> CompileNestStage(const AlgOpPtr& plan);

  /// Terminal continuation of a compiled transform chain: consumes each
  /// produced tuple (pipeline.cc; defaults to "append as a physical row").
  using TupleSink = std::function<void(Value, engine::Partition*)>;

  /// Decomposes `plan` into a pipeline segment (pipeline.cc). A custom
  /// `terminal` fuses the consumer into the chain — breakers use it to
  /// fold expansions without an intermediate per-row buffer.
  Result<PipelineSegment> BuildSegment(const AlgOpPtr& plan, size_t morsel_rows,
                                       TupleSink terminal = nullptr);

  /// The Nest breaker: cache lookup, else morsel-fed aggregation over the
  /// input segment; the result is resident (a pinned session-cache entry or
  /// local_nests), never copied out.
  Result<PartitionPin> PipelinedNest(const AlgOpPtr& plan, size_t morsel_rows);
};

/// Every table scanned under `plan`, with the catalog's current generation
/// — the dependency set recorded on cached Nest outputs (and the tables an
/// execution's admission charge sums over).
void CollectScanDeps(const AlgOpPtr& plan, const Catalog& catalog,
                     std::vector<std::pair<std::string, uint64_t>>* deps);

}  // namespace cleanm
