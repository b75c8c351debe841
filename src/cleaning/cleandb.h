// CleanDB: the unified querying + cleaning engine (paper Section 7,
// Figure 2).
//
// Pipeline per query: Parser → (Monoid Rewriter) cleaning clauses desugar to
// canonical plans → Monoid/algebra optimizer (normalization + CoalesceNests
// + RewritePlan) → physical executor on the virtual cluster → unified
// violation report (the top-level outer join of Section 4.4).
//
// Query lifecycle: Prepare(text) performs the parse/normalize/rewrite work
// once and returns a PreparedQuery whose Execute(ExecOptions) runs the
// optimized plans against the current table registrations, reusing the
// session-owned PartitionCache (scans, wrapped scans, coalesced Nest
// outputs, keyed by table generation). Execute(text) remains as the
// one-shot convenience — it is exactly Prepare + a single Execute.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "algebra/rewriter.h"
#include "cleaning/plan_builder.h"
#include "cleaning/session_knobs.h"
#include "common/timer.h"
#include "functions/function_registry.h"
#include "language/parser.h"
#include "physical/partition_cache.h"
#include "physical/planner.h"
#include "storage/delta.h"
#include "storage/pagestore/buffer_pool.h"
#include "storage/pagestore/paged_table.h"
#include "storage/pagestore/spill.h"

namespace cleanm {

class PreparedQuery;
class QueryProfile;
class ViolationSink;
struct ExecOptions;

struct CleanDBOptions {
  // Shared session knobs, generated from CLEANM_SESSION_KNOBS
  // (cleaning/session_knobs.h) so the session default, the per-call
  // ExecOptions optional, and the per-execution resolution stay one list.
  // In brief (see exec_options.h for the full per-knob documentation):
  //   unify_operations   — Nest-coalesced plan forms (Figure-5 ablation).
  //   shuffle_*          — simulated interconnect model.
  //   morsel_rows        — morsel size of the execution below the sink.
  //   incremental        — serve minor-generation (mutation) re-executions
  //     from the incremental delta path instead of a full run.
  //   buffer_pool_bytes / spill_dir / page_bytes — out-of-core storage
  //     (DESIGN.md, "Out-of-core storage & spill"); buffer_pool_bytes > 0
  //     additionally ingests registered tables into a paged store.
  //   profile / trace_path — operator-level tracing spans + QueryProfile.
#define CLEANM_X(type, name, default_value) type name = default_value;
  CLEANM_SESSION_KNOBS(CLEANM_X)
#undef CLEANM_X

  size_t num_nodes = 4;
  bool use_worker_pool = true;
  PhysicalOptions physical;
  /// Defaults for token filtering / k-means parameters (q, k, delta, seed).
  FilteringOptions filtering;
  /// Byte budget of the session partition cache (cached scans / wrapped
  /// scans / Nest outputs, LRU-evicted). 0 = unbounded.
  size_t partition_cache_bytes = size_t{256} << 20;
  /// Admission control for concurrent executions: bound on the summed
  /// admission charges (logical input bytes, or the per-call
  /// ExecOptions::admission_bytes override) of in-flight
  /// PreparedQuery executions. Executions over the bound queue FIFO; an
  /// oversized execution is admitted once it is alone. 0 = unlimited (no
  /// queueing, the default).
  uint64_t max_inflight_bytes = 0;
  /// Session defaults for fault injection, task retry/backoff, and node
  /// blacklisting (see engine::FaultOptions; off by default). Probability /
  /// seed / retry knobs are overridable per call via ExecOptions.
  engine::FaultOptions fault;
  /// Skew threshold for profile warnings: an operator whose per-node row
  /// distribution has ImbalanceFactor (max/mean) above this is flagged.
  double skew_warn_factor = 2.0;
};

/// Output of one cleaning operation.
struct OpResult {
  std::string op_name;
  /// Violation tuples (struct Values; fields depend on the operation).
  ValueList violations;
  double seconds = 0;
};

/// Output of a whole query: per-operation results plus the entities that
/// violate at least one rule (paper: the outer join of all violations).
struct QueryResult {
  std::vector<OpResult> ops;
  /// entity → names of the operations it violates.
  std::vector<std::pair<Value, std::vector<std::string>>> dirty_entities;
  double total_seconds = 0;
  int nests_coalesced = 0;
  /// Engine counters for this execution — the full QueryMetrics snapshot
  /// (rows/bytes/batches shuffled, comparisons, ...), replacing the old
  /// hand-copied rows_shuffled/bytes_shuffled pair.
  MetricsCounters metrics;
  /// Partition-cache activity during this execution: hit/miss/eviction
  /// counters are per-execution deltas; resident_* are end-of-execution
  /// gauges.
  PartitionCache::Stats cache;
  /// Poison rows recorded and skipped by the quarantine (empty unless
  /// ExecOptions::max_quarantined_rows enabled it).
  std::vector<engine::QuarantinedRow> quarantined;
  /// The execution's trace-derived profile (EXPLAIN ANALYZE: per-operator
  /// timings, rows, per-node skew, counter attribution). Null unless
  /// profiling was on (ExecOptions::profile / CleanDBOptions::profile).
  std::shared_ptr<const QueryProfile> profile;
};

/// \brief The CleanDB engine. Register tables, then Prepare/Execute CleanM
/// queries or call the programmatic cleaning APIs (used by the benchmarks).
///
/// Thread model (DESIGN.md, "Threading & session concurrency"): one CleanDB
/// may serve N driver threads concurrently executing PreparedQuerys and
/// programmatic ops over the shared worker pool. Registrations are guarded
/// by a reader/writer lock and every execution binds a *snapshot* of the
/// tables visible when it starts: re-registering a table (RegisterTable,
/// repair Commit) bumps the generation for executions that start later,
/// while in-flight executions keep reading the datasets they snapshotted
/// (shared-ownership leases keep them alive). Cluster-reconfiguring
/// ExecOptions (max_nodes, shuffle_*) take the session's config lock
/// exclusively and so run alone; plain executions share it.
class CleanDB {
 public:
  explicit CleanDB(CleanDBOptions options = {});

  /// Registers (or replaces) a named table. Replacing bumps the table's
  /// generation and invalidates every cached partitioning derived from it,
  /// so no execution that starts afterwards can be served stale data.
  /// Thread-safe; executions already in flight keep their snapshot.
  void RegisterTable(const std::string& name, Dataset dataset);
  /// Drops a table (and its cached partitionings). No-op when absent.
  void UnregisterTable(const std::string& name);
  /// Borrowed pointer into the current registration. Stable only until the
  /// next RegisterTable/UnregisterTable of `name` — callers that may race a
  /// re-registration use GetTableShared.
  Result<const Dataset*> GetTable(const std::string& name) const;
  /// Shared-ownership lease on the current registration: the dataset stays
  /// alive for the lease's lifetime even if the name is re-registered.
  Result<std::shared_ptr<const Dataset>> GetTableShared(
      const std::string& name) const;
  /// Current generation (version) of `name`, bumped by every RegisterTable
  /// / UnregisterTable *and* every effective mutation (AppendRows /
  /// UpdateRows / DeleteRows); 0 = never registered.
  uint64_t TableGeneration(const std::string& name) const;
  /// Major registration epoch of `name`: bumped only by RegisterTable /
  /// UnregisterTable (the events that invalidate cached partitionings);
  /// 0 = never registered.
  uint64_t TableMajor(const std::string& name) const;
  /// Mutations applied to `name` since its last registration (reset to 0 by
  /// RegisterTable).
  uint64_t TableMinor(const std::string& name) const;

  // ---- Table mutation (minor generations) ----
  //
  // Mutations publish a new effective dataset plus a delta-log entry and
  // bump the table's generation and *minor* counter — but, unlike
  // RegisterTable, they do NOT invalidate cached partitionings: entries of
  // older versions simply become unreachable (the LRU reclaims them), and
  // pinned readers are untouched. A re-execution whose snapshot differs
  // from the cached state only by minor generations is then served by the
  // incremental delta path (see DESIGN.md, "Incremental validation & the
  // delta log"). All three are thread-safe and atomic (exclusive table
  // lock); a mutation that changes nothing (no matches, sets equal to the
  // current values) publishes nothing and bumps nothing.

  /// Row predicate for UpdateRows/DeleteRows.
  using RowMatcher = std::function<bool(const Schema&, const Row&)>;
  /// In-place row editor for UpdateRowsWith: return true after modifying
  /// `*row`, false to leave the row untouched.
  using RowEditor = std::function<bool(const Schema&, Row*)>;

  /// What a mutation did: the table's resulting (generation, major, minor)
  /// and how many rows it touched (0 = no-op, nothing was published).
  struct MutationResult {
    uint64_t generation = 0;
    uint64_t major = 0;
    uint64_t minor = 0;
    size_t rows_affected = 0;
  };

  /// Appends `rows` (schema-checked for width) to `table`.
  Result<MutationResult> AppendRows(const std::string& table,
                                    std::vector<Row> rows);
  /// Sets the columns named in `sets` on every row `matcher` accepts. Rows
  /// whose matched values already equal the targets are not counted (and
  /// contribute no delta).
  Result<MutationResult> UpdateRows(const std::string& table,
                                    const RowMatcher& matcher,
                                    const ValueStruct& sets);
  /// Generalized update: `editor` may rewrite any cell of the rows it
  /// returns true for (the form RepairSink::CommitDelta routes through).
  Result<MutationResult> UpdateRowsWith(const std::string& table,
                                        const RowEditor& editor);
  /// Removes every row `matcher` accepts.
  Result<MutationResult> DeleteRows(const std::string& table,
                                    const RowMatcher& matcher);

  /// Serializes table read-modify-write commits (repair Commit): holding
  /// the returned lock guarantees no other committer replaces the table
  /// between reading it and re-registering the modified copy. Plain
  /// RegisterTable calls are atomic on their own and need not take it.
  std::unique_lock<std::mutex> LockCommits() const {
    return std::unique_lock<std::mutex>(commit_mu_);
  }

  // ---- Query lifecycle ----

  /// Parses, normalizes, and optimizes a CleanM query once. The error case
  /// carries the specific StatusCode: kParseError (with line/column) for
  /// malformed CleanM, kKeyError for a clause referencing an unknown
  /// column, kTypeError for a grouping-monoid term of the wrong type.
  /// Tables bind lazily at Execute time.
  Result<PreparedQuery> Prepare(const std::string& query_text);

  /// Prepares an already-parsed query.
  Result<PreparedQuery> PrepareQuery(const CleanMQuery& query);

  /// Prepares a denial constraint (a theta self-join over t1/t2 with
  /// `pred`; `prefilter` over one side is pushed below the join) as a
  /// single-operation PreparedQuery, so DC checks participate in the same
  /// prepare-once / execute-many lifecycle as CleanM text.
  Result<PreparedQuery> PrepareDenialConstraint(const std::string& table, ExprPtr pred,
                                                ExprPtr prefilter = nullptr);

  /// One-shot convenience: Prepare + a single Execute.
  Result<QueryResult> Execute(const std::string& query_text);

  /// One-shot convenience for an already-parsed query.
  Result<QueryResult> ExecuteQuery(const CleanMQuery& query);

  // ---- Programmatic cleaning operations ----

  /// FD check: lhs → rhs over `table` (alias `var` inside the exprs).
  Result<OpResult> CheckFd(const std::string& table, const std::string& var,
                           const FdClause& fd);

  /// General denial constraint with inequalities: a theta self-join with
  /// predicate over variables t1/t2; `prefilter` (over t1 or t2 alone) is
  /// pushed below the join. Violations are the matching pairs.
  Result<OpResult> CheckDenialConstraint(const std::string& table, ExprPtr pred,
                                         ExprPtr prefilter = nullptr);

  /// Duplicate elimination per the DEDUP clause semantics.
  Result<OpResult> Deduplicate(const std::string& table, const std::string& var,
                               const DedupClause& dedup);

  /// Term validation: values of `term` (an expression over `data_var`) are
  /// validated against `dict_table`.`dict_attr`; violations couple each
  /// dirty term with its suggested repairs. Terms that appear verbatim in
  /// the dictionary are clean and skipped before grouping.
  Result<OpResult> ValidateTerms(const std::string& data_table,
                                 const std::string& data_var,
                                 const std::string& dict_table,
                                 const std::string& dict_attr,
                                 const ClusterByClause& cb);

  /// Syntactic transformations (Table 4): split a date column into
  /// year/month/day and/or fill missing numeric values with the column
  /// average. `one_pass` applies all requested repairs in a single dataset
  /// traversal; otherwise each repair re-traverses (the baseline).
  struct TransformSpec {
    std::string split_date_column;    ///< empty = skip
    std::string fill_missing_column;  ///< empty = skip
  };
  Result<Dataset> Transform(const std::string& table, const TransformSpec& spec,
                            bool one_pass);

  engine::Cluster& cluster() { return *cluster_; }
  const CleanDBOptions& options() const { return options_; }
  /// The session function registry: register scalar / aggregate / repair
  /// functions here to make them callable from CleanM query text (see
  /// functions/function_registry.h and README, "Extending CleanM").
  /// Register before Prepare — prepared plans resolve calls at Prepare
  /// time and validate names/arities against the registry's state then.
  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }
  /// The session partition cache (stats for tests/monitoring; Clear() to
  /// drop all cached partitionings).
  PartitionCache& partition_cache() { return cache_; }
  /// The session buffer pool, or null on a fully in-memory session
  /// (options().buffer_pool_bytes == 0). Stats expose resident/peak bytes
  /// for the out-of-core CI gate.
  const BufferPool* buffer_pool() const { return pool_.get(); }

  /// The session-cumulative engine counters rendered in Prometheus text
  /// exposition format (one `cleandb_<counter>_total` counter per
  /// QueryMetrics field, plus the materialization peak/now gauges) — ready
  /// to serve from a /metrics endpoint or diff across executions.
  std::string ExportMetricsText() const;

  /// Samples k-means centers for a grouping clause: from the dictionary
  /// when given, else from the data column.
  std::vector<std::string> SampleCenters(const std::string& table,
                                         const std::string& attr, size_t k) const;

 private:
  friend class PreparedQuery;

  /// A point-in-time view of the table registrations. `catalog` holds raw
  /// Dataset pointers (the form the executor binds); `leases` co-own those
  /// datasets so a concurrent re-registration can never free data an
  /// in-flight execution still reads — the snapshot-visibility rule: a new
  /// generation is seen only by executions that snapshot after it.
  struct TableSnapshot {
    Catalog catalog;
    std::vector<std::shared_ptr<const Dataset>> leases;
    /// Leases on the paged copies bound in catalog.paged (out-of-core
    /// sessions only) — same survival rule as `leases`.
    std::vector<std::shared_ptr<const PagedTable>> paged_leases;
    /// Leases on the base (as-registered) datasets bound in catalog.bases
    /// and on the mutation delta logs bound in catalog.deltas — same
    /// survival rule as `leases`.
    std::vector<std::shared_ptr<const Dataset>> base_leases;
    std::vector<std::shared_ptr<const DeltaLog>> delta_leases;
  };
  TableSnapshot SnapshotTables() const;

  /// Shared execution wrapper of the programmatic ops: wraps `cp` in a
  /// transient single-operation PreparedQuery and runs it through
  /// ExecutePrepared — the same code path (snapshot, admission, config
  /// lock, metrics scope, sink emission) as Prepare→Execute, with cache
  /// persistence off so the throwaway plan's Nest outputs never pollute
  /// the session cache.
  Result<OpResult> RunProgrammaticOp(CleaningPlan cp);
  /// Shared Prepare body; `query_text` (when available) positions the
  /// kKeyError of an unknown function / arity mismatch at the recorded
  /// call offset. Defined in prepared_query.cc.
  Result<PreparedQuery> PrepareQueryImpl(const CleanMQuery& query,
                                         const std::string* query_text);
  /// Executes a prepared query's plans under `opts`, streaming into `sink`;
  /// fills the summary fields (timings, metrics, cache deltas) of
  /// `*summary` when non-null. Defined in prepared_query.cc.
  Status ExecutePrepared(const PreparedQuery& pq, const ExecOptions& opts,
                         ViolationSink& sink, QueryResult* summary);

  /// FIFO admission against options_.max_inflight_bytes: blocks until
  /// `estimated_bytes` fits next to the already-admitted executions (an
  /// oversized request is admitted once it runs alone). Returns the charge
  /// ReleaseExecution must give back. No-op returning 0 when the budget is
  /// unlimited.
  uint64_t AdmitExecution(uint64_t estimated_bytes);
  void ReleaseExecution(uint64_t charged_bytes);

  CleanDBOptions options_;
  std::unique_ptr<engine::Cluster> cluster_;

  /// One mutation's dataset rewrite: fill `next` (constructed empty over
  /// the current schema) from `current`, recording the row-level effect in
  /// `delta`. Runs under the exclusive table lock.
  using MutationFn = std::function<Status(const Dataset& current,
                                          Dataset* next, TableDelta* delta)>;
  /// Shared mutation body: applies `fn` to the current registration of
  /// `table` and — iff the delta is non-empty — publishes the new dataset,
  /// bumps generation + minor, and appends to the table's delta log, all in
  /// one exclusive table_mu_ critical section. Never invalidates the cache.
  Result<MutationResult> MutateTable(const std::string& table,
                                     const MutationFn& fn);

  /// Guards tables_, generations_, and the mutation state (base_tables_,
  /// majors_, minors_, delta_logs_) — shared: lookups/snapshots; exclusive:
  /// registrations and mutations. Lock order: commit_mu_ → config_mu_ →
  /// table_mu_ → the cache's internal mutex; never held while executing.
  /// UnregisterTable drops the table, its counters, and its delta log in
  /// one exclusive critical section, so a concurrent mutation either
  /// completes before the drop or fails with kKeyError — a log can never
  /// survive its table.
  mutable std::shared_mutex table_mu_;
  /// Datasets are shared-owned so snapshot leases survive re-registration.
  std::map<std::string, std::shared_ptr<const Dataset>> tables_;
  /// Per-table version counters backing the cache's staleness keys; bumped
  /// by registrations and mutations alike.
  std::map<std::string, uint64_t> generations_;
  /// The dataset as last *registered* (mutations replace tables_ but not
  /// this): the incremental validator's bootstrap input.
  std::map<std::string, std::shared_ptr<const Dataset>> base_tables_;
  /// Major registration epochs (bumped by Register/UnregisterTable only).
  std::map<std::string, uint64_t> majors_;
  /// Mutations since the last registration (reset by RegisterTable).
  std::map<std::string, uint64_t> minors_;
  /// Immutable delta-log snapshots; a mutation publishes a copied+extended
  /// log so snapshot holders keep reading a frozen one.
  std::map<std::string, std::shared_ptr<const DeltaLog>> delta_logs_;
  /// Paged copies of registered tables (out-of-core sessions; guarded by
  /// table_mu_ like tables_). A table may lack one — paged ingestion is an
  /// optimization, never a correctness dependency.
  std::map<std::string, std::shared_ptr<const PagedTable>> paged_tables_;

  /// Read-modify-write commit serialization (see LockCommits). Ordered
  /// before table_mu_.
  mutable std::mutex commit_mu_;

  /// Cluster-configuration lock: executions that apply cluster-mutating
  /// ExecOptions hold it exclusively for their whole run; every other
  /// execution holds it shared, so the shared cluster's knobs never change
  /// under a running plan.
  mutable std::shared_mutex config_mu_;

  // Admission-control state (see AdmitExecution).
  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  uint64_t admission_inflight_bytes_ = 0;
  size_t admission_inflight_count_ = 0;
  uint64_t admission_next_ticket_ = 0;
  uint64_t admission_serve_ticket_ = 0;

  /// Suffix counter making concurrently-running ValidateTerms calls' temp
  /// table names unique.
  std::atomic<uint64_t> temp_table_seq_{0};

  /// Out-of-core state (null on fully in-memory sessions). Declared before
  /// cache_ so the cache (whose pager writes through session_spill_) is
  /// destroyed first. The page store is shared-owned by every PagedTable
  /// built over it.
  std::unique_ptr<BufferPool> pool_;
  std::shared_ptr<SingleFileStore> page_store_;
  /// Session spill context backing the partition-cache pager (per-execution
  /// breaker spills use their own, stack-owned in ExecutePrepared).
  std::unique_ptr<SpillContext> session_spill_;

  /// Session-owned partition cache shared by every execution.
  PartitionCache cache_;
  /// Session-owned function registry (user scalar/aggregate/repair
  /// functions); referenced by prepared plans, so it must outlive them —
  /// which it does, since PreparedQuerys must not outlive their CleanDB.
  FunctionRegistry functions_;
};

}  // namespace cleanm
