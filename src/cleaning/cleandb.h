// CleanDB: the unified querying + cleaning engine (paper Section 7,
// Figure 2).
//
// Pipeline per query: Parser → (Monoid Rewriter) cleaning clauses desugar to
// canonical plans → Monoid/algebra optimizer (normalization + CoalesceNests)
// → physical executor on the virtual cluster → unified violation report
// (the top-level outer join of Section 4.4).
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
#include "common/timer.h"
#include "functions/function_registry.h"
#include "language/parser.h"
#include "physical/partition_cache.h"
#include "physical/planner.h"
#include "storage/delta.h"
#include "storage/pagestore/buffer_pool.h"
#include "storage/pagestore/spill.h"

namespace cleanm {

class PreparedQuery;
class QueryProfile;
class ViolationSink;
struct ExecOptions;

/// Session configuration, fixed when the CleanDB is built. The first four
/// fields are defaults that one execution may override through the
/// ExecOptions field of the same name (see exec_options.h); the rest hold
/// for every execution of the session.
struct CleanDBOptions {
  /// Nest-coalesced plan forms (the Figure-5 ablation).
  bool unify_operations = true;
  /// Morsel size of the execution below the sink.
  size_t morsel_rows = 4096;
  /// Operator-level tracing spans + QueryProfile; with trace_path set, the
  /// spans are also written as Chrome/Perfetto trace_event JSON.
  bool profile = false;
  std::string trace_path;

  size_t num_nodes = 4;
  /// Simulated interconnect model (see engine::ClusterOptions).
  double shuffle_ns_per_byte = 1.0;
  size_t shuffle_batch_rows = 1024;
  /// Out-of-core storage (DESIGN.md, "Out-of-core storage & spill"): with a
  /// buffer-pool budget > 0, breaker state and cached partitionings spill
  /// to page files under spill_dir (empty = system temp dir), created
  /// lazily and removed on every exit path; registered tables stay
  /// resident. 0 = fully in memory.
  uint64_t buffer_pool_bytes = 0;
  std::string spill_dir;
  size_t page_bytes = kDefaultPageBytes;
  PhysicalOptions physical;
  /// Defaults for token filtering / k-means parameters (q, k, delta, seed).
  FilteringOptions filtering;
  /// Byte budget of the session partition cache (cached scans / wrapped
  /// scans / Nest outputs, LRU-evicted). 0 = unbounded.
  size_t partition_cache_bytes = size_t{256} << 20;
  /// Admission control for concurrent executions: bound on the summed
  /// admission charges (the logical bytes of the tables each plan scans)
  /// of in-flight PreparedQuery executions. Executions over the bound
  /// queue FIFO; an oversized execution is admitted once it is alone.
  /// 0 = unlimited (no queueing, the default).
  uint64_t max_inflight_bytes = 0;
  /// Fault injection, task retry/backoff, and node blacklisting (see
  /// engine::FaultOptions; off by default).
  engine::FaultOptions fault;
};

/// Skew threshold for profile warnings: an operator whose per-node row
/// distribution has ImbalanceFactor (max/mean) above this is flagged.
inline constexpr double kSkewWarnFactor = 2.0;

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
/// (counted leases keep them alive and unchanged). The cluster and the
/// out-of-core storage are fixed at construction, so executions share them
/// without a lock.
class CleanDB {
 public:
  explicit CleanDB(CleanDBOptions options = {});

  /// Registers (or replaces) a named table. Replacing bumps the table's
  /// generation and invalidates every cached partitioning derived from it,
  /// so no execution that starts afterwards can be served stale data.
  /// Thread-safe; executions already in flight keep their snapshot.
  void RegisterTable(const std::string& name, Dataset dataset);
  /// Drops a table (and its cached partitionings), but not its generation
  /// counter: a later registration never reuses a generation. No-op when
  /// absent.
  void UnregisterTable(const std::string& name);
  /// Counted lease on the current version: a stable view that keeps
  /// reading the same rows for the lease's lifetime, whatever is mutated or
  /// re-registered meanwhile (a mutation copies a leased version instead of
  /// rewriting it). Drop it promptly: while it lives, every mutation of
  /// `name` pays a full copy.
  Result<std::shared_ptr<const Dataset>> GetTableShared(
      const std::string& name) const;
  /// Current generation (version) of `name`, bumped by every RegisterTable
  /// / UnregisterTable *and* every effective mutation (AppendRows /
  /// UpdateRows / DeleteRows); 0 = never registered.
  uint64_t TableGeneration(const std::string& name) const;
  /// Mutations applied to `name` since its last registration: its
  /// generation minus the generation that registration produced (0 right
  /// after RegisterTable, and for an unregistered name).
  uint64_t TableMinor(const std::string& name) const;

  // ---- Table mutation (minor generations) ----
  //
  // Mutations change the effective dataset, append a delta to the table's
  // epoch, and bump the table's generation — but, unlike RegisterTable,
  // they do NOT invalidate cached partitionings: entries of older versions
  // simply become unreachable (the LRU reclaims them), and pinned readers
  // are untouched. A re-execution whose snapshot differs from the cached
  // state only by minor generations is then served by the incremental
  // delta path (see DESIGN.md, "Incremental validation & the delta log").
  //
  // Table versions are copy-on-write. A mutation rewrites the current
  // version in place when no lease (GetTableShared result or execution
  // snapshot) is alive on it and it is not the epoch's base; otherwise it
  // copies the version first and publishes the copy, so every lease keeps
  // its view. All four are thread-safe and atomic (exclusive table lock).
  // User matchers and editors run before the first write, so one that
  // throws (or an editor that changes the row width) leaves the table
  // untouched; a mutation that changes nothing (no matches, sets equal to
  // the current values) publishes nothing and bumps nothing.

  /// Row predicate for UpdateRows/DeleteRows.
  using RowMatcher = std::function<bool(const Schema&, const Row&)>;
  /// In-place row editor for UpdateRowsWith: return true after modifying
  /// `*row`, false to leave the row untouched.
  using RowEditor = std::function<bool(const Schema&, Row*)>;

  /// What a mutation did: the table's resulting generation and minor (see
  /// TableMinor) and how many rows it touched (0 = no-op, nothing was
  /// published).
  struct MutationResult {
    uint64_t generation = 0;
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
  //
  // CheckFd and Deduplicate prepare the one-clause query form (`SELECT *
  // FROM table var FD(...)` / `DEDUP(...)`) and run it once, so Prepare's
  // checks apply: an unknown column is kKeyError.

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

  /// Term validation: values of `term` (a column of `data_table`, bound as
  /// `data_var`) are validated against `dict_table`.`dict_attr`. Runs the
  /// same plan as the query form's CLUSTER BY (BuildTermValidationPlan):
  /// terms found verbatim in the dictionary are anti-joined away before
  /// grouping, and each violation couples a dirty term with one similar
  /// dictionary entry. Unknown tables or columns are kKeyError.
  Result<OpResult> ValidateTerms(const std::string& data_table,
                                 const std::string& data_var,
                                 const std::string& dict_table,
                                 const std::string& dict_attr,
                                 const ClusterByClause& cb);

  /// Syntactic transformations (Table 4), run on the engine as prepared
  /// CleanM queries, each executed once like the programmatic ops above.
  /// With `fill_missing_column` set, a one-group GROUP BY first computes
  /// avg(column) over its non-null cells; the average's sum follows the
  /// engine's merge order, so on a non-integral column it may round
  /// differently from a sequential sum, and an empty or all-null column
  /// (or one holding a non-numeric cell) fills with 0.0. Then one SELECT
  /// lists every column, the fill column as `if is_null(c) then <avg>
  /// else c`, plus `year`, `month` and `day` of `split_date_column` as
  /// <column>_year, _month and _day: each is the piece's digits, null for
  /// a missing or digit-less piece. Both repairs thus take one pass over
  /// the table. The result is a bag: rows come in the engine's node-major
  /// order, not the table's. An unknown table or spec column is kKeyError.
  struct TransformSpec {
    std::string split_date_column;    ///< empty = skip
    std::string fill_missing_column;  ///< empty = skip
  };
  Result<Dataset> Transform(const std::string& table, const TransformSpec& spec);

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

 private:
  friend class PreparedQuery;

  /// A point-in-time view of the table registrations. `catalog` holds raw
  /// pointers (the form the executor binds); `leases` hold, per table, a
  /// counted lease on the bound version and the bound epoch, so a
  /// concurrent re-registration can never free, and a concurrent mutation
  /// never rewrites, data an in-flight execution still reads — the
  /// snapshot-visibility rule: a new generation is seen only by executions
  /// that snapshot after it.
  struct TableSnapshot {
    Catalog catalog;
    std::vector<std::pair<std::shared_ptr<const Dataset>,
                          std::shared_ptr<const TableEpoch>>>
        leases;
  };
  TableSnapshot SnapshotTables() const;

  /// A single-operation PreparedQuery over `cp` (no text, no coalescing).
  /// Defined in prepared_query.cc.
  PreparedQuery SingleOpQuery(CleaningPlan cp);
  /// The k-means centers a DEDUP or CLUSTER BY plan embeds: under k-means,
  /// a seeded sample of options_.filtering.k string values of
  /// `table`.`column`; none for the other algorithms or an unknown column.
  std::vector<std::string> SampleCenters(FilteringAlgo op, const std::string& table,
                                         const std::string& column) const;
  /// Runs the transient `pq` once into `sink` through ExecutePrepared — the
  /// same code path (snapshot, admission, metrics scope, sink emission) as
  /// Prepare→Execute — with cache persistence off, so the throwaway plan's
  /// Nest outputs never pollute the session cache.
  Status RunOnce(PreparedQuery pq, ViolationSink& sink, QueryResult* summary = nullptr);
  /// The programmatic ops' tail: RunOnce into a QueryResultSink, returning
  /// the one operation result.
  Result<OpResult> RunProgrammaticOp(PreparedQuery pq);
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

  /// One table version: its rows plus the count of live leases on it.
  /// Leases are taken under table_mu_ and released (release order) from any
  /// thread; MutateTable reads the count (acquire order) under the
  /// exclusive lock, so a zero count means every former reader's reads
  /// happen before the rewrite.
  struct TableVersion {
    explicit TableVersion(Dataset d) : data(std::move(d)) {}
    Dataset data;
    std::atomic<size_t> leases{0};
  };
  /// A counted lease on `version`: co-owns it and holds its count up until
  /// the returned pointer's last copy is destroyed. Call under table_mu_.
  static std::shared_ptr<const Dataset> Lease(
      const std::shared_ptr<TableVersion>& version);

  /// One mutation's rewrite of `table` (the current version, or a copy of
  /// it), recording the row-level effect in `delta`. It must run every user
  /// matcher or editor before its first write, and write nothing when it
  /// fails. Runs under the exclusive table lock.
  using MutationFn = std::function<Status(Dataset* table, TableDelta* delta)>;
  /// Shared mutation body: applies `fn` to the current version of `table` —
  /// in place when no lease is alive on it and it is not the epoch's base,
  /// else to a copy — and, iff the delta is non-empty, publishes the
  /// result, bumps the generation, and appends the delta to the table's
  /// epoch, all in one exclusive table_mu_ critical section. Never
  /// invalidates the cache.
  Result<MutationResult> MutateTable(const std::string& table,
                                     const MutationFn& fn);

  /// One registered name. The entry outlives UnregisterTable, which drops
  /// the version and the epoch but keeps the generation, so a later
  /// registration never reuses a generation.
  struct TableEntry {
    /// Current version, shared-owned so leases survive re-registration;
    /// null while unregistered.
    std::shared_ptr<TableVersion> current;
    /// Immutable: a registration starts a new one, and a mutation publishes
    /// a copy with its delta appended, so snapshot holders keep reading a
    /// frozen epoch. Its base aliases the registered version, which
    /// mutations never rewrite in place (the first mutation after a
    /// registration copies). Null while unregistered.
    std::shared_ptr<const TableEpoch> epoch;
    /// Version counter backing the cache's staleness keys; bumped by
    /// registrations and mutations alike. While registered it equals
    /// epoch->start + epoch->deltas.size().
    uint64_t generation = 0;
  };

  /// Guards tables_ — shared: lookups/snapshots; exclusive: registrations
  /// and mutations. Lock order: commit_mu_ → table_mu_ → the cache's
  /// internal mutex; never held while executing. A mutation racing an
  /// UnregisterTable either completes before it or fails with kKeyError,
  /// since both rewrite the one entry under the exclusive lock.
  mutable std::shared_mutex table_mu_;
  std::map<std::string, TableEntry> tables_;

  /// Read-modify-write commit serialization (see LockCommits). Ordered
  /// before table_mu_.
  mutable std::mutex commit_mu_;

  // Admission-control state (see AdmitExecution).
  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  uint64_t admission_inflight_bytes_ = 0;
  size_t admission_inflight_count_ = 0;
  uint64_t admission_next_ticket_ = 0;
  uint64_t admission_serve_ticket_ = 0;

  /// Out-of-core state (null on fully in-memory sessions). Declared before
  /// cache_ so the cache (whose pager writes through session_spill_) is
  /// destroyed first.
  std::unique_ptr<BufferPool> pool_;
  /// Session spill context backing the partition-cache pager (per-execution
  /// breaker spills use their own, stack-owned in ExecutePrepared, over the
  /// same pool).
  std::unique_ptr<SpillContext> session_spill_;

  /// Session-owned partition cache shared by every execution.
  PartitionCache cache_;
  /// Session-owned function registry (user scalar/aggregate/repair
  /// functions); referenced by prepared plans, so it must outlive them —
  /// which it does, since PreparedQuerys must not outlive their CleanDB.
  FunctionRegistry functions_;
};

}  // namespace cleanm
