#include "cleaning/prepared_query.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "cleaning/incremental.h"
#include "cleaning/query_profile.h"
#include "cleaning/select_builder.h"
#include "common/trace.h"
#include "physical/tuple.h"

namespace cleanm {

namespace {

/// True when `opts` overrides any fault-injection / retry knob.
bool HasFaultOverrides(const ExecOptions& opts) {
  return opts.fault_probability.has_value() || opts.fault_seed.has_value() ||
         opts.max_task_retries.has_value() || opts.retry_backoff_ns.has_value();
}

/// Applies ExecOptions' cluster overrides on construction and restores the
/// session configuration on destruction, so per-call knobs can never leak
/// into later executions (or into another PreparedQuery on the same
/// session).
class ScopedClusterConfig {
 public:
  ScopedClusterConfig(engine::Cluster* cluster, const ExecOptions& opts)
      : cluster_(cluster),
        saved_(cluster->options()),
        saved_active_(cluster->num_nodes()) {
    if (opts.max_nodes) cluster_->SetActiveNodes(*opts.max_nodes);
    if (opts.shuffle_ns_per_byte || opts.shuffle_ns_per_batch) {
      cluster_->SetShuffleCost(
          opts.shuffle_ns_per_byte.value_or(saved_.shuffle_ns_per_byte),
          opts.shuffle_ns_per_batch.value_or(saved_.shuffle_ns_per_batch));
    }
    if (opts.shuffle_batch_rows) cluster_->SetShuffleBatchRows(*opts.shuffle_batch_rows);
    if (HasFaultOverrides(opts)) {
      engine::FaultOptions fo = saved_.fault;
      if (opts.fault_probability) fo.failure_probability = *opts.fault_probability;
      if (opts.fault_seed) fo.seed = *opts.fault_seed;
      if (opts.max_task_retries) fo.max_task_retries = *opts.max_task_retries;
      if (opts.retry_backoff_ns) fo.retry_backoff_ns = *opts.retry_backoff_ns;
      cluster_->SetFaultOptions(fo);
    }
  }

  ~ScopedClusterConfig() {
    cluster_->SetActiveNodes(saved_active_);
    cluster_->SetShuffleCost(saved_.shuffle_ns_per_byte, saved_.shuffle_ns_per_batch);
    cluster_->SetShuffleBatchRows(saved_.shuffle_batch_rows);
    cluster_->SetFaultOptions(saved_.fault);
  }

 private:
  engine::Cluster* cluster_;
  engine::ClusterOptions saved_;
  size_t saved_active_;
};

/// True when `opts` carries any override that mutates the shared cluster —
/// exactly the fields ScopedClusterConfig applies. Such an execution must
/// run alone (it takes the session config lock exclusively).
bool ReconfiguresCluster(const ExecOptions& opts) {
  return opts.max_nodes.has_value() || opts.shuffle_ns_per_byte.has_value() ||
         opts.shuffle_ns_per_batch.has_value() ||
         opts.shuffle_batch_rows.has_value() || HasFaultOverrides(opts);
}

/// Default admission charge of an execution: the summed logical ByteSize of
/// every distinct table the plans scan — the same RowByteSize accounting
/// that backs the peak_bytes_materialized gauge, so the in-flight budget
/// and the materialization meter speak one unit.
uint64_t EstimateAdmissionBytes(const std::vector<CleaningPlan>& plans,
                                const Catalog& catalog) {
  std::vector<std::pair<std::string, uint64_t>> deps;
  for (const auto& cp : plans) CollectScanDeps(cp.plan, catalog, &deps);
  std::set<std::string> seen;
  uint64_t bytes = 0;
  for (const auto& [table, generation] : deps) {
    (void)generation;
    if (!seen.insert(table).second) continue;
    auto it = catalog.tables.find(table);
    if (it != catalog.tables.end()) bytes += it->second->ByteSize();
  }
  return bytes;
}

/// True for a plain `alias.column` reference bound to `alias`; sets *column.
bool IsColumnOf(const ExprPtr& e, const std::string& alias, std::string* column) {
  if (!e || e->kind != ExprKind::kField) return false;
  if (!e->child || e->child->kind != ExprKind::kVar || e->child->name != alias) {
    return false;
  }
  *column = e->name;
  return true;
}

/// Prepare-time validation of cleaning-clause column references against the
/// schemas registered *right now*. Unregistered tables are skipped — binding
/// is lazy, and executing then yields kKeyError from the catalog — but when
/// a schema is visible, an unknown column is kKeyError and a
/// similarity-grouped term of non-string type is kTypeError at Prepare
/// time, not a silent empty result at Execute time.
Status ValidateClauses(const CleanDB& db, const CleanMQuery& query) {
  if (query.from.empty()) return Status::InvalidArgument("query has no FROM table");
  const TableRef& base = query.from[0];
  // Leases, not borrowed pointers: Prepare may race a RegisterTable on
  // another driver thread.
  auto base_table = db.GetTableShared(base.table);

  auto check_column = [](const Dataset* table, const std::string& table_name,
                         const std::string& column, bool needs_string) -> Status {
    auto idx = table->schema().IndexOf(column);
    if (!idx.ok()) {
      return Status::KeyError("unknown column '" + column + "' in table '" +
                              table_name + "'");
    }
    if (needs_string &&
        table->schema().fields()[idx.value()].type != ValueType::kString) {
      return Status::TypeError("grouping monoids (token filtering / k-means) "
                               "require a string term, but column '" +
                               column + "' of table '" + table_name + "' is not");
    }
    return Status::OK();
  };

  std::string column;
  if (base_table.ok()) {
    for (const auto& fd : query.fds) {
      for (const auto& side : {&fd.lhs, &fd.rhs}) {
        for (const auto& e : *side) {
          if (IsColumnOf(e, base.alias, &column)) {
            CLEANM_RETURN_NOT_OK(
                check_column(base_table.value().get(), base.table, column, false));
          }
        }
      }
    }
    for (const auto& dedup : query.dedups) {
      const bool grouping_monoid = dedup.op != FilteringAlgo::kExactKey;
      for (size_t i = 0; i < dedup.attributes.size(); i++) {
        if (IsColumnOf(dedup.attributes[i], base.alias, &column)) {
          // Only the combined grouping term must be a string under a
          // grouping monoid; with several attributes the term is a concat
          // (already a string), so the type requirement applies to the
          // single-attribute form.
          const bool needs_string = grouping_monoid && dedup.attributes.size() == 1;
          CLEANM_RETURN_NOT_OK(
              check_column(base_table.value().get(), base.table, column, needs_string));
        }
      }
    }
    for (const auto& cb : query.cluster_bys) {
      if (IsColumnOf(cb.term, base.alias, &column)) {
        CLEANM_RETURN_NOT_OK(check_column(base_table.value().get(), base.table, column,
                                          /*needs_string=*/true));
      }
    }
  }
  if (!query.cluster_bys.empty() && query.from.size() >= 2) {
    const TableRef& dict = query.from[1];
    auto dict_table = db.GetTableShared(dict.table);
    if (dict_table.ok()) {
      for (const auto& cb : query.cluster_bys) {
        if (cb.term && cb.term->kind == ExprKind::kField) {
          CLEANM_RETURN_NOT_OK(check_column(dict_table.value().get(), dict.table,
                                            cb.term->name, /*needs_string=*/true));
        }
      }
    }
  }
  return Status::OK();
}

/// Walks one expression and checks every function-call site against the
/// registry + builtin tables (Prepare-time signature checking). When the
/// original query text is available and the parser recorded the call's
/// offset, the kKeyError is positioned at the offending function name.
Status ValidateCallsIn(const ExprPtr& e, const FunctionRegistry& functions,
                       const std::string* query_text) {
  if (!e) return Status::OK();
  if (e->kind == ExprKind::kCall) {
    Status st = functions.ValidateCall(e->name, e->args.size());
    if (!st.ok()) {
      if (query_text != nullptr && e->src_pos != kNoSourcePos) {
        size_t line = 1, column = 1;
        LineColumnAt(*query_text, e->src_pos, &line, &column);
        return Status(st.code(), st.message() + " at line " + std::to_string(line) +
                                     ", column " + std::to_string(column) +
                                     " (offset " + std::to_string(e->src_pos) + ")");
      }
      return st;
    }
  }
  for (const ExprPtr& child :
       {e->child, e->lhs, e->rhs, e->cond, e->then_e, e->else_e}) {
    CLEANM_RETURN_NOT_OK(ValidateCallsIn(child, functions, query_text));
  }
  for (const auto& a : e->args) {
    CLEANM_RETURN_NOT_OK(ValidateCallsIn(a, functions, query_text));
  }
  for (const auto& v : e->field_values) {
    CLEANM_RETURN_NOT_OK(ValidateCallsIn(v, functions, query_text));
  }
  if (e->kind == ExprKind::kComprehension) {
    CLEANM_RETURN_NOT_OK(ValidateCallsIn(e->comp.head, functions, query_text));
    for (const auto& q : e->comp.qualifiers) {
      CLEANM_RETURN_NOT_OK(ValidateCallsIn(q.expr, functions, query_text));
    }
  }
  return Status::OK();
}

Status ValidateFunctionCalls(const CleanMQuery& query,
                             const FunctionRegistry& functions,
                             const std::string* query_text) {
  auto check = [&](const ExprPtr& e) {
    return ValidateCallsIn(e, functions, query_text);
  };
  for (const auto& item : query.select_list) CLEANM_RETURN_NOT_OK(check(item.expr));
  CLEANM_RETURN_NOT_OK(check(query.where));
  for (const auto& g : query.group_by) CLEANM_RETURN_NOT_OK(check(g));
  CLEANM_RETURN_NOT_OK(check(query.having));
  for (const auto& fd : query.fds) {
    for (const auto& side : {&fd.lhs, &fd.rhs}) {
      for (const auto& e : *side) CLEANM_RETURN_NOT_OK(check(e));
    }
  }
  for (const auto& dedup : query.dedups) {
    for (const auto& e : dedup.attributes) CLEANM_RETURN_NOT_OK(check(e));
  }
  for (const auto& cb : query.cluster_bys) CLEANM_RETURN_NOT_OK(check(cb.term));
  return Status::OK();
}

}  // namespace

// ---- Preparation ----

Result<PreparedQuery> CleanDB::Prepare(const std::string& query_text) {
  CLEANM_ASSIGN_OR_RETURN(CleanMQuery query, ParseCleanM(query_text));
  return PrepareQueryImpl(query, &query_text);
}

Result<PreparedQuery> CleanDB::PrepareQuery(const CleanMQuery& query) {
  return PrepareQueryImpl(query, nullptr);
}

Result<PreparedQuery> CleanDB::PrepareQueryImpl(const CleanMQuery& query,
                                                const std::string* query_text) {
  CLEANM_RETURN_NOT_OK(ValidateClauses(*this, query));
  CLEANM_RETURN_NOT_OK(ValidateFunctionCalls(query, functions_, query_text));
  const TableRef& base = query.from[0];

  // Desugar every cleaning clause to its algebra plan.
  std::vector<CleaningPlan> cleaning_plans;
  for (const auto& fd : query.fds) {
    CLEANM_ASSIGN_OR_RETURN(CleaningPlan cp, BuildFdPlan(base.table, base.alias, fd));
    cleaning_plans.push_back(std::move(cp));
  }
  for (const auto& dedup : query.dedups) {
    FilteringOptions fopts = options_.filtering;
    fopts.algo = dedup.op;
    std::vector<std::string> centers;
    if (dedup.op == FilteringAlgo::kKMeans && !dedup.attributes.empty() &&
        dedup.attributes[0]->kind == ExprKind::kField) {
      centers = SampleCenters(base.table, dedup.attributes[0]->name, fopts.k);
    }
    CLEANM_ASSIGN_OR_RETURN(
        CleaningPlan cp,
        BuildDedupPlan(base.table, base.alias, dedup, fopts, std::move(centers)));
    cleaning_plans.push_back(std::move(cp));
  }
  for (const auto& cb : query.cluster_bys) {
    if (query.from.size() < 2) {
      return Status::InvalidArgument(
          "CLUSTER BY requires a dictionary table as the second FROM entry");
    }
    const TableRef& dict = query.from[1];
    if (!cb.term || cb.term->kind != ExprKind::kField) {
      return Status::InvalidArgument("CLUSTER BY term must be a column reference");
    }
    const std::string attr = cb.term->name;
    FilteringOptions fopts = options_.filtering;
    fopts.algo = cb.op;
    std::vector<std::string> centers;
    if (cb.op == FilteringAlgo::kKMeans) {
      centers = SampleCenters(dict.table, attr, fopts.k);
    }
    CLEANM_ASSIGN_OR_RETURN(
        CleaningPlan cp,
        BuildTermValidationPlan(base.table, base.alias, dict.table, dict.alias, attr,
                                cb, fopts, std::move(centers)));
    cleaning_plans.push_back(std::move(cp));
  }
  // User SELECT / GROUP BY / HAVING plan — the open language surface. Its
  // Nest stage is shaped like the built-in builders', so the Nest
  // coalescing below can merge it with FD/DEDUP groupings over the same
  // term, and a registered repair call in SELECT position marks its output
  // field for the repair loop (see repair/repair_sink.h).
  std::vector<std::string> repair_fields;
  std::string repair_table;
  if (QueryWantsSelectPlan(query)) {
    CLEANM_ASSIGN_OR_RETURN(SelectPlan sp, BuildSelectPlan(query, &functions_));
    if (!sp.repair_fields.empty()) {
      repair_fields = std::move(sp.repair_fields);
      repair_table = std::move(sp.source_table);
    }
    cleaning_plans.push_back(std::move(sp.plan));
  }
  // Disambiguate repeated operator names (FD, FD_2, ...).
  {
    std::map<std::string, int> seen;
    for (auto& cp : cleaning_plans) {
      const int n = ++seen[cp.op_name];
      if (n > 1) cp.op_name += "_" + std::to_string(n);
    }
  }

  PreparedQuery pq;
  pq.db_ = this;
  pq.status_ = Status::OK();
  pq.query_ = query;
  pq.plans_ = std::move(cleaning_plans);
  pq.repair_fields_ = std::move(repair_fields);
  pq.repair_table_ = std::move(repair_table);

  // Algebra-level optimization, done once: coalesce shared Nest stages
  // (Figure 1) into the unified plan forms. Both forms are kept so the
  // unify knob stays a per-execution choice.
  std::vector<AlgOpPtr> roots;
  roots.reserve(pq.plans_.size());
  for (const auto& cp : pq.plans_) roots.push_back(cp.plan);
  RewriteStats stats;
  CoalescedPlans coalesced = CoalesceNests(roots, &stats);
  pq.unified_roots_ = std::move(coalesced.roots);
  pq.nests_coalesced_ = coalesced.groups_merged;
  pq.incremental_ = std::make_shared<IncrementalState>();
  return pq;
}

Result<PreparedQuery> CleanDB::PrepareDenialConstraint(const std::string& table,
                                                       ExprPtr pred,
                                                       ExprPtr prefilter) {
  if (!pred) return Status::InvalidArgument("denial constraint has no predicate");
  AlgOpPtr left = Scan(table, "t1");
  if (prefilter) left = SelectOp(std::move(left), prefilter);
  AlgOpPtr join = JoinOp(std::move(left), Scan(table, "t2"), std::move(pred));
  CleaningPlan cp;
  cp.op_name = "DC";
  cp.plan = std::move(join);
  cp.entity_vars = {"t1", "t2"};

  PreparedQuery pq;
  pq.db_ = this;
  pq.status_ = Status::OK();
  pq.unified_roots_ = {cp.plan};
  pq.plans_.push_back(std::move(cp));
  // Join-rooted, so always incrementally ineligible — but allocating keeps
  // the eligibility decision in one place (the validator).
  pq.incremental_ = std::make_shared<IncrementalState>();
  return pq;
}

// ---- EXPLAIN ----

namespace {

const char* ExplainAlgoName(FilteringAlgo algo) {
  switch (algo) {
    case FilteringAlgo::kTokenFiltering: return "tf";
    case FilteringAlgo::kKMeans: return "kmeans";
    case FilteringAlgo::kExactKey: return "exact";
  }
  return "?";
}

/// One-line operator headline, same notation as AlgOp::ToString().
std::string ExplainHeadline(const AlgOp& op) {
  std::string out = AlgKindName(op.kind);
  switch (op.kind) {
    case AlgKind::kScan:
      out += '(' + op.table + " as " + op.var + ')';
      break;
    case AlgKind::kSelect:
      out += '[' + op.pred->ToString() + ']';
      break;
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin:
      out += '[';
      if (op.left_key) {
        out += op.left_key->ToString() + " = " + op.right_key->ToString();
        if (op.pred) out += " && " + op.pred->ToString();
      } else if (op.pred) {
        out += op.pred->ToString();
      } else {
        out += "true";
      }
      out += ']';
      break;
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest:
      out += '[' + op.path_var + " <- " + op.path->ToString() + ']';
      break;
    case AlgKind::kReduce:
      out += '[' + op.monoid + " / " + op.head->ToString() + ']';
      break;
    case AlgKind::kNest: {
      out += std::string("[by ") + ExplainAlgoName(op.group.algo) + '(' +
             op.group.term->ToString() + ')';
      for (const auto& agg : op.aggs) {
        out += ", " + agg.name + "=" + agg.monoid + '(' + agg.expr->ToString() + ')';
      }
      if (op.having) out += ", having " + op.having->ToString();
      out += ']';
      break;
    }
  }
  return out;
}

}  // namespace

std::string PreparedQuery::Explain(const ExecOptions& opts) const {
  if (!status_.ok()) return "<unprepared query: " + status_.message() + ">";
  const bool unify =
      opts.unify_operations.value_or(db_ != nullptr ? db_->options().unify_operations
                                                    : true);
  std::string out = "PreparedQuery: " + std::to_string(plans_.size()) +
                    " operation(s), unify=";
  out += unify ? "on" : "off";
  if (unify && nests_coalesced_ > 0) {
    out += " (" + std::to_string(nests_coalesced_) + " Nest stage(s) coalesced)";
  }
  out += '\n';

  auto root_of = [&](size_t i) -> const AlgOpPtr& {
    return unify && i < unified_roots_.size() ? unified_roots_[i] : plans_[i].plan;
  };

  // Pointer-identity sharing across the chosen roots: a subtree reached more
  // than once is a coalesced stage — executed once, its output served from
  // the partition cache to every other consumer.
  std::map<const AlgOp*, int> uses;
  std::function<void(const AlgOpPtr&)> count = [&](const AlgOpPtr& op) {
    if (!op) return;
    uses[op.get()]++;
    count(op->input);
    count(op->right);
  };
  for (size_t i = 0; i < plans_.size(); i++) count(root_of(i));

  std::map<const AlgOp*, int> shared_id;
  int next_shared = 1;
  std::function<void(const AlgOpPtr&, int)> render = [&](const AlgOpPtr& op,
                                                         int depth) {
    out.append(static_cast<size_t>(depth) * 2, ' ');
    if (!op) {
      out += "<null>\n";
      return;
    }
    out += ExplainHeadline(*op);
    bool first_visit = true;
    if (uses[op.get()] > 1) {
      auto [it, inserted] = shared_id.emplace(op.get(), next_shared);
      if (inserted) next_shared++;
      first_visit = inserted;
      out += "  [shared S" + std::to_string(it->second);
      if (inserted) {
        out += ": executed once; output cache-resident for the other plans";
        if (persist_cache_) out += " and for re-executions";
      } else {
        out += ": see above";
      }
      out += ']';
    }
    if (op->kind == AlgKind::kScan && db_ != nullptr) {
      const uint64_t gen = db_->TableGeneration(op->table);
      if (gen == 0) {
        out += "  [not registered yet; binds at execute]";
      } else {
        out += "  [generation " + std::to_string(gen) +
               "; partitioned scan cached per node width]";
      }
    }
    out += '\n';
    if (!first_visit) return;
    if (op->input) render(op->input, depth + 1);
    if (op->right) render(op->right, depth + 1);
  };

  for (size_t i = 0; i < plans_.size(); i++) {
    out += "== " + plans_[i].op_name + " ==\n";
    render(root_of(i), 0);
  }
  return out;
}

// ---- Execution ----

std::vector<std::string> PreparedQuery::operation_names() const {
  std::vector<std::string> names;
  names.reserve(plans_.size());
  for (const auto& cp : plans_) names.push_back(cp.op_name);
  return names;
}

Result<QueryResult> PreparedQuery::Execute(const ExecOptions& opts) {
  QueryResultSink sink;
  CLEANM_RETURN_NOT_OK(db_->ExecutePrepared(*this, opts, sink, &sink.result()));
  return std::move(sink.result());
}

Status PreparedQuery::ExecuteInto(ViolationSink& sink, const ExecOptions& opts) {
  return db_->ExecutePrepared(*this, opts, sink, nullptr);
}

Status CleanDB::ExecutePrepared(const PreparedQuery& pq, const ExecOptions& opts,
                                ViolationSink& sink, QueryResult* summary) {
  CLEANM_RETURN_NOT_OK(pq.status_);
  if (!pq.db_) return Status::Internal("PreparedQuery is not bound to a CleanDB");
  // All CLEANM_SESSION_KNOBS shared between the session and the per-call
  // overrides resolve once, here. (The cluster-reconfiguration knobs —
  // shuffle model, fault injection — are applied from the raw optionals by
  // ScopedClusterConfig below because "unset" means "leave the cluster
  // alone", not "re-apply the session value".)
  const ResolvedExecOptions knobs = ResolveExecOptions(opts, options_);
  const bool unify = knobs.unify_operations;

  // Registration snapshot: the catalog binds the tables and generations
  // visible right now, and the snapshot's leases keep those datasets alive
  // even if a concurrent RegisterTable / repair Commit replaces them
  // mid-execution (the re-registration is visible only to executions that
  // snapshot after it).
  TableSnapshot snapshot = SnapshotTables();

  // FIFO admission against the session's in-flight byte budget (no-op when
  // unlimited). Charged before any engine work starts; released on every
  // exit path.
  const uint64_t admitted = AdmitExecution(opts.admission_bytes.value_or(
      EstimateAdmissionBytes(pq.plans_, snapshot.catalog)));
  struct AdmissionRelease {
    CleanDB* db;
    uint64_t bytes;
    ~AdmissionRelease() { db->ReleaseExecution(bytes); }
  } release{this, admitted};

  Timer total;
  // Plain executions run under the session cluster configuration and share
  // the config lock; an execution carrying cluster overrides mutates the
  // shared cluster, so it takes the lock exclusively and runs alone (the
  // override is applied after the lock and restored before it drops).
  std::shared_lock<std::shared_mutex> shared_config(config_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive_config(config_mu_, std::defer_lock);
  std::optional<ScopedClusterConfig> config;
  if (ReconfiguresCluster(opts)) {
    exclusive_config.lock();
    config.emplace(cluster_.get(), opts);
  } else {
    shared_config.lock();
  }

  // Per-execution metrics: the scope travels with this execution's engine
  // calls (workers re-install it), so concurrent executions never mix
  // counters; the session totals accumulate on completion below.
  QueryMetrics exec_metrics;
  engine::MetricsScope metrics_scope(&exec_metrics);

  // Observability (DESIGN.md, "Tracing & profiling"): with profiling on, a
  // per-execution recorder collects spans from every instrumented engine
  // site — fan-out points re-install it on workers exactly like the metrics
  // scope — and is drained into a QueryProfile after the run. Off (the
  // default), no recorder is installed and every TraceScope in the engine
  // is a thread-local load + null check.
  const bool profile_on = knobs.profile;
  std::optional<TraceRecorder> trace_recorder;
  std::optional<TraceRecorderScope> trace_install;
  if (profile_on) {
    trace_recorder.emplace();
    trace_install.emplace(&*trace_recorder);
  }

  // Cancellation sources for this execution: the query's CancelToken plus
  // the per-call deadline. The scope travels with the engine calls the same
  // way the metrics scope does; checks fire at every task attempt, every
  // PumpToDriver morsel, and inside simulated network sleeps.
  engine::ExecControl control;
  control.token = pq.cancel_token_.get();
  if (opts.deadline_ns) {
    control.has_deadline = true;
    control.deadline = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(static_cast<int64_t>(*opts.deadline_ns));
  }
  engine::ExecControlScope control_scope(&control);

  // Poison-row quarantine (opt-in): rows whose compiled expressions throw
  // are recorded here and skipped.
  const size_t max_quarantined = opts.max_quarantined_rows.value_or(0);
  engine::QuarantineSink quarantine(max_quarantined);

  // Out-of-core wiring: resolve the effective pool budget (per-call
  // override, else session default). The session pool serves unless the
  // budget is overridden, in which case an execution-local pool applies it;
  // budget 0 disables paged scans and breaker spilling for this call. The
  // spill context is stack-owned, so its lazily-created temp file is
  // unlinked on every exit path — success, sink abort, cancellation or
  // deadline unwind, retry exhaustion — purely by scope exit.
  const uint64_t pool_bytes = knobs.buffer_pool_bytes;
  const size_t page_bytes = knobs.page_bytes;
  const std::string spill_dir = knobs.spill_dir;
  std::unique_ptr<BufferPool> local_pool;
  BufferPool* pool = nullptr;
  if (pool_bytes > 0) {
    if (pool_ && !opts.buffer_pool_bytes.has_value()) {
      pool = pool_.get();
    } else {
      local_pool = std::make_unique<BufferPool>(pool_bytes);
      pool = local_pool.get();
    }
  }
  std::optional<SpillContext> spill;
  if (pool != nullptr) spill.emplace(spill_dir, page_bytes, pool_bytes, pool);
  const BufferPool::Stats pool_before = pool ? pool->stats() : BufferPool::Stats{};
  const uint64_t session_spilled_before =
      session_spill_ ? session_spill_->bytes_spilled() : 0;

  const PartitionCache::Stats cache_before = cache_.stats();
  Executor exec{cluster_.get(), &snapshot.catalog, options_.physical, &cache_,
                pq.persist_cache_};
  exec.quarantine = max_quarantined > 0 ? &quarantine : nullptr;
  exec.pool = pool;
  exec.spill = spill ? &*spill : nullptr;
  exec.delta_scan = knobs.incremental;

  // The unified violation report: entity → operations it violates (the
  // Section-4.4 outer join), built incrementally as violations stream.
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
  };
  std::unordered_map<Value, std::vector<std::string>, ValueHash, ValueEq> entities;

  const size_t morsel_rows = std::max<size_t>(1, knobs.morsel_rows);

  // The engine propagates worker failures as exceptions (see
  // engine/fault.h): retries exhausted (kUnavailable), cancellation and
  // deadlines (StatusException), and — with the quarantine off — poison
  // rows. Catch them at this session boundary so every failure mode
  // surfaces as an ordinary Status with all workers joined.
  auto run_plans = [&]() -> Status {
  // Incremental delta path (cleaning/incremental.h): when the snapshot has
  // only advanced by mutation (minor) generations since the cached state,
  // an eligible query is served entirely from the delta log — no engine
  // work, no scan/Nest cache traffic. Ineligible or cold states fall
  // through to the ordinary loop below (which still benefits from the
  // planner's delta-extended scan rebuild).
  if (knobs.incremental && pq.incremental_) {
    std::vector<AlgOpPtr> inc_roots;
    inc_roots.reserve(pq.plans_.size());
    for (size_t i = 0; i < pq.plans_.size(); i++) {
      inc_roots.push_back(unify && i < pq.unified_roots_.size()
                              ? pq.unified_roots_[i]
                              : pq.plans_[i].plan);
    }
    Result<IncrementalRun> inc =
        RunIncrementalValidation(*pq.incremental_, pq.plans_, inc_roots, exec, sink);
    CLEANM_RETURN_NOT_OK(inc.status());
    if (inc.value() == IncrementalRun::kRan) return Status::OK();
  }
  for (size_t i = 0; i < pq.plans_.size(); i++) {
    const CleaningPlan& cp = pq.plans_[i];
    Timer op_timer;
    const AlgOpPtr& root = unify ? pq.unified_roots_[i] : cp.plan;

    CLEANM_RETURN_NOT_OK(sink.OnOpBegin(cp.op_name));
    size_t emitted = 0;
    ViolationDeduper dedup(cp);
    auto emit_violation = [&](const Value& v) -> Status {
      if (!dedup.ShouldEmit(v)) return Status::OK();
      CLEANM_RETURN_NOT_OK(sink.OnViolation(cp.op_name, v));
      emitted++;
      for (const auto& var : cp.entity_vars) {
        auto field = v.GetField(var);
        if (!field.ok()) continue;
        const Value& entity = field.value();
        auto add = [&](const Value& e) {
          auto& ops = entities[e];
          if (ops.empty() || ops.back() != cp.op_name) ops.push_back(cp.op_name);
        };
        if (entity.type() == ValueType::kList) {
          for (const auto& e : entity.AsList()) add(e);
        } else {
          add(entity);
        }
      }
      return Status::OK();
    };

    if (root->kind != AlgKind::kReduce) {
      // Operator-level pipelining below the sink: violations reach the
      // sink as each morsel completes, so a sink error (early abort) stops
      // the plan mid-morsel and no whole operator output is ever
      // materialized driver-side.
      CLEANM_RETURN_NOT_OK(exec.Run(
          root, morsel_rows, [&](size_t, engine::Partition&& morsel) -> Status {
            for (const auto& row : morsel) {
              CLEANM_RETURN_NOT_OK(emit_violation(PhysicalTupleOf(row)));
            }
            return Status::OK();
          }));
    } else {
      // Reduce roots fold to one value (the query's actual result — e.g. a
      // user GROUP BY projection), so streaming stops at the fold and the
      // value's elements reach the sink afterwards.
      CLEANM_ASSIGN_OR_RETURN(Value out, exec.RunToValue(root, morsel_rows));
      for (const auto& v : out.AsList()) {
        CLEANM_RETURN_NOT_OK(emit_violation(v));
      }
    }

    OpSummary op_summary;
    op_summary.op_name = cp.op_name;
    op_summary.violations = emitted;
    op_summary.seconds = op_timer.ElapsedSeconds();
    CLEANM_RETURN_NOT_OK(sink.OnOpEnd(op_summary));
  }

  for (const auto& [entity, ops] : entities) {
    CLEANM_RETURN_NOT_OK(sink.OnDirtyEntity(entity, ops));
  }
  return Status::OK();
  };

  Status status;
  {
    // Root span of the profile tree: every operator span nests under it, so
    // its counter delta is the whole run's movement and the profile's
    // Σ self_counters reconciles against it exactly. (The out-of-core /
    // cancellation folds below happen after it closes and are deliberately
    // outside the attribution.)
    std::optional<TraceScope> exec_span;
    if (profile_on) {
      exec_span.emplace("operator", "execute", nullptr, -1, &exec_metrics);
    }
    try {
      status = run_plans();
    } catch (const engine::StatusException& e) {
      status = e.status();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("execution failed: ") + e.what());
    }
  }
  if (status.code() == StatusCode::kCancelled ||
      status.code() == StatusCode::kDeadlineExceeded) {
    exec_metrics.executions_cancelled += 1;
  }

  // Out-of-core counters: breaker spills from this execution's context,
  // cache write-backs from the session context (delta over this window),
  // and the pool's hit/miss/eviction deltas.
  if (spill) exec_metrics.bytes_spilled += spill->bytes_spilled();
  if (session_spill_) {
    exec_metrics.bytes_spilled +=
        session_spill_->bytes_spilled() - session_spilled_before;
  }
  if (pool != nullptr) {
    const BufferPool::Stats pool_after = pool->stats();
    exec_metrics.buffer_pool_hits += pool_after.hits - pool_before.hits;
    exec_metrics.buffer_pool_misses += pool_after.misses - pool_before.misses;
    exec_metrics.pages_evicted += pool_after.evictions - pool_before.evictions;
  }

  // Drain the recorder (all workers have joined by now) and build the
  // profile; the trace file is written regardless of the run's status so a
  // failed execution can still be inspected.
  std::shared_ptr<const QueryProfile> profile_out;
  if (profile_on) {
    std::map<const void*, std::string> op_labels;
    for (size_t i = 0; i < pq.plans_.size(); i++) {
      op_labels[pq.plans_[i].plan.get()] = pq.plans_[i].op_name;
      if (i < pq.unified_roots_.size()) {
        op_labels[pq.unified_roots_[i].get()] = pq.plans_[i].op_name;
      }
    }
    auto qp = std::make_shared<QueryProfile>(QueryProfile::Build(
        trace_recorder->Drain(), op_labels, options_.skew_warn_factor));
    const std::string trace_path = knobs.trace_path;
    if (!trace_path.empty()) {
      const Status trace_status = qp->WriteChromeTrace(trace_path);
      if (status.ok() && !trace_status.ok()) status = trace_status;
    }
    profile_out = std::move(qp);
  }

  if (summary) {
    summary->profile = profile_out;
    summary->nests_coalesced = unify ? pq.nests_coalesced_ : 0;
    summary->total_seconds = total.ElapsedSeconds();
    summary->quarantined = quarantine.TakeRows();
    summary->metrics = exec_metrics.Snapshot();
    // The cache is shared, so under concurrent executions this delta also
    // counts their hits/misses — it is a session-activity window, not a
    // per-execution attribution (the engine counters above are).
    summary->cache = cache_.stats().Since(cache_before);
  }
  // Fold this execution's counters into the session-cumulative totals
  // (counts add; the materialization peak folds as a running max) — also on
  // failure, so cancelled/unavailable executions stay metrics-visible.
  cluster_->session_metrics().Accumulate(exec_metrics.Snapshot());
  return status;
}

}  // namespace cleanm
