#include "cleaning/cleandb.h"

#include <algorithm>
#include <cstring>

#include "cleaning/prepared_query.h"
#include "cluster/filtering.h"

namespace cleanm {

namespace {

/// The partition cache's write-back pager: partitions serialize through
/// the session spill context (lazy temp store, remove-on-close) and revive
/// through the shared buffer pool. Called with the cache mutex held — it
/// never calls back into the cache (lock order: cache mutex → store/pool
/// mutexes).
class SpillPager : public PartitionPager {
 public:
  explicit SpillPager(SpillContext* spill) : spill_(spill) {}

  Result<std::vector<std::vector<PageSpan>>> Write(
      const engine::Partitioned& data) override {
    std::vector<std::vector<PageSpan>> spans(data.size());
    for (size_t n = 0; n < data.size(); n++) {
      if (data[n].empty()) continue;
      CLEANM_ASSIGN_OR_RETURN(spans[n], spill_->SpillRows(data[n]));
    }
    return spans;
  }

  Result<engine::Partitioned> Read(
      const std::vector<std::vector<PageSpan>>& spans) override {
    engine::Partitioned out(spans.size());
    for (size_t n = 0; n < spans.size(); n++) {
      CLEANM_RETURN_NOT_OK(spill_->ReadBack(spans[n], &out[n]));
    }
    return out;
  }

 private:
  SpillContext* const spill_;
};

/// Appends each record a SELECT plan emits to a Dataset as one row, its
/// fields in SELECT-list order.
class DatasetSink final : public ViolationSink {
 public:
  explicit DatasetSink(Schema schema) : out_(std::move(schema)) {}

  Status OnViolation(const std::string& op_name, const Value& record) override {
    (void)op_name;
    Row row;
    row.reserve(record.AsStruct().size());
    for (const auto& field : record.AsStruct()) row.push_back(field.second);
    out_.Append(std::move(row));
    return Status::OK();
  }

  Status OnDirtyEntity(const Value& entity,
                       const std::vector<std::string>& violated_ops) override {
    (void)entity;  // a SELECT plan names no entities
    (void)violated_ops;
    return Status::OK();
  }

  Dataset TakeDataset() { return std::move(out_); }

 private:
  Dataset out_;
};

}  // namespace

CleanDB::CleanDB(CleanDBOptions options)
    : options_(std::move(options)), cache_(options_.partition_cache_bytes) {
  engine::ClusterOptions copts;
  copts.num_nodes = options_.num_nodes;
  copts.shuffle_ns_per_byte = options_.shuffle_ns_per_byte;
  copts.shuffle_batch_rows = options_.shuffle_batch_rows;
  copts.fault = options_.fault;
  cluster_ = std::make_unique<engine::Cluster>(copts);
  if (options_.buffer_pool_bytes > 0) {
    pool_ = std::make_unique<BufferPool>(options_.buffer_pool_bytes);
    session_spill_ = std::make_unique<SpillContext>(
        options_.spill_dir, options_.page_bytes, options_.buffer_pool_bytes,
        pool_.get());
    cache_.set_pager(std::make_shared<SpillPager>(session_spill_.get()));
  }
}

std::shared_ptr<const Dataset> CleanDB::Lease(
    const std::shared_ptr<TableVersion>& version) {
  // Relaxed suffices: the caller holds table_mu_, which orders this
  // increment before any later mutator's load.
  version->leases.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const Dataset>(&version->data, [version](const Dataset*) {
    version->leases.fetch_sub(1, std::memory_order_release);
  });
}

void CleanDB::RegisterTable(const std::string& name, Dataset dataset) {
  auto version = std::make_shared<TableVersion>(std::move(dataset));
  // A registration starts a new epoch: the registered dataset is the base
  // future incremental bootstraps fold from (mutations never rewrite it in
  // place), and the previous epoch's deltas are dropped (snapshot holders
  // keep theirs alive through their leases).
  auto epoch = std::make_shared<TableEpoch>();
  epoch->base = std::shared_ptr<const Dataset>(version, &version->data);
  {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    TableEntry& entry = tables_[name];
    epoch->start = ++entry.generation;
    entry.current = std::move(version);
    entry.epoch = std::move(epoch);
  }
  // Invalidation happens after the lock drops (cache has its own mutex).
  // In the window between, the bumped generation is already visible and
  // cache keys embed generations, so a new snapshot can only miss on the
  // doomed entries — while an old snapshot may still legitimately hit
  // entries of the generation it bound.
  cache_.InvalidateTable(name);
}

void CleanDB::UnregisterTable(const std::string& name) {
  {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    auto it = tables_.find(name);
    if (it == tables_.end() || !it->second.current) return;
    it->second.current.reset();
    it->second.epoch.reset();
    it->second.generation++;
  }
  cache_.InvalidateTable(name);
}

uint64_t CleanDB::TableGeneration(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.generation;
}

uint64_t CleanDB::TableMinor(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end() || !it->second.epoch) return 0;
  return it->second.generation - it->second.epoch->start;
}

Result<CleanDB::MutationResult> CleanDB::MutateTable(const std::string& table,
                                                     const MutationFn& fn) {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end() || !it->second.current) {
    return Status::KeyError("unknown table '" + table + "'");
  }
  TableEntry& entry = it->second;
  // Copy-on-write: rewrite the current version in place only when nobody
  // can observe it — no live lease (the acquire load pairs with the
  // leases' release decrements) and not the epoch's base, which the
  // incremental validator bootstraps from. Otherwise work on a copy.
  std::shared_ptr<TableVersion> target = entry.current;
  if (target->leases.load(std::memory_order_acquire) != 0 ||
      &target->data == entry.epoch->base.get()) {
    target = std::make_shared<TableVersion>(target->data);
  }
  auto delta = std::make_shared<TableDelta>();
  CLEANM_RETURN_NOT_OK(fn(&target->data, delta.get()));

  MutationResult result;
  if (!delta->added.empty() || !delta->removed.empty()) {
    result.rows_affected = std::max(delta->added.size(), delta->removed.size());
    // Copy-then-append keeps published epochs immutable: snapshots taken
    // before this mutation keep reading the old epoch object.
    auto epoch = std::make_shared<TableEpoch>(*entry.epoch);
    epoch->deltas.push_back(std::move(delta));
    entry.epoch = std::move(epoch);
    entry.current = std::move(target);
    entry.generation++;
  }
  // A no-op mutation publishes nothing and bumps nothing — the cache stays
  // reachable and a repair fixpoint that converged does not spuriously
  // advance the version.
  result.generation = entry.generation;
  result.minor = entry.generation - entry.epoch->start;
  return result;
}

Result<CleanDB::MutationResult> CleanDB::AppendRows(const std::string& table,
                                                    std::vector<Row> rows) {
  return MutateTable(table, [&rows](Dataset* t, TableDelta* delta) {
    const size_t width = t->schema().fields().size();
    for (const auto& r : rows) {
      if (r.size() != width) {
        return Status::InvalidArgument(
            "appended row has " + std::to_string(r.size()) +
            " values; table schema has " + std::to_string(width));
      }
    }
    delta->added = rows;
    for (auto& r : rows) t->Append(std::move(r));
    return Status::OK();
  });
}

Result<CleanDB::MutationResult> CleanDB::UpdateRows(const std::string& table,
                                                    const RowMatcher& matcher,
                                                    const ValueStruct& sets) {
  return MutateTable(table, [&](Dataset* t, TableDelta* delta) {
    const Schema& schema = t->schema();
    std::vector<std::pair<size_t, const Value*>> targets;
    targets.reserve(sets.size());
    for (const auto& [name, value] : sets) {
      CLEANM_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(name));
      targets.emplace_back(idx, &value);
    }
    std::vector<Row>& rows = t->mutable_rows();
    std::vector<size_t> matched;
    for (size_t i = 0; i < rows.size(); i++) {
      if (matcher(schema, rows[i])) matched.push_back(i);
    }
    for (size_t i : matched) {
      Row& row = rows[i];
      const bool changed =
          std::any_of(targets.begin(), targets.end(),
                      [&row](const auto& target) {
                        return !row[target.first].Equals(*target.second);
                      });
      if (!changed) continue;
      delta->removed.push_back(row);
      for (const auto& [idx, value] : targets) row[idx] = *value;
      delta->added.push_back(row);
    }
    return Status::OK();
  });
}

Result<CleanDB::MutationResult> CleanDB::UpdateRowsWith(const std::string& table,
                                                        const RowEditor& editor) {
  return MutateTable(table, [&editor](Dataset* t, TableDelta* delta) {
    const Schema& schema = t->schema();
    const size_t width = schema.fields().size();
    std::vector<Row>& rows = t->mutable_rows();
    // The editor works on scratch copies; rows it changed are written back
    // only after it has seen every row.
    std::vector<std::pair<size_t, Row>> edits;
    Row edited;
    for (size_t i = 0; i < rows.size(); i++) {
      edited = rows[i];
      if (!editor(schema, &edited)) continue;
      if (edited.size() != width) {
        return Status::InvalidArgument("row editor changed the row width");
      }
      bool changed = false;
      for (size_t c = 0; c < width && !changed; c++) {
        changed = !edited[c].Equals(rows[i][c]);
      }
      if (changed) edits.emplace_back(i, std::move(edited));
    }
    for (auto& [i, row] : edits) {
      delta->removed.push_back(std::move(rows[i]));
      rows[i] = row;
      delta->added.push_back(std::move(row));
    }
    return Status::OK();
  });
}

Result<CleanDB::MutationResult> CleanDB::DeleteRows(const std::string& table,
                                                    const RowMatcher& matcher) {
  return MutateTable(table, [&matcher](Dataset* t, TableDelta* delta) {
    std::vector<Row>& rows = t->mutable_rows();
    std::vector<size_t> matched;
    for (size_t i = 0; i < rows.size(); i++) {
      if (matcher(t->schema(), rows[i])) matched.push_back(i);
    }
    if (matched.empty()) return Status::OK();
    // Compact the survivors forward, keeping their order.
    size_t out = matched.front();
    for (size_t i = out, m = 0; i < rows.size(); i++) {
      if (m < matched.size() && matched[m] == i) {
        delta->removed.push_back(std::move(rows[i]));
        m++;
      } else {
        rows[out++] = std::move(rows[i]);
      }
    }
    rows.resize(out);
    return Status::OK();
  });
}

Result<std::shared_ptr<const Dataset>> CleanDB::GetTableShared(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end() || !it->second.current) {
    return Status::KeyError("unknown table '" + name + "'");
  }
  return Lease(it->second.current);
}

CleanDB::TableSnapshot CleanDB::SnapshotTables() const {
  TableSnapshot snapshot;
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  snapshot.leases.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    if (!entry.current) continue;
    snapshot.catalog.tables.emplace_hint(
        snapshot.catalog.tables.end(), name,
        CatalogTable{&entry.current->data, entry.generation, entry.epoch.get()});
    snapshot.leases.emplace_back(Lease(entry.current), entry.epoch);
  }
  snapshot.catalog.functions = &functions_;
  return snapshot;
}

uint64_t CleanDB::AdmitExecution(uint64_t estimated_bytes) {
  const uint64_t budget = options_.max_inflight_bytes;
  if (budget == 0) return 0;
  std::unique_lock<std::mutex> lock(admission_mu_);
  // FIFO fairness: tickets serve strictly in arrival order, so a stream of
  // small queries can never starve a large one already waiting.
  const uint64_t ticket = admission_next_ticket_++;
  admission_cv_.wait(lock, [&] {
    if (ticket != admission_serve_ticket_) return false;
    return admission_inflight_bytes_ + estimated_bytes <= budget ||
           admission_inflight_count_ == 0;  // oversized: admitted alone
  });
  admission_serve_ticket_++;
  admission_inflight_bytes_ += estimated_bytes;
  admission_inflight_count_++;
  lock.unlock();
  // Wake the next ticket: it may also fit within the remaining budget.
  admission_cv_.notify_all();
  return estimated_bytes;
}

void CleanDB::ReleaseExecution(uint64_t charged_bytes) {
  if (options_.max_inflight_bytes == 0) return;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    admission_inflight_bytes_ -= charged_bytes;
    admission_inflight_count_--;
  }
  admission_cv_.notify_all();
}

std::vector<std::string> CleanDB::SampleCenters(FilteringAlgo op,
                                                const std::string& table,
                                                const std::string& column) const {
  if (op != FilteringAlgo::kKMeans) return {};
  auto t = GetTableShared(table);
  if (!t.ok()) return {};
  const Dataset& dataset = *t.value();  // lease: safe across re-registration
  auto idx = dataset.schema().IndexOf(column);
  if (!idx.ok()) return {};
  std::vector<std::string> values;
  values.reserve(dataset.num_rows());
  for (const auto& row : dataset.rows()) {
    const Value& v = row[idx.value()];
    if (v.type() == ValueType::kString) values.push_back(v.AsString());
  }
  return ReservoirSample(values, options_.filtering.k, options_.filtering.seed);
}

Status CleanDB::RunOnce(PreparedQuery pq, ViolationSink& sink, QueryResult* summary) {
  // One code path, not two: the transient plan runs through ExecutePrepared
  // (snapshot, admission, metrics scope, out-of-core wiring, sink emission).
  // Cache persistence is off because the plan's nodes are never seen again,
  // and with it the delta path.
  pq.persist_cache_ = false;
  return ExecutePrepared(pq, ExecOptions{}, sink, summary);
}

Result<OpResult> CleanDB::RunProgrammaticOp(PreparedQuery pq) {
  QueryResultSink sink;
  CLEANM_RETURN_NOT_OK(RunOnce(std::move(pq), sink, &sink.result()));
  if (sink.result().ops.empty()) {
    return Status::Internal("programmatic op produced no operation result");
  }
  return std::move(sink.result().ops.front());
}

Result<QueryResult> CleanDB::Execute(const std::string& query_text) {
  CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, Prepare(query_text));
  pq.persist_cache_ = false;  // one-shot: the plans die with this call
  return pq.Execute();
}

Result<QueryResult> CleanDB::ExecuteQuery(const CleanMQuery& query) {
  CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQuery(query));
  pq.persist_cache_ = false;  // one-shot: the plans die with this call
  return pq.Execute();
}

Result<OpResult> CleanDB::CheckFd(const std::string& table, const std::string& var,
                                  const FdClause& fd) {
  CleanMQuery query;
  query.from.push_back({table, var});
  query.fds.push_back(fd);
  CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQueryImpl(query, nullptr));
  return RunProgrammaticOp(std::move(pq));
}

Result<OpResult> CleanDB::CheckDenialConstraint(const std::string& table, ExprPtr pred,
                                                ExprPtr prefilter) {
  CLEANM_ASSIGN_OR_RETURN(
      PreparedQuery pq,
      PrepareDenialConstraint(table, std::move(pred), std::move(prefilter)));
  return RunProgrammaticOp(std::move(pq));
}

Result<OpResult> CleanDB::Deduplicate(const std::string& table, const std::string& var,
                                      const DedupClause& dedup) {
  CleanMQuery query;
  query.from.push_back({table, var});
  query.dedups.push_back(dedup);
  CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQueryImpl(query, nullptr));
  return RunProgrammaticOp(std::move(pq));
}

Result<OpResult> CleanDB::ValidateTerms(const std::string& data_table,
                                        const std::string& data_var,
                                        const std::string& dict_table,
                                        const std::string& dict_attr,
                                        const ClusterByClause& cb) {
  if (!cb.term || cb.term->kind != ExprKind::kField) {
    return Status::InvalidArgument("term must be a column reference");
  }
  // An unknown column is kKeyError here, as at Prepare; the engine itself
  // would read it as null and report nothing.
  for (const auto& [table, column] : {std::pair{data_table, cb.term->name},
                                      std::pair{dict_table, dict_attr}}) {
    CLEANM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> t, GetTableShared(table));
    CLEANM_RETURN_NOT_OK(t->schema().IndexOf(column).status());
  }
  CLEANM_ASSIGN_OR_RETURN(
      CleaningPlan cp,
      BuildTermValidationPlan(data_table, data_var, dict_table, "d", dict_attr, cb,
                              options_.filtering,
                              SampleCenters(cb.op, dict_table, dict_attr)));
  return RunProgrammaticOp(SingleOpQuery(std::move(cp)));
}

Result<Dataset> CleanDB::Transform(const std::string& table, const TransformSpec& spec) {
  CLEANM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> input, GetTableShared(table));
  Schema schema = input->schema();
  for (const std::string* column : {&spec.fill_missing_column, &spec.split_date_column}) {
    if (!column->empty()) CLEANM_RETURN_NOT_OK(schema.IndexOf(*column).status());
  }
  // Each query runs once and streams its output records, fields in SELECT
  // order, into the rows of a Dataset.
  auto run = [this](const CleanMQuery& query, Schema out_schema) -> Result<Dataset> {
    CLEANM_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQueryImpl(query, nullptr));
    DatasetSink sink(std::move(out_schema));
    CLEANM_RETURN_NOT_OK(RunOnce(std::move(pq), sink));
    return sink.TakeDataset();
  };
  // Both queries bind the table as `t`, so the second one reads the first
  // one's wrapped scan from the cache: the table is partitioned once.
  CleanMQuery query;
  query.from.push_back({table, "t"});
  auto column = [](const std::string& name) { return FieldAccess(Var("t"), name); };

  Value fill(0.0);  // the fill value of an empty or all-null column
  if (!spec.fill_missing_column.empty()) {
    CleanMQuery average = query;
    average.select_list.push_back(
        {false, Call("avg", {column(spec.fill_missing_column)}), "avg"});
    average.group_by.push_back(ConstInt(0));  // one group: the whole table
    CLEANM_ASSIGN_OR_RETURN(Dataset avg,
                            run(average, Schema{{"avg", ValueType::kDouble}}));
    if (avg.num_rows() == 1 && !avg.row(0)[0].is_null()) fill = avg.row(0)[0];
  }
  for (const Field& field : schema.fields()) {
    ExprPtr e = column(field.name);
    if (field.name == spec.fill_missing_column) {
      e = If(Call("is_null", {e}), Const(fill), e);
    }
    query.select_list.push_back({false, std::move(e), field.name});
  }
  if (!spec.split_date_column.empty()) {
    for (const char* part : {"year", "month", "day"}) {
      const std::string name = spec.split_date_column + "_" + part;
      query.select_list.push_back({false, Call(part, {column(spec.split_date_column)}), name});
      schema.AddField({name, ValueType::kInt});
    }
  }
  return run(query, std::move(schema));
}

std::string CleanDB::ExportMetricsText() const {
  // Prometheus text exposition format over the session-cumulative counters.
  // Generated from CLEANM_METRICS_FIELDS: Add-fold fields are counters
  // (suffix _total per convention), Max-fold fields are gauges.
  const MetricsCounters c = cluster_->session_metrics().Snapshot();
  std::string out;
  auto emit = [&out](const char* name, const char* fold, uint64_t value) {
    const bool is_counter = std::strcmp(fold, "Add") == 0;
    const std::string metric =
        std::string("cleandb_") + name + (is_counter ? "_total" : "");
    out += "# TYPE " + metric + (is_counter ? " counter\n" : " gauge\n");
    out += metric + ' ' + std::to_string(value) + '\n';
  };
#define CLEANM_X(name, fold) emit(#name, #fold, c.name);
  CLEANM_METRICS_FIELDS(CLEANM_X)
#undef CLEANM_X
  emit("bytes_materialized_now", "Max",
       cluster_->session_metrics().bytes_materialized_now.load());
  return out;
}

}  // namespace cleanm
