#include "baselines/baselines.h"

namespace cleanm {

namespace {

CleanDBOptions SparkSqlOptions(CleanDBOptions base) {
  base.physical.aggregate_strategy = engine::AggregateStrategy::kSortShuffle;
  base.physical.theta_algo = engine::ThetaJoinAlgo::kCartesian;
  base.unify_operations = false;  // Catalyst sees each operation separately
  return base;
}

CleanDBOptions BigDansingOptions(CleanDBOptions base) {
  base.physical.aggregate_strategy = engine::AggregateStrategy::kHashShuffle;
  base.physical.theta_algo = engine::ThetaJoinAlgo::kMinMax;
  base.unify_operations = false;  // one rule per job
  return base;
}

bool ContainsCall(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == ExprKind::kCall) return true;
  if (ContainsCall(e->child) || ContainsCall(e->lhs) || ContainsCall(e->rhs) ||
      ContainsCall(e->cond) || ContainsCall(e->then_e) || ContainsCall(e->else_e)) {
    return true;
  }
  for (const auto& a : e->args) {
    if (ContainsCall(a)) return true;
  }
  for (const auto& v : e->field_values) {
    if (ContainsCall(v)) return true;
  }
  return false;
}

}  // namespace

SparkSqlSim::SparkSqlSim(CleanDBOptions base) : db_(SparkSqlOptions(std::move(base))) {}

Result<OpResult> SparkSqlSim::CheckDenialConstraint(const std::string& table,
                                                    ExprPtr pred, ExprPtr prefilter,
                                                    uint64_t max_comparisons) {
  // Spark SQL evaluates the inequality join as a cartesian product; above
  // the comparison budget the job would not terminate in useful time, which
  // the benchmark reports instead of hanging.
  CLEANM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> t, db_.GetTableShared(table));
  uint64_t left_rows = t->num_rows();
  if (prefilter) {
    // Conservative estimate: count the prefiltered side exactly.
    Catalog catalog{{{table, t.get()}}};
    auto filtered = EvalPlanTuples(SelectOp(Scan(table, "t1"), prefilter), catalog);
    if (filtered.ok()) left_rows = filtered.value().size();
  }
  const uint64_t total = left_rows * t->num_rows();
  if (total > max_comparisons) {
    return Status::Internal("did not terminate: cartesian plan needs " +
                            std::to_string(total) + " comparisons (budget " +
                            std::to_string(max_comparisons) + ")");
  }
  return db_.CheckDenialConstraint(table, std::move(pred), std::move(prefilter));
}

Result<QueryResult> SparkSqlSim::ExecuteQuery(const CleanMQuery& query) {
  Timer timer;
  CLEANM_ASSIGN_OR_RETURN(QueryResult result, db_.ExecuteQuery(query));
  // The combination pass Catalyst generates: a full outer join over the
  // violation sets of all operations — one extra shuffle of every
  // violation set by entity hash. It is metered under its own scope and
  // added to this execution's counters (and to the session totals).
  auto& cluster = db_.cluster();
  QueryMetrics combination;
  {
    engine::MetricsScope scope(&combination);
    for (const auto& op : result.ops) {
      std::vector<Row> rows;
      rows.reserve(op.violations.size());
      for (const auto& v : op.violations) rows.push_back(Row{v});
      auto data = cluster.Parallelize(rows);
      (void)cluster.Shuffle(data, [](const Row& r) { return r[0].Hash(); });
    }
  }
  cluster.session_metrics().Accumulate(combination.Snapshot());
  combination.Accumulate(result.metrics);
  result.metrics = combination.Snapshot();
  result.total_seconds = timer.ElapsedSeconds();
  return result;
}

BigDansingSim::BigDansingSim(CleanDBOptions base)
    : db_(BigDansingOptions(std::move(base))) {}

Result<OpResult> BigDansingSim::CheckFd(const std::string& table,
                                        const std::string& var, const FdClause& fd) {
  for (const auto& e : fd.lhs) {
    if (ContainsCall(e)) {
      return Status::NotImplemented(
          "BigDansing rules cannot reference computed attributes (" +
          e->ToString() + ")");
    }
  }
  for (const auto& e : fd.rhs) {
    if (ContainsCall(e)) {
      return Status::NotImplemented(
          "BigDansing rules cannot reference computed attributes (" +
          e->ToString() + ")");
    }
  }
  return db_.CheckFd(table, var, fd);
}

}  // namespace cleanm
