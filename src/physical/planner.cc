#include "physical/planner.h"

#include <numeric>

#include "functions/function_registry.h"
#include "monoid/monoid.h"
#include "physical/tuple.h"
#include "storage/pagestore/spill.h"

namespace cleanm {

namespace {

using engine::Partition;
using engine::Partitioned;

}  // namespace

void CollectScanDeps(const AlgOpPtr& plan, const Catalog& catalog,
                     std::vector<std::pair<std::string, uint64_t>>* deps) {
  if (!plan) return;
  if (plan->kind == AlgKind::kScan) {
    for (const auto& dep : *deps) {
      if (dep.first == plan->table) return;
    }
    deps->emplace_back(plan->table, catalog.GenerationOf(plan->table));
    return;
  }
  CollectScanDeps(plan->input, catalog, deps);
  CollectScanDeps(plan->right, catalog, deps);
}

Result<PartitionPin> Executor::WrappedScan(const AlgOp& scan) {
  const uint64_t generation = catalog->GenerationOf(scan.table);
  if (PartitionPin wrapped = cache->FindWrap(scan.table, scan.var, generation)) {
    cache->CountScanHit();
    return wrapped;
  }

  // Records and their {var: record} wraps are built, and sized, on the
  // nodes that will hold them.
  const size_t nodes = cluster->num_nodes();
  Partitioned records(nodes);
  Partitioned wrapped(nodes);
  std::vector<uint64_t> record_bytes(nodes, 0);
  std::vector<uint64_t> wrap_bytes(nodes, 0);
  const std::string& var = scan.var;
  auto wrap = [&var](const Value& record, Partition* out) {
    out->push_back(MakePhysicalTuple(Value(ValueStruct{{var, record}})));
    return RowByteSize(out->back());
  };
  // The pin keeps a cached base alive while it is wrapped, even if a
  // concurrent execution evicts it from the cache.
  if (PartitionPin base = cache->FindScan(scan.table, generation)) {
    cache->CountScanHit();
    cluster->RunOnNodes([&](size_t n) {
      uint64_t bytes = 0;
      wrapped[n].reserve((*base)[n].size());
      for (const auto& row : (*base)[n]) {
        bytes += wrap(PhysicalTupleOf(row), &wrapped[n]);
      }
      wrap_bytes[n] = bytes;
    });
  } else {
    CLEANM_ASSIGN_OR_RETURN(const Dataset* table, catalog->Find(scan.table));
    cluster->ParallelizeOnNodes(
        table->num_rows(), [&](size_t n, const std::vector<size_t>& placed) {
          uint64_t bytes = 0;
          uint64_t wrap_total = 0;
          records[n].reserve(placed.size());
          wrapped[n].reserve(placed.size());
          for (size_t i : placed) {
            records[n].push_back(
                MakePhysicalTuple(RowToRecord(table->schema(), table->row(i))));
            bytes += RowByteSize(records[n].back());
            wrap_total += wrap(PhysicalTupleOf(records[n].back()), &wrapped[n]);
          }
          record_bytes[n] = bytes;
          wrap_bytes[n] = wrap_total;
        });
    cache->CountScanMiss();
    const uint64_t record_total =
        std::accumulate(record_bytes.begin(), record_bytes.end(), uint64_t{0});
    cache->PutScan(scan.table, generation, std::move(records), record_total);
  }
  const uint64_t wrap_total =
      std::accumulate(wrap_bytes.begin(), wrap_bytes.end(), uint64_t{0});
  return cache->PutWrap(scan.table, scan.var, generation, std::move(wrapped), wrap_total);
}

Result<engine::Partitioned> Executor::ExecJoin(const AlgOpPtr& plan,
                                               const engine::Partitioned& left,
                                               const engine::Partitioned& right) {
  const TupleLayout left_layout = CollectVars(plan->input);
  const TupleLayout right_layout = CollectVars(plan->right);
  TupleLayout both = left_layout;
  both.insert(both.end(), right_layout.begin(), right_layout.end());

  auto emit = [](const Row& l, const Row& r) {
    return MakePhysicalTuple(MergePhysicalTuples(PhysicalTupleOf(l), PhysicalTupleOf(r)));
  };

  if (plan->left_key) {
    CLEANM_ASSIGN_OR_RETURN(CompiledExpr lk, CompileExpr(plan->left_key, left_layout, Env()));
    CLEANM_ASSIGN_OR_RETURN(CompiledExpr rk,
                            CompileExpr(plan->right_key, right_layout, Env()));
    auto lkey = [lk](const Row& r) { return lk(PhysicalTupleOf(r)); };
    auto rkey = [rk](const Row& r) { return rk(PhysicalTupleOf(r)); };
    std::function<bool(const Value&)> residual;
    if (plan->pred) {
      CLEANM_ASSIGN_OR_RETURN(residual, CompilePredicate(plan->pred, both, Env()));
    }
    Partitioned joined;
    if (plan->kind == AlgKind::kOuterJoin) {
      const TupleLayout right_vars = right_layout;
      joined = engine::HashLeftOuterJoin(
          *cluster, left, right, lkey, rkey, emit,
          [right_vars](const Row& l) {
            ValueStruct padded = PhysicalTupleOf(l).AsStruct();
            for (const auto& v : right_vars) padded.emplace_back(v, Value::Null());
            return MakePhysicalTuple(Value(std::move(padded)));
          },
          spill);
    } else {
      joined = engine::HashEquiJoin(*cluster, left, right, lkey, rkey, emit, spill);
    }
    if (residual) {
      joined = cluster->Filter(
          joined, [residual](const Row& r) { return residual(PhysicalTupleOf(r)); });
    }
    return joined;
  }

  // Theta join (or cross product when pred is null).
  if (plan->kind == AlgKind::kOuterJoin) {
    return Status::NotImplemented("outer theta joins are not supported");
  }
  std::function<bool(const Row&, const Row&)> pred;
  if (plan->pred) {
    CLEANM_ASSIGN_OR_RETURN(auto compiled, CompilePredicate(plan->pred, both, Env()));
    pred = [compiled](const Row& l, const Row& r) {
      return compiled(MergePhysicalTuples(PhysicalTupleOf(l), PhysicalTupleOf(r)));
    };
  } else {
    pred = [](const Row&, const Row&) { return true; };
  }
  engine::ThetaJoinOptions theta;
  theta.algo = options.theta_algo;
  return engine::ThetaJoin(*cluster, left, right, pred, emit, theta);
}

Result<Executor::CompiledNest> Executor::CompileNestStage(const AlgOpPtr& plan) {
  const TupleLayout layout = CollectVars(plan->input);

  // Keyed expansion: each input tuple becomes (key, tuple) pairs. Exact
  // grouping emits one pair; token filtering and k-means emit one per
  // FilterKeys key (none for a non-string term).
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr term, CompileExpr(plan->group.term, layout, Env()));
  const GroupSpec group = plan->group;
  if (group.algo == FilteringAlgo::kKMeans && group.centers.empty()) {
    return Status::InvalidArgument("k-means Nest executed without sampled centers");
  }
  CompiledNest compiled;
  compiled.expand = [term, group](const Value& tuple, Partition* out) {
    Value t = term(tuple);
    if (group.algo == FilteringAlgo::kExactKey) {
      out->push_back(Row{std::move(t), tuple});
      return;
    }
    for (auto& key : FilterKeys(group.algo, t, group.q, group.delta, group.centers)) {
      out->push_back(Row{Value(std::move(key)), tuple});
    }
  };

  // Monoid aggregation spec. Aggregation names resolve against the session
  // registry first, so a registered (monoid-annotated) UDF aggregate
  // distributes exactly like a built-in: units fold locally, partial
  // accumulators merge across nodes, and its optional finalize maps each
  // group's merged accumulator to the reported value before `having` sees
  // it.
  std::vector<const Monoid*> monoids;
  std::vector<CompiledExpr> agg_exprs;
  std::vector<UserFn> finalizers(plan->aggs.size());
  size_t udf_aggs = 0;
  for (size_t a = 0; a < plan->aggs.size(); a++) {
    const NestAgg& agg = plan->aggs[a];
    const AggregateFunction* udf = nullptr;
    CLEANM_ASSIGN_OR_RETURN(const Monoid* m,
                            ResolveAggregateMonoid(functions, agg.monoid, &udf));
    monoids.push_back(m);
    if (udf) {
      finalizers[a] = udf->finalize;
      udf_aggs++;
    }
    CLEANM_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(agg.expr, layout, Env()));
    agg_exprs.push_back(std::move(c));
  }
  const std::string key_name = plan->key_name;
  const std::vector<NestAgg> aggs = plan->aggs;

  std::function<bool(const Value&)> having;
  if (plan->having) {
    TupleLayout out_layout{key_name};
    for (const auto& agg : aggs) out_layout.push_back(agg.name);
    CLEANM_ASSIGN_OR_RETURN(having, CompilePredicate(plan->having, out_layout, Env()));
  }

  engine::AggregateSpec spec;
  spec.key = [](const Row& r) { return r[0]; };
  spec.init = [monoids, agg_exprs](const Row& r) {
    ValueList accs;
    accs.reserve(monoids.size());
    for (size_t a = 0; a < monoids.size(); a++) {
      accs.push_back(monoids[a]->Unit(agg_exprs[a](r[1])));
    }
    return Value(std::move(accs));
  };
  spec.merge = [monoids](Value a, const Value& b) {
    auto& accs = a.MutableList();
    const auto& other = b.AsList();
    for (size_t i = 0; i < accs.size(); i++) {
      accs[i] = monoids[i]->Merge(std::move(accs[i]), other[i]);
    }
    return a;
  };
  spec.finalize = [key_name, aggs, having, finalizers](const Value& key,
                                                       const Value& acc,
                                                       Partition* out) {
    ValueStruct tuple;
    tuple.emplace_back(key_name, key);
    const auto& accs = acc.AsList();
    for (size_t a = 0; a < aggs.size(); a++) {
      if (finalizers[a]) {
        // UDF finalize errors null-propagate (engine convention for
        // per-row/-group data errors).
        auto finalized = finalizers[a]({accs[a]});
        tuple.emplace_back(aggs[a].name,
                           finalized.ok() ? finalized.MoveValue() : Value::Null());
        continue;
      }
      tuple.emplace_back(aggs[a].name, accs[a]);
    }
    Value result(std::move(tuple));
    if (having && !having(result)) return;
    out->push_back(MakePhysicalTuple(std::move(result)));
  };
  compiled.spec = std::move(spec);
  compiled.udf_units = udf_aggs;
  return compiled;
}

}  // namespace cleanm
