#include "physical/planner.h"

#include <algorithm>

#include "functions/function_registry.h"
#include "monoid/monoid.h"
#include "physical/tuple.h"
#include "storage/delta.h"
#include "storage/pagestore/paged_table.h"
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
  const size_t nodes = cluster->num_nodes();
  if (PartitionPin wrapped =
          cache->FindWrap(scan.table, scan.var, generation, nodes)) {
    cache->CountScanHit();
    return wrapped;
  }

  PartitionPin base = cache->FindScan(scan.table, generation, nodes);
  if (base) {
    cache->CountScanHit();
  } else if (delta_scan) {
    // Delta-extended rebuild: a cached partitioning of an earlier
    // generation of this table can be patched forward through the
    // mutation delta log — each removed row erased in place (one
    // Equals-matching physical row), added rows appended round-robin —
    // instead of re-partitioning the whole dataset. Only mutation (minor)
    // generations are bridgeable: the probe reaches back at most MinorOf
    // generations, and Collect refuses windows that cross a registration.
    // Any inconsistency (a removed row the cached partitioning does not
    // hold) abandons the patch and falls through to the full build.
    const uint64_t minor = catalog->MinorOf(scan.table);
    const DeltaLog* log = minor > 0 ? catalog->FindDelta(scan.table) : nullptr;
    const auto table_r = log ? catalog->Find(scan.table) : Result<const Dataset*>(nullptr);
    if (log && table_r.ok() && table_r.value() != nullptr) {
      const Schema& schema = table_r.value()->schema();
      const uint64_t reach = std::min<uint64_t>(minor, generation > 0 ? generation - 1 : 0);
      for (uint64_t k = 1; k <= reach && !base; k++) {
        PartitionPin prior = cache->FindScan(scan.table, generation - k, nodes);
        if (!prior) continue;
        std::vector<Row> added, removed;
        if (!log->Collect(generation - k, generation, &added, &removed)) break;
        Partitioned patched = *prior;
        if (patched.empty()) break;
        bool consistent = true;
        for (const Row& gone : removed) {
          const Value image = RowToRecord(schema, gone);
          bool erased = false;
          for (auto& part : patched) {
            for (size_t i = 0; i < part.size(); i++) {
              if (PhysicalTupleOf(part[i]).Equals(image)) {
                part.erase(part.begin() + static_cast<ptrdiff_t>(i));
                erased = true;
                break;
              }
            }
            if (erased) break;
          }
          if (!erased) {
            consistent = false;
            break;
          }
        }
        if (!consistent) break;
        for (size_t i = 0; i < added.size(); i++) {
          patched[i % patched.size()].push_back(
              MakePhysicalTuple(RowToRecord(schema, added[i])));
        }
        cluster->metrics().delta_rows_processed += added.size() + removed.size();
        cache->CountScanHit();
        base = cache->PutScan(scan.table, generation, nodes, std::move(patched));
      }
    }
  }
  if (!base) {
    std::vector<Row> rows;
    // Page-backed scan: stream chunks through the pool instead of walking
    // the resident Dataset. Both paths build the identical row vector and
    // hand it to the same Parallelize, so the partition layout (and hence
    // every downstream result) is bit-identical.
    const PagedTable* paged = pool ? catalog->FindPaged(scan.table) : nullptr;
    if (paged) {
      rows.reserve(paged->num_rows());
      const Schema& schema = paged->schema();
      Status st = paged->ScanRows(pool, [&](Row&& row) {
        rows.push_back(MakePhysicalTuple(RowToRecord(schema, row)));
      });
      CLEANM_RETURN_NOT_OK(st);
    } else {
      CLEANM_ASSIGN_OR_RETURN(const Dataset* table, catalog->Find(scan.table));
      rows.reserve(table->num_rows());
      for (const auto& row : table->rows()) {
        rows.push_back(MakePhysicalTuple(RowToRecord(table->schema(), row)));
      }
    }
    Partitioned scanned = cluster->Parallelize(rows);
    cache->CountScanMiss();
    base = cache->PutScan(scan.table, generation, nodes, std::move(scanned));
  }
  // Wrap each record into the {var: record} tuple. The pin keeps `base`
  // alive even if PutWrap (or a concurrent execution) evicts it from the
  // cache under the byte budget.
  const std::string var = scan.var;
  Partitioned wrapped = cluster->Map(*base, [var](const Row& r) {
    return MakePhysicalTuple(Value(ValueStruct{{var, PhysicalTupleOf(r)}}));
  });
  return cache->PutWrap(scan.table, scan.var, generation, nodes, std::move(wrapped));
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
  // grouping emits one pair; grouping monoids may emit several.
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr term, CompileExpr(plan->group.term, layout, Env()));
  const GroupSpec group = plan->group;
  if (group.algo == FilteringAlgo::kKMeans && group.centers.empty()) {
    return Status::InvalidArgument("k-means Nest executed without sampled centers");
  }
  CompiledNest compiled;
  compiled.expand = [term, group](const Value& tuple, Partition* out) {
    const Value t = term(tuple);
    switch (group.algo) {
      case FilteringAlgo::kExactKey:
        out->push_back(Row{t, tuple});
        return;
      case FilteringAlgo::kTokenFiltering: {
        if (t.type() != ValueType::kString) return;  // dirty value: skip
        auto grams = QGrams(t.AsString(), group.q);
        std::sort(grams.begin(), grams.end());
        grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
        for (auto& g : grams) {
          out->push_back(Row{Value(std::move(g)), tuple});
        }
        return;
      }
      case FilteringAlgo::kKMeans: {
        if (t.type() != ValueType::kString) return;
        SinglePassKMeans km(group.centers.size(), group.delta, 0);
        for (const auto& a : km.Assign({t.AsString()}, group.centers)) {
          out->push_back(Row{Value(a.key), tuple});
        }
        return;
      }
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
  QueryMetrics* metrics = &cluster->metrics();
  spec.init = [monoids, agg_exprs, metrics, udf_aggs](const Row& r) {
    ValueList accs;
    accs.reserve(monoids.size());
    for (size_t a = 0; a < monoids.size(); a++) {
      accs.push_back(monoids[a]->Unit(agg_exprs[a](r[1])));
    }
    if (udf_aggs) metrics->udf_calls += udf_aggs;
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
  return compiled;
}

}  // namespace cleanm
