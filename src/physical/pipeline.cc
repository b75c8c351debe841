// Pipelined (morsel-driven) execution of physical plans.
//
//   MorselSource → Transform* → SinkDriver
//
// A plan decomposes from the root downward: Select / Unnest stages compose
// into one per-row expansion (no intermediate buffers at all), and the walk
// stops at a pipeline *breaker* — Scan (resident in the session cache),
// Nest (aggregation; consumes its own input morsel-wise via
// engine::MorselAggregator, so even the keyed expansion never
// materializes), Join (shuffle-backed; its inputs and output materialize as
// breaker state, but stream onward). Morsels of ExecOptions::morsel_rows
// rows then flow across the persistent WorkerPool to the consumer
// (engine::Cluster::PumpToDriver / PumpOnWorkers). Peak memory therefore
// tracks breaker state and in-flight morsels, not the largest intermediate
// (for cleaning plans, the keyed Nest expansion or an Unnest pair blow-up).
//
// Equivalence contract (CI-gated): per-node row order, per-node fold order,
// and node-major delivery do not depend on the morsel size, so violation
// sets are bit-identical across ExecOptions::morsel_rows; the reference
// evaluator (algebra/algebra_eval.h) is the oracle the results are checked
// against.
#include <atomic>
#include <numeric>

#include "algebra/algebra_eval.h"
#include "common/trace.h"
#include "engine/aggregate.h"
#include "functions/function_registry.h"
#include "monoid/monoid.h"
#include "physical/planner.h"
#include "physical/tuple.h"

namespace cleanm {

namespace {

using engine::Partition;
using engine::Partitioned;

using engine::PartitionedLogicalBytes;

/// Continuation consuming one tuple of a transform stage.
using TupleCont = Executor::TupleSink;

/// One Unnest stage: pads each collection element onto the tuple (a null or
/// empty collection drops the tuple, or pads Null under OuterUnnest; a
/// scalar is a singleton). The padded tuple is built once per input row,
/// with room for the extra slot, and its last slot is overwritten in place
/// for each element. With `pred` set, the stage is a Select fused into the
/// Unnest below it: each element is tested on that one padded tuple, and
/// only passing tuples are copied downstream. The tests count in
/// `comparisons`, added once per input row.
TupleCont UnnestStage(CompiledExpr path, std::string var, bool outer,
                      std::function<bool(const Value&)> pred, TupleCont inner,
                      QueryMetrics* metrics) {
  return [path, var, outer, pred, inner, metrics](Value t, Partition* out) {
    const Value coll = path(t);
    const bool empty = coll.is_null() ||
                       (coll.type() == ValueType::kList && coll.AsList().empty());
    if (empty && !outer) return;
    const ValueStruct& fields = t.AsStruct();
    ValueStruct padded;
    padded.reserve(fields.size() + 1);
    padded.insert(padded.end(), fields.begin(), fields.end());
    padded.emplace_back(var, Value());
    Value scratch(std::move(padded));
    Value& slot = scratch.MutableStruct().back().second;
    uint64_t tests = 0;
    auto emit = [&](const Value& element, bool last) {
      slot = element;
      if (pred) {
        tests++;
        if (!pred(scratch)) return;
      }
      // Downstream gets its own tuple: the scratch is overwritten by the
      // next element, so only the last one may hand it over.
      if (last) {
        inner(std::move(scratch), out);
      } else {
        inner(Value(ValueStruct(scratch.AsStruct())), out);
      }
    };
    if (empty) {
      emit(Value::Null(), true);
    } else if (coll.type() != ValueType::kList) {
      emit(coll, true);  // scalar behaves as singleton (XML-style nesting)
    } else {
      const ValueList& elements = coll.AsList();
      for (size_t i = 0; i < elements.size(); i++) {
        emit(elements[i], i + 1 == elements.size());
      }
    }
    if (metrics != nullptr && tests > 0) metrics->comparisons += tests;
  };
}

bool IsTransform(AlgKind kind) {
  return kind == AlgKind::kSelect || kind == AlgKind::kUnnest ||
         kind == AlgKind::kOuterUnnest;
}

/// Wraps a segment's per-row expansion with the poison-row quarantine: a
/// row whose compiled expression or UDF throws is recorded (source label,
/// node, row ordinal, error) and *skipped*; past the sink's cap the error
/// aborts the execution. Expansion goes through a scratch buffer so a row
/// that throws after a partial expansion leaves no output behind.
engine::MorselExpand WithQuarantine(engine::MorselExpand inner,
                                    std::string source_label, size_t nodes,
                                    engine::QuarantineSink* sink) {
  // Row ordinals per node (the quarantine's "row id"): each producing
  // thread works one node's stream in order, so the relaxed counter is the
  // row's position within that node's source stream.
  auto ordinals = std::make_shared<std::vector<std::atomic<uint64_t>>>(nodes);
  return engine::MorselExpand([inner, source_label, ordinals, sink](
                                  size_t n, const Row& r, Partition* out) {
    const uint64_t ordinal =
        n < ordinals->size()
            ? (*ordinals)[n].fetch_add(1, std::memory_order_relaxed)
            : 0;
    thread_local Partition scratch;
    scratch.clear();
    try {
      inner(n, r, &scratch);
    } catch (const engine::StatusException&) {
      throw;  // cancellation / injected unavailability is not a poison row
    } catch (const std::exception& e) {
      engine::QuarantinedRow q;
      q.table = source_label;
      q.node = n;
      q.row = static_cast<size_t>(ordinal);
      q.error = e.what();
      Status st = sink->Record(std::move(q));
      if (!st.ok()) throw engine::StatusException(std::move(st));
      if (QueryMetrics* m = engine::MetricsScope::Current()) {
        m->rows_quarantined += 1;
      }
      return;
    }
    for (auto& row : scratch) out->push_back(std::move(row));
  });
}

/// The quarantine's source label for a segment rooted at `source`.
std::string SegmentSourceLabel(const AlgOp& source) {
  switch (source.kind) {
    case AlgKind::kScan: return source.table;
    case AlgKind::kNest: return "nest";
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: return "join";
    default: return "plan";
  }
}

/// Source label for a plan that feeds a Nest: the breaker beneath its
/// transform chain.
std::string SourceLabelOf(const AlgOpPtr& plan) {
  const AlgOp* cur = plan.get();
  while (cur != nullptr && IsTransform(cur->kind)) cur = cur->input.get();
  return cur != nullptr ? SegmentSourceLabel(*cur) : "plan";
}

/// The Nest-fold half of the quarantine: expressions compiled into the
/// aggregation (FD right-hand sides, registered aggregate units) run
/// inside AggregateSpec::init, past the segment's wrapped expand — the
/// hook catches those throws, records the row, and lets the fold skip it.
void InstallNestQuarantine(engine::AggregateSpec* spec, std::string source_label,
                           engine::QuarantineSink* sink) {
  spec->on_row_error = [source_label, sink](size_t node, size_t ordinal,
                                            const Row&, const std::exception& e) {
    engine::QuarantinedRow q;
    q.table = source_label;
    q.node = node;
    q.row = ordinal;
    q.error = e.what();
    CLEANM_RETURN_NOT_OK(sink->Record(std::move(q)));
    if (QueryMetrics* m = engine::MetricsScope::Current()) {
      m->rows_quarantined += 1;
    }
    return Status::OK();
  };
}

/// Resolves a join input: when the sub-plan is a bare breaker/scan the
/// resident partitioning is borrowed outright; otherwise its transform
/// chain streams morsel-wise into an owned buffer (still no per-operator
/// intermediates below the join).
Result<Executor::PipelineSegment> CollectInput(Executor* ex, const AlgOpPtr& plan,
                                               size_t morsel_rows) {
  CLEANM_ASSIGN_OR_RETURN(Executor::PipelineSegment seg,
                          ex->BuildSegment(plan, morsel_rows));
  if (seg.identity) return seg;
  Executor::PipelineSegment out;
  out.owned.resize(ex->cluster->num_nodes());
  engine::MorselSpec spec;
  spec.morsel_rows = morsel_rows;
  ex->cluster->PumpOnWorkers(seg.data(), spec, seg.expand,
                             [&out](size_t n, Partition&& morsel) {
                               auto& dst = out.owned[n];
                               dst.insert(dst.end(),
                                          std::make_move_iterator(morsel.begin()),
                                          std::make_move_iterator(morsel.end()));
                             });
  out.owned_bytes = PartitionedLogicalBytes(out.owned);
  out.gauge = &ex->cluster->metrics();
  out.gauge->ChargeMaterialized(out.owned_bytes);
  out.identity = true;
  return out;
}

}  // namespace

const AlgOpPtr& PeelTransforms(const AlgOpPtr& plan, std::vector<const AlgOp*>* chain) {
  const AlgOpPtr* cur = &plan;
  while (IsTransform((*cur)->kind)) {
    chain->push_back(cur->get());
    cur = &(*cur)->input;
  }
  return *cur;
}

Result<engine::MorselExpand> CompileChain(const std::vector<const AlgOp*>& chain,
                                          const CompileEnv& env,
                                          Executor::TupleSink terminal) {
  // Data flows source → chain.back() → ... → chain.front() → terminal, so
  // the continuation is built from the top down.
  TupleCont k = std::move(terminal);
  if (!k) {
    k = [](Value t, Partition* out) {
      out->push_back(MakePhysicalTuple(std::move(t)));
    };
  }
  for (size_t i = 0; i < chain.size(); i++) {  // i = 0 is the root stage
    const AlgOp* op = chain[i];
    TupleCont inner = std::move(k);
    std::function<bool(const Value&)> pred;
    if (op->kind == AlgKind::kSelect) {
      CLEANM_ASSIGN_OR_RETURN(pred, CompilePredicate(op->pred, CollectVars(op->input), env));
      if (i + 1 == chain.size() || chain[i + 1]->kind == AlgKind::kSelect) {
        k = [pred, inner](Value t, Partition* out) {
          if (pred(t)) inner(std::move(t), out);
        };
        continue;
      }
      op = chain[++i];  // the Unnest the Select sits on
    }
    CLEANM_ASSIGN_OR_RETURN(CompiledExpr path,
                            CompileExpr(op->path, CollectVars(op->input), env));
    k = UnnestStage(std::move(path), op->path_var, op->kind == AlgKind::kOuterUnnest,
                    std::move(pred), std::move(inner), env.metrics);
  }
  TupleCont final_k = std::move(k);
  return engine::MorselExpand([final_k](size_t, const Row& r, Partition* out) {
    final_k(PhysicalTupleOf(r), out);
  });
}

Result<PartitionPin> Executor::PipelinedNest(const AlgOpPtr& plan,
                                             size_t morsel_rows) {
  // The breaker's operator span; cache hits record too (near-zero duration,
  // which is exactly what a profile should show for a shared Nest).
  TraceScope op_span("operator", AlgKindName(plan->kind), plan.get(), -1,
                     &cluster->metrics());
  // local_nests entries live exactly as long as this per-execution Executor,
  // which outlives every segment built from them — a non-owning alias pin
  // is safe and avoids copying the partitioning into shared storage.
  auto local_pin = [](const Partitioned& data) {
    return PartitionPin(PartitionPin{}, &data);
  };
  // Execution-local entries are checked first even when persisting: a nest
  // that quarantined poison rows during its build lands here instead of the
  // session cache (see below), and later consumers in this execution must
  // share it rather than rebuild.
  auto local = local_nests.find(plan.get());
  if (local != local_nests.end()) {
    op_span.SetRowsOut(engine::Cluster::TotalRows(local->second));
    return local_pin(local->second);
  }
  if (persist_nests) {
    const Catalog& cat = *catalog;
    if (PartitionPin cached = cache->FindNest(
            plan.get(),
            [&cat](const std::string& t) { return cat.GenerationOf(t); })) {
      op_span.SetRowsOut(engine::Cluster::TotalRows(*cached));
      return cached;
    }
  }

  CLEANM_ASSIGN_OR_RETURN(CompiledNest compiled, CompileNestStage(plan));
  if (quarantine != nullptr) {
    InstallNestQuarantine(&compiled.spec, SourceLabelOf(plan->input), quarantine);
  }
  // The breaker consumes its input morsel-wise: each worker expands its own
  // rows through the segment's transforms *fused with* the keyed expansion
  // (passed as the chain's terminal continuation, so no per-row
  // intermediate buffer exists), then folds the (key, tuple) pairs
  // straight into node-local aggregation state — the keyed expansion never
  // exists as a whole Partitioned.
  auto nest_expand = compiled.expand;
  CLEANM_ASSIGN_OR_RETURN(
      PipelineSegment seg,
      BuildSegment(plan->input, morsel_rows,
                   [nest_expand](Value t, Partition* out) {
                     nest_expand(t, out);
                   }));
  engine::MorselAggregator agg(*cluster, compiled.spec, options.aggregate_strategy,
                               spill);
  engine::MorselSpec spec;
  spec.morsel_rows = morsel_rows;
  const size_t quarantined_before = quarantine ? quarantine->size() : 0;
  std::vector<uint64_t> rows_folded(cluster->num_nodes(), 0);
  cluster->PumpOnWorkers(seg.data(), spec, seg.expand,
                         [&agg, &rows_folded](size_t n, Partition&& morsel) {
                           rows_folded[n] += morsel.size();
                           agg.Accumulate(n, std::move(morsel));
                         });
  seg.ReleaseNow();
  if (compiled.udf_units > 0) {
    cluster->metrics().udf_calls +=
        compiled.udf_units *
        std::accumulate(rows_folded.begin(), rows_folded.end(), uint64_t{0});
  }
  LoadReport load;
  uint64_t result_bytes = 0;
  Partitioned result = agg.Finish(&load, &result_bytes);
  if (op_span.active()) {
    // Routed (pre-aggregation) per-node distribution: the skew signal.
    op_span.SetNodeRows(std::move(load.rows_per_node));
    op_span.SetRowsOut(engine::Cluster::TotalRows(result));
  }

  // A Nest built while rows were being quarantined is missing those rows —
  // publishing it to the session cache would serve the incomplete
  // partitioning to later (possibly quarantine-free) executions. Keep it
  // execution-local instead; within-execution sharing still works.
  const bool poisoned =
      quarantine && quarantine->size() > quarantined_before;
  if (!persist_nests || poisoned) {
    auto placed = local_nests.emplace(plan.get(), std::move(result)).first;
    return local_pin(placed->second);
  }
  std::vector<std::pair<std::string, uint64_t>> deps;
  CollectScanDeps(plan, *catalog, &deps);
  return cache->PutNest(plan, std::move(deps), std::move(result), result_bytes);
}

Result<Executor::PipelineSegment> Executor::BuildSegment(const AlgOpPtr& plan,
                                                         size_t morsel_rows,
                                                         TupleSink terminal) {
  if (!plan) return Status::Internal("null physical plan");
  if (!cache) return Status::Internal("Executor has no partition cache");

  std::vector<const AlgOp*> chain;
  const AlgOpPtr& source = PeelTransforms(plan, &chain);

  PipelineSegment seg;
  switch (source->kind) {
    case AlgKind::kScan: {
      CLEANM_ASSIGN_OR_RETURN(seg.borrowed, WrappedScan(*source));
      break;
    }
    case AlgKind::kNest: {
      CLEANM_ASSIGN_OR_RETURN(seg.borrowed, PipelinedNest(source, morsel_rows));
      break;
    }
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: {
      TraceScope join_span("operator", AlgKindName(source->kind), source.get(),
                           -1, &cluster->metrics());
      CLEANM_ASSIGN_OR_RETURN(PipelineSegment left,
                              CollectInput(this, source->input, morsel_rows));
      // Resolving the right side may mutate the cache (its Nest build
      // Put-inserts, and an insert can LRU-evict the entry the left side
      // borrows under a byte budget) — the left segment's pin keeps the
      // borrowed partitioning alive through that, so no detach copy is
      // needed.
      CLEANM_ASSIGN_OR_RETURN(PipelineSegment right,
                              CollectInput(this, source->right, morsel_rows));
      CLEANM_ASSIGN_OR_RETURN(seg.owned, ExecJoin(source, left.data(), right.data()));
      seg.owned_bytes = PartitionedLogicalBytes(seg.owned);
      seg.gauge = &cluster->metrics();
      seg.gauge->ChargeMaterialized(seg.owned_bytes);
      if (join_span.active()) {
        join_span.SetRows(engine::Cluster::TotalRows(left.data()) +
                              engine::Cluster::TotalRows(right.data()),
                          engine::Cluster::TotalRows(seg.owned));
        std::vector<uint64_t> node_rows;
        node_rows.reserve(seg.owned.size());
        for (const auto& p : seg.owned) node_rows.push_back(p.size());
        join_span.SetNodeRows(std::move(node_rows));
      }
      break;
    }
    case AlgKind::kReduce:
      return Status::InvalidArgument("Reduce cannot feed a pipeline segment");
    default:
      return Status::Internal("unhandled pipeline source kind");
  }

  if (chain.empty() && !terminal) {
    // Identity passthrough cannot throw per-row — no quarantine wrap needed.
    seg.identity = true;
    seg.expand = [](size_t, const Row& r, Partition* out) { out->push_back(r); };
    return seg;
  }
  if (chain.empty()) {
    // Terminal only: apply the consumer's continuation to each source row.
    TupleSink sink = std::move(terminal);
    seg.expand = [sink](size_t, const Row& r, Partition* out) {
      sink(PhysicalTupleOf(r), out);
    };
  } else {
    CLEANM_ASSIGN_OR_RETURN(seg.expand, CompileChain(chain, Env(), std::move(terminal)));
  }
  if (quarantine) {
    seg.expand = WithQuarantine(std::move(seg.expand), SegmentSourceLabel(*source),
                                cluster->num_nodes(), quarantine);
  }
  return seg;
}

Status Executor::Run(
    const AlgOpPtr& plan, size_t morsel_rows,
    const std::function<Status(size_t node, engine::Partition&&)>& consume) {
  if (!plan) return Status::Internal("null physical plan");
  if (plan->kind == AlgKind::kReduce) {
    return Status::InvalidArgument("Reduce root must go through RunToValue");
  }
  // The root operator span for the fused transform chain: Select/Unnest
  // stages compile into the segment's expansion, so the chain's work (and
  // counter movement) lands here rather than on per-stage spans.
  TraceScope op_span("operator", AlgKindName(plan->kind), plan.get(), -1,
                     &cluster->metrics());
  CLEANM_ASSIGN_OR_RETURN(PipelineSegment seg, BuildSegment(plan, morsel_rows));
  engine::MorselSpec spec;
  spec.morsel_rows = morsel_rows;
  op_span.SetRowsIn(engine::Cluster::TotalRows(seg.data()));
  return cluster->PumpToDriver(seg.data(), spec, seg.expand, consume);
}

Result<Value> Executor::RunToValue(const AlgOpPtr& plan, size_t morsel_rows) {
  if (!plan) return Status::Internal("null physical plan");
  if (plan->kind != AlgKind::kReduce) {
    ValueList out;
    uint64_t list_bytes = 0;
    CLEANM_RETURN_NOT_OK(Run(
        plan, morsel_rows, [&out, &list_bytes](size_t, Partition&& morsel) {
          for (const auto& row : morsel) {
            list_bytes += PhysicalTupleOf(row).ByteSize();
            out.push_back(PhysicalTupleOf(row));
          }
          return Status::OK();
        }));
    // The collected result is driver-side materialization: fold it into
    // the peak, then stop tracking (the returned Value is the caller's).
    cluster->metrics().ChargeMaterialized(list_bytes);
    cluster->metrics().ReleaseMaterialized(list_bytes);
    return Value(std::move(out));
  }

  const AggregateFunction* udf = nullptr;
  CLEANM_ASSIGN_OR_RETURN(const Monoid* monoid,
                          ResolveAggregateMonoid(functions, plan->monoid, &udf));
  TraceScope op_span("operator", AlgKindName(plan->kind), plan.get(), -1,
                     &cluster->metrics());
  const TupleLayout layout = CollectVars(plan->input);
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr head, CompileExpr(plan->head, layout, Env()));
  // The head is the segment's terminal, so it runs inside the quarantine
  // wrap like every other per-row expression: a head that throws skips and
  // records its row instead of failing the execution.
  CLEANM_ASSIGN_OR_RETURN(
      PipelineSegment seg,
      BuildSegment(plan->input, morsel_rows, [head](Value t, Partition* out) {
        out->push_back(MakePhysicalTuple(head(t)));
      }));

  // Morsel-fed per-node fold, merged on the driver. One *fresh* zero per
  // node: Value copies share nested storage, so a vector(n, zero) fill
  // would alias one accumulator across all nodes and every in-place fold
  // would land in the same shared list.
  std::vector<Value> partials;
  partials.reserve(cluster->num_nodes());
  for (size_t n = 0; n < cluster->num_nodes(); n++) partials.push_back(monoid->zero());
  std::atomic<uint64_t> rows_folded{0};
  engine::MorselSpec spec;
  spec.morsel_rows = morsel_rows;
  cluster->PumpOnWorkers(seg.data(), spec, seg.expand,
                         [&](size_t n, Partition&& morsel) {
                           Value acc = std::move(partials[n]);
                           for (const auto& row : morsel) {
                             acc = monoid->Accumulate(std::move(acc),
                                                      PhysicalTupleOf(row));
                           }
                           partials[n] = std::move(acc);
                           rows_folded += morsel.size();
                         });
  Value acc = monoid->zero();
  for (auto& p : partials) acc = monoid->Merge(std::move(acc), p);
  op_span.SetRowsIn(rows_folded.load());
  if (udf) cluster->metrics().udf_calls += rows_folded.load();
  if (udf && udf->finalize) return udf->finalize({acc});
  return acc;
}

}  // namespace cleanm
