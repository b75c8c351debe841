#include "engine/aggregate.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "engine/fault.h"
#include "storage/pagestore/spill.h"

namespace cleanm::engine {

const char* AggregateStrategyName(AggregateStrategy s) {
  switch (s) {
    case AggregateStrategy::kLocalCombine: return "local-combine";
    case AggregateStrategy::kSortShuffle: return "sort-shuffle";
    case AggregateStrategy::kHashShuffle: return "hash-shuffle";
  }
  return "?";
}

Value DistinctAccMerge(Value a, const Value& b) {
  auto& list = a.MutableList();
  for (const auto& v : b.AsList()) {
    bool found = false;
    for (const auto& existing : list) {
      if (existing.Equals(v)) {
        found = true;
        break;
      }
    }
    if (!found) list.push_back(v);
  }
  return a;
}

namespace {

/// Folds one row: key and unit are both evaluated *before* the map is
/// touched, so a throwing row (poison data under the quarantine hook)
/// leaves the accumulator state untouched.
void FoldOne(OrderedAccs* accs, const Row& row, const AggregateSpec& spec) {
  Value key = spec.key(row);
  Value unit = spec.init(row);
  auto it = accs->map.find(key);
  if (it == accs->map.end()) {
    accs->order.push_back(key);
    accs->map.emplace(std::move(key), std::move(unit));
  } else {
    it->second = spec.merge(std::move(it->second), unit);
  }
}

/// Folds rows into an accumulator map in row order (shared by the
/// whole-partition and morsel-fed paths, so their fold sequences — and the
/// map's growth/iteration order — cannot diverge). `node` / `first_ordinal`
/// identify the rows for the on_row_error hook (ordinal = position within
/// the node's fold stream).
void AccumulateRows(OrderedAccs* accs, const Partition& rows, const AggregateSpec& spec,
                    size_t node, size_t first_ordinal = 0) {
  if (!spec.on_row_error) {
    for (const auto& row : rows) FoldOne(accs, row, spec);
    return;
  }
  for (size_t i = 0; i < rows.size(); i++) {
    try {
      FoldOne(accs, rows[i], spec);
    } catch (const StatusException&) {
      throw;  // cancellation / injected unavailability is not a poison row
    } catch (const std::exception& e) {
      Status st = spec.on_row_error(node, first_ordinal + i, rows[i], e);
      if (!st.ok()) throw StatusException(std::move(st));
    }
  }
}

/// Aggregates one partition's rows into an accumulator map.
OrderedAccs LocalAggregate(const Partition& rows, const AggregateSpec& spec,
                           size_t node) {
  OrderedAccs accs;
  AccumulateRows(&accs, rows, spec, node);
  return accs;
}

Partitioned FinalizePerNode(Cluster& cluster, std::vector<OrderedAccs>& per_node,
                            const AggregateSpec& spec) {
  Partitioned out(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    out[n].reserve(per_node[n].map.size());
    for (const auto& key : per_node[n].order) {
      spec.finalize(key, per_node[n].map.find(key)->second, &out[n]);
    }
    cluster.metrics().groups_built += per_node[n].map.size();
  });
  return out;
}

/// Encodes a (key, accumulator) partial as a two-value row for shuffling.
Row EncodePartial(const Value& key, Value acc) {
  return Row{key, std::move(acc)};
}

/// Drains `accs` into shuffle-ready partial rows, one per key in
/// first-occurrence order (the accumulators are moved out; `accs` is spent).
void EncodePartials(OrderedAccs* accs, Partition* out) {
  out->reserve(out->size() + accs->order.size());
  for (const auto& key : accs->order) {
    out->push_back(EncodePartial(key, std::move(accs->map.find(key)->second)));
  }
}

/// The local-combine tail shared with MorselAggregator::Finish: shuffle the
/// encoded partials by key hash, merge per key, finalize.
Partitioned CombinePartialsAndFinalize(Cluster& cluster, const Partitioned& partials,
                                       const AggregateSpec& spec, LoadReport* load) {
  Partitioned routed =
      cluster.Shuffle(partials, [](const Row& r) { return r[0].Hash(); });
  if (load != nullptr) *load = cluster.Load(routed);

  // Phase 3: merge partials per key, then finalize. The merged state keys
  // finalize order by first arrival in the routed stream (OrderedAccs),
  // which depends only on the shuffle's deterministic routing — never on
  // map internals.
  std::vector<OrderedAccs> merged(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    for (auto& row : routed[n]) {
      auto it = merged[n].map.find(row[0]);
      if (it == merged[n].map.end()) {
        merged[n].order.push_back(row[0]);
        merged[n].map.emplace(row[0], std::move(row[1]));
      } else {
        it->second = spec.merge(std::move(it->second), row[1]);
      }
    }
  });
  return FinalizePerNode(cluster, merged, spec);
}

/// CleanDB strategy: local combine → shuffle partials → merge → finalize.
Partitioned RunLocalCombine(Cluster& cluster, const Partitioned& in,
                            const AggregateSpec& spec, LoadReport* load) {
  // Phases 1+2 in one dispatch: node-local aggregation (no data movement)
  // immediately encoded as shuffle-ready partials, one row per (node, key).
  Partitioned partials(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    OrderedAccs local = LocalAggregate(in[n], spec, n);
    EncodePartials(&local, &partials[n]);
  });
  return CombinePartialsAndFinalize(cluster, partials, spec, load);
}

/// Spark SQL strategy: sample key quantiles, range-partition all raw rows
/// (the shuffle stage of a sort-based aggregation), aggregate per node.
Partitioned RunSortShuffle(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, LoadReport* load) {
  // Driver-side sample of keys to derive range boundaries, mimicking
  // Spark's RangePartitioner.
  std::vector<Value> sample;
  constexpr size_t kSampleStride = 17;
  size_t i = 0;
  for (const auto& p : in) {
    for (const auto& row : p) {
      if (i++ % kSampleStride == 0) sample.push_back(spec.key(row));
    }
  }
  std::sort(sample.begin(), sample.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  const size_t n_nodes = cluster.num_nodes();
  std::vector<Value> bounds;  // n_nodes - 1 split points
  for (size_t b = 1; b < n_nodes && !sample.empty(); b++) {
    bounds.push_back(sample[b * sample.size() / n_nodes]);
  }
  auto range_of = [&bounds](const Value& key) -> uint64_t {
    // First bound greater than the key determines the range. Equal keys all
    // map to the same range — the property that makes hot keys pile up.
    size_t lo = 0;
    for (; lo < bounds.size(); lo++) {
      if (key.Compare(bounds[lo]) <= 0) break;
    }
    return lo;
  };

  Partitioned routed =
      cluster.Shuffle(in, [&](const Row& r) { return range_of(spec.key(r)); });
  if (load != nullptr) *load = cluster.Load(routed);

  // Node-local sort by key then aggregate runs of equal keys (the "sort"
  // part of sort-based aggregation).
  std::vector<OrderedAccs> merged(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    Partition rows = routed[n];
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return spec.key(a).Compare(spec.key(b)) < 0;
    });
    merged[n] = LocalAggregate(rows, spec, n);
  });
  return FinalizePerNode(cluster, merged, spec);
}

/// BigDansing strategy: route every raw row by key hash, aggregate per node.
Partitioned RunHashShuffle(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, LoadReport* load) {
  Partitioned routed =
      cluster.Shuffle(in, [&](const Row& r) { return spec.key(r).Hash(); });
  if (load != nullptr) *load = cluster.Load(routed);
  std::vector<OrderedAccs> merged(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) { merged[n] = LocalAggregate(routed[n], spec, n); });
  return FinalizePerNode(cluster, merged, spec);
}

}  // namespace

Partitioned AggregateByKey(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, AggregateStrategy strategy,
                           LoadReport* load) {
  CLEANM_CHECK(spec.key && spec.init && spec.merge && spec.finalize);
  switch (strategy) {
    case AggregateStrategy::kLocalCombine:
      return RunLocalCombine(cluster, in, spec, load);
    case AggregateStrategy::kSortShuffle:
      return RunSortShuffle(cluster, in, spec, load);
    case AggregateStrategy::kHashShuffle:
      return RunHashShuffle(cluster, in, spec, load);
  }
  CLEANM_CHECK(false);
  return {};
}

MorselAggregator::MorselAggregator(Cluster& cluster, AggregateSpec spec,
                                   AggregateStrategy strategy, SpillContext* spill)
    : cluster_(cluster),
      spec_(std::move(spec)),
      strategy_(strategy),
      spill_(spill) {
  CLEANM_CHECK(spec_.key && spec_.init && spec_.merge && spec_.finalize);
  if (strategy_ == AggregateStrategy::kLocalCombine) {
    per_node_.resize(cluster_.num_nodes());
    fold_base_.assign(cluster_.num_nodes(), 0);
    spilled_.resize(cluster_.num_nodes());
  } else {
    buffered_.resize(cluster_.num_nodes());
  }
}

void MorselAggregator::MaybeSpill(size_t node) {
  if (spill_ == nullptr || !spill_->enabled()) return;
  OrderedAccs& accs = per_node_[node];
  uint64_t bytes = 0;
  for (const auto& key : accs.order) {
    bytes += key.ByteSize() + accs.map.find(key)->second.ByteSize();
  }
  // Per-node share: every node's breaker state competes for the one pool
  // budget, so a node spills once N such states would exceed it.
  if (!spill_->ShouldSpill(bytes, per_node_.size())) return;
  Partition partials;
  EncodePartials(&accs, &partials);
  accs.map.clear();
  accs.order.clear();
  Result<std::vector<PageSpan>> spans = spill_->SpillRows(partials);
  if (!spans.ok()) throw StatusException(spans.status());
  spilled_[node].push_back(spans.MoveValue());
}

void MorselAggregator::Accumulate(size_t node, Partition rows) {
  if (strategy_ == AggregateStrategy::kLocalCombine) {
    AccumulateRows(&per_node_[node], rows, spec_, node, fold_base_[node]);
    fold_base_[node] += rows.size();
    MaybeSpill(node);
    return;
  }
  // The shuffle-all-rows baselines route every raw row: nothing to fold
  // until all rows are present, so buffer (the materializing behavior the
  // strategy implies anyway) — splicing the handed-over morsel, not
  // copying it.
  buffered_[node].insert(buffered_[node].end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
}

Partitioned MorselAggregator::Finish(LoadReport* load) {
  if (strategy_ != AggregateStrategy::kLocalCombine) {
    return AggregateByKey(cluster_, buffered_, spec_, strategy_, load);
  }
  // Encode the partials exactly as RunLocalCombine's phase 2 does — same
  // first-occurrence key order, since the per-node fold sequence was
  // identical. Spilled generations come first, in spill order: their
  // concatenation with the live tail replays the unspilled key sequence
  // (a key's later occurrences merge into later generations, and the
  // downstream per-key merge is associative), so results stay
  // bit-identical whether or not the budget forced spills.
  Partitioned partials(cluster_.num_nodes());
  cluster_.RunOnNodes([&](size_t n) {
    for (const auto& generation : spilled_[n]) {
      Status st = spill_->ReadBack(generation, &partials[n]);
      if (!st.ok()) throw StatusException(std::move(st));
    }
    EncodePartials(&per_node_[n], &partials[n]);
  });
  return CombinePartialsAndFinalize(cluster_, partials, spec_, load);
}

}  // namespace cleanm::engine
