#include "engine/aggregate.h"

#include <algorithm>
#include <numeric>

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

void GroupTable::Fold(Value key, Value acc,
                      const std::function<Value(Value, const Value&)>& merge) {
  if ((groups_.size() + 1) * 2 > slots_.size()) Grow();
  const uint64_t hash = key.Hash();
  const auto tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeOf(hash);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.group == 0) {
      groups_.push_back(Group{hash, std::move(key), std::move(acc)});
      slot = Slot{static_cast<uint32_t>(groups_.size()), tag};
      return;
    }
    if (slot.tag != tag) continue;
    Group& group = groups_[slot.group - 1];
    if (group.hash == hash && group.key.Equals(key)) {
      group.acc = merge(std::move(group.acc), acc);
      return;
    }
  }
}

void GroupTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  shift_ = slots_.empty() ? 60 : shift_ - 1;
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (size_t g = 0; g < groups_.size(); g++) {
    size_t i = HomeOf(groups_[g].hash);
    while (slots_[i].group != 0) i = (i + 1) & mask;
    slots_[i] =
        Slot{static_cast<uint32_t>(g + 1), static_cast<uint32_t>(groups_[g].hash)};
  }
}

void GroupTable::Drain(Partition* out) {
  out->reserve(out->size() + groups_.size());
  for (auto& group : groups_) {
    Row partial;
    partial.reserve(2);
    partial.push_back(std::move(group.key));
    partial.push_back(std::move(group.acc));
    out->push_back(std::move(partial));
  }
  *this = GroupTable();
}

namespace {

/// Folds one row: key and unit are both evaluated *before* the table is
/// touched, so a throwing row (poison data under the quarantine hook)
/// leaves the aggregation state untouched.
void FoldOne(GroupTable* table, const Row& row, const AggregateSpec& spec) {
  Value key = spec.key(row);
  Value unit = spec.init(row);
  table->Fold(std::move(key), std::move(unit), spec.merge);
}

/// Folds rows into a group table in row order (shared by the
/// whole-partition and morsel-fed paths, so their fold sequences — and the
/// table's group order — cannot diverge). `node` / `first_ordinal`
/// identify the rows for the on_row_error hook (ordinal = position within
/// the node's fold stream).
void AccumulateRows(GroupTable* table, const Partition& rows, const AggregateSpec& spec,
                    size_t node, size_t first_ordinal = 0) {
  if (!spec.on_row_error) {
    for (const auto& row : rows) FoldOne(table, row, spec);
    return;
  }
  for (size_t i = 0; i < rows.size(); i++) {
    try {
      FoldOne(table, rows[i], spec);
    } catch (const StatusException&) {
      throw;  // cancellation / injected unavailability is not a poison row
    } catch (const std::exception& e) {
      Status st = spec.on_row_error(node, first_ordinal + i, rows[i], e);
      if (!st.ok()) throw StatusException(std::move(st));
    }
  }
}

/// The tail every strategy shares, one task per node: `fold` builds the
/// node's groups from its routed rows, the rows are freed, and the groups
/// are finalized in first-occurrence order. The table and the routed rows
/// are freed by the task, on the node that built them; `bytes` (if not
/// null) receives the output's logical size, counted per node.
Partitioned FoldAndFinalize(
    Cluster& cluster, Partitioned& routed, const AggregateSpec& spec,
    const std::function<void(size_t node, Partition& rows, GroupTable* table)>& fold,
    uint64_t* bytes) {
  Partitioned out(cluster.num_nodes());
  std::vector<uint64_t> node_bytes(cluster.num_nodes(), 0);
  cluster.RunOnNodes([&](size_t n) {
    GroupTable table;
    fold(n, routed[n], &table);
    Partition().swap(routed[n]);
    out[n].reserve(table.size());
    for (const auto& group : table.groups()) spec.finalize(group.key, group.acc, &out[n]);
    cluster.metrics().groups_built += table.size();
    node_bytes[n] = PartitionLogicalBytes(out[n]);
  });
  if (bytes != nullptr) {
    *bytes = std::accumulate(node_bytes.begin(), node_bytes.end(), uint64_t{0});
  }
  return out;
}

/// The local-combine tail shared with MorselAggregator::Finish: move the
/// (key, accumulator) partials through the shuffle by key hash, then merge
/// and finalize in one task per node. Merged groups follow first arrival
/// in the routed stream, which depends only on the shuffle's deterministic
/// routing.
Partitioned MergePartials(Cluster& cluster, Partitioned partials,
                          const AggregateSpec& spec, LoadReport* load, uint64_t* bytes) {
  Partitioned routed =
      cluster.Shuffle(std::move(partials), [](const Row& r) { return r[0].Hash(); });
  if (load != nullptr) *load = cluster.Load(routed);
  return FoldAndFinalize(
      cluster, routed, spec,
      [&spec](size_t, Partition& rows, GroupTable* merged) {
        for (auto& row : rows) {
          merged->Fold(std::move(row[0]), std::move(row[1]), spec.merge);
        }
      },
      bytes);
}

/// CleanDB strategy: local combine → shuffle partials → merge → finalize.
Partitioned RunLocalCombine(Cluster& cluster, const Partitioned& in,
                            const AggregateSpec& spec, LoadReport* load,
                            uint64_t* bytes) {
  // Phases 1+2 in one dispatch: node-local aggregation (no data movement)
  // drained into shuffle-ready partials, one row per (node, key).
  Partitioned partials(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    GroupTable local;
    AccumulateRows(&local, in[n], spec, n);
    local.Drain(&partials[n]);
  });
  return MergePartials(cluster, std::move(partials), spec, load, bytes);
}

/// Spark SQL strategy: sample key quantiles, range-partition all raw rows
/// (the shuffle stage of a sort-based aggregation), aggregate per node.
/// `Input` is `const Partitioned&` (rows are copied through the shuffle)
/// or `Partitioned` (buffered rows handed over by move).
template <typename Input>
Partitioned RunSortShuffle(Cluster& cluster, Input&& in, const AggregateSpec& spec,
                           LoadReport* load, uint64_t* bytes) {
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

  Partitioned routed = cluster.Shuffle(
      std::forward<Input>(in), [&](const Row& r) { return range_of(spec.key(r)); });
  if (load != nullptr) *load = cluster.Load(routed);

  // Node-local sort by key then aggregate runs of equal keys (the "sort"
  // part of sort-based aggregation).
  return FoldAndFinalize(
      cluster, routed, spec,
      [&spec](size_t n, Partition& rows, GroupTable* table) {
        std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
          return spec.key(a).Compare(spec.key(b)) < 0;
        });
        AccumulateRows(table, rows, spec, n);
      },
      bytes);
}

/// BigDansing strategy: route every raw row by key hash, aggregate per node.
template <typename Input>
Partitioned RunHashShuffle(Cluster& cluster, Input&& in, const AggregateSpec& spec,
                           LoadReport* load, uint64_t* bytes) {
  Partitioned routed = cluster.Shuffle(std::forward<Input>(in),
                                       [&](const Row& r) { return spec.key(r).Hash(); });
  if (load != nullptr) *load = cluster.Load(routed);
  return FoldAndFinalize(
      cluster, routed, spec,
      [&spec](size_t n, Partition& rows, GroupTable* table) {
        AccumulateRows(table, rows, spec, n);
      },
      bytes);
}

template <typename Input>
Partitioned Aggregate(Cluster& cluster, Input&& in, const AggregateSpec& spec,
                      AggregateStrategy strategy, LoadReport* load, uint64_t* bytes) {
  switch (strategy) {
    case AggregateStrategy::kLocalCombine:
      return RunLocalCombine(cluster, in, spec, load, bytes);
    case AggregateStrategy::kSortShuffle:
      return RunSortShuffle(cluster, std::forward<Input>(in), spec, load, bytes);
    case AggregateStrategy::kHashShuffle:
      return RunHashShuffle(cluster, std::forward<Input>(in), spec, load, bytes);
  }
  CLEANM_CHECK(false);
  return {};
}

}  // namespace

Partitioned AggregateByKey(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, AggregateStrategy strategy,
                           LoadReport* load) {
  CLEANM_CHECK(spec.key && spec.init && spec.merge && spec.finalize);
  return Aggregate(cluster, in, spec, strategy, load, nullptr);
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
  GroupTable& table = per_node_[node];
  uint64_t bytes = 0;
  for (const auto& group : table.groups()) {
    bytes += group.key.ByteSize() + group.acc.ByteSize();
  }
  // Per-node share: every node's breaker state competes for the one pool
  // budget, so a node spills once N such states would exceed it.
  if (!spill_->ShouldSpill(bytes, per_node_.size())) return;
  Partition partials;
  table.Drain(&partials);
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

Partitioned MorselAggregator::Finish(LoadReport* load, uint64_t* bytes) {
  if (strategy_ != AggregateStrategy::kLocalCombine) {
    return Aggregate(cluster_, std::move(buffered_), spec_, strategy_, load, bytes);
  }
  // Drain the partials exactly as RunLocalCombine's phase 2 does — same
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
    per_node_[n].Drain(&partials[n]);
  });
  return MergePartials(cluster_, std::move(partials), spec_, load, bytes);
}

}  // namespace cleanm::engine
