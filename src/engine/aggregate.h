// Distributed grouping/aggregation strategies (paper Section 6,
// "Handling data skew").
//
// All three strategies compute the same monoid aggregation — key extraction,
// a unit function, an associative merge, and a finalizer — but differ in
// *where* rows travel, which is exactly the contrast the paper draws:
//
//  * kLocalCombine  — CleanDB's plan (Spark `aggregateByKey`): aggregate
//    locally on each node first, shuffle only the combined partials, merge.
//    Traffic is O(distinct keys); hot keys are pre-collapsed, so skew does
//    not concentrate load.
//  * kSortShuffle   — Spark SQL's sort-based aggregation: sample the key
//    distribution, range-partition all raw rows, aggregate per node. All
//    rows travel, and a hot key lands whole on one node.
//  * kHashShuffle   — BigDansing's hash-based blocking: route all raw rows
//    by key hash, aggregate per node. All rows travel; a hot key again
//    lands whole on one node.
//
// Being a monoid is what makes kLocalCombine legal: the merge's
// associativity lets partial aggregates combine in any grouping/order —
// the language-level property (Section 4) surfacing at the physical level.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/cluster.h"
#include "storage/pagestore/page.h"

namespace cleanm {
class SpillContext;
}

namespace cleanm::engine {

enum class AggregateStrategy {
  kLocalCombine,
  kSortShuffle,
  kHashShuffle,
};

const char* AggregateStrategyName(AggregateStrategy s);

/// \brief A monoid aggregation over rows.
///
/// `init` lifts one row into the accumulator domain (the unit function U⊕);
/// `merge` is the associative ⊕; `finalize` maps each (key, accumulator)
/// group to zero or more output rows (e.g. "emit the group if it has > 1
/// distinct RHS value" for an FD check).
struct AggregateSpec {
  std::function<Value(const Row&)> key;
  std::function<Value(const Row&)> init;
  std::function<Value(Value, const Value&)> merge;
  std::function<void(const Value& key, const Value& acc, Partition*)> finalize;
  /// Optional poison-row hook (the physical layer's quarantine): when set,
  /// a row whose `key`/`init` throws during the fold is handed here with
  /// its node and fold ordinal instead of unwinding. OK → the row is
  /// skipped (it never touches the accumulator map); non-OK → the error
  /// aborts the aggregation (thrown as StatusException). StatusException
  /// itself (cancellation, injected faults) always propagates. `merge` and
  /// `finalize` see only accumulators — no per-row user expressions — and
  /// are not guarded.
  std::function<Status(size_t node, size_t ordinal, const Row& row,
                       const std::exception& error)>
      on_row_error;
};

/// Common accumulator helpers used by the cleaning operators.

/// unit: row → list-of-one-row (collects whole groups; ⊕ = list concat).
Value RowsAccInit(const Row& row);
/// ⊕ for RowsAccInit.
Value RowsAccMerge(Value a, const Value& b);

/// unit: row → singleton list of one projected value; merge keeps the list
/// *distinct* (set semantics), so the accumulator stays small for FD checks.
std::function<Value(const Row&)> DistinctAccInit(std::function<Value(const Row&)> project);
Value DistinctAccMerge(Value a, const Value& b);

/// \brief Runs the aggregation under the chosen strategy.
///
/// Returns the finalized output, still partitioned by node; `load` (if not
/// null) receives the per-node row counts *after* the shuffle and *before*
/// aggregation — the quantity that exhibits skew imbalance.
Partitioned AggregateByKey(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, AggregateStrategy strategy,
                           LoadReport* load = nullptr);

/// Deep-hash map from group key to accumulator (node-local aggregation
/// state).
struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEqual {
  bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
};
using AccMap = std::unordered_map<Value, Value, ValueHasher, ValueEqual>;

/// Node-local aggregation state: the accumulator map plus the keys in
/// first-occurrence order. Partial encoding and finalize both walk
/// `order`, never the unordered_map, so the emission sequence is a pure
/// function of the per-node key stream — unordered_map iteration order
/// (which varies with rehash history, and would differ between a
/// whole-stream map and one that was spilled and cleared mid-stream)
/// never leaks into results. Concatenating the partial streams of
/// successive spill generations therefore reproduces the unspilled
/// stream's key order exactly, which is what keeps spilled executions
/// bit-identical (see DESIGN.md, "Out-of-core storage & spill").
struct OrderedAccs {
  AccMap map;
  std::vector<Value> order;  ///< keys in first-occurrence order
};

/// \brief Morsel-fed variant of AggregateByKey: the pipeline breaker at a
/// Nest boundary.
///
/// Each node folds its input morsels into node-local state as they stream
/// in (Accumulate, called from that node's worker), so the keyed input is
/// never materialized as a whole Partitioned; Finish then runs the same
/// shuffle/merge/finalize machinery as AggregateByKey, producing a
/// bit-identical result as long as each node sees its rows in the same
/// order (morsel boundaries never change the fold, by monoid
/// associativity — and the accumulator map's growth sequence, hence its
/// partial-encoding order, depends only on the per-node key sequence).
///
/// kLocalCombine folds incrementally; the shuffle-all-rows baseline
/// strategies (sort/hash) inherently need every raw row and therefore
/// buffer them, then run AggregateByKey over the buffered input.
class MorselAggregator {
 public:
  /// `spill` (optional) lets the breaker bound its resident partial state:
  /// when the summed per-node accumulator estimate exceeds the pool
  /// budget, a node's partials are encoded (in key order), written to the
  /// spill file, and the map is cleared; Finish re-reads every generation
  /// in order ahead of the live partials, so the merge sees the same
  /// partial stream modulo generation splits — exact by monoid
  /// associativity, order-exact by OrderedAccs.
  MorselAggregator(Cluster& cluster, AggregateSpec spec, AggregateStrategy strategy,
                   SpillContext* spill = nullptr);

  /// Folds one morsel of node `node`'s rows (by value: callers hand over
  /// morsels they own, so the buffering baselines splice without copying).
  /// Thread-safe across distinct nodes; per node, morsels must arrive in
  /// row order.
  void Accumulate(size_t node, Partition rows);

  /// Shuffles the partial accumulators, merges, finalizes. Driver-only;
  /// call at most once.
  Partitioned Finish(LoadReport* load = nullptr);

 private:
  /// Spills node `node`'s partials if the summed accumulator estimate is
  /// over budget (no-op without a spill context).
  void MaybeSpill(size_t node);

  Cluster& cluster_;
  AggregateSpec spec_;
  AggregateStrategy strategy_;
  SpillContext* spill_;
  std::vector<OrderedAccs> per_node_;  ///< kLocalCombine state
  /// Rows folded so far per node (kLocalCombine): the ordinal base handed
  /// to the on_row_error hook for each incoming morsel.
  std::vector<uint64_t> fold_base_;
  /// Spilled partial generations per node, in spill order.
  std::vector<std::vector<std::vector<PageSpan>>> spilled_;
  Partitioned buffered_;          ///< raw rows for the shuffle-all baselines
};

}  // namespace cleanm::engine
