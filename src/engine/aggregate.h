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

#include <cstdint>
#include <functional>
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
  /// skipped (it never touches the group table); non-OK → the error
  /// aborts the aggregation (thrown as StatusException). StatusException
  /// itself (cancellation, injected faults) always propagates. `merge` and
  /// `finalize` see only accumulators — no per-row user expressions — and
  /// are not guarded.
  std::function<Status(size_t node, size_t ordinal, const Row& row,
                       const std::exception& error)>
      on_row_error;
};

/// ⊕ over list accumulators that keeps the list *distinct* (set
/// semantics): `b`'s elements not already in `a` are appended, so the
/// accumulator stays small for FD checks.
Value DistinctAccMerge(Value a, const Value& b);

/// \brief Runs the aggregation under the chosen strategy.
///
/// Returns the finalized output, still partitioned by node; `load` (if not
/// null) receives the per-node row counts *after* the shuffle and *before*
/// aggregation — the quantity that exhibits skew imbalance.
Partitioned AggregateByKey(Cluster& cluster, const Partitioned& in,
                           const AggregateSpec& spec, AggregateStrategy strategy,
                           LoadReport* load = nullptr);

/// \brief Node-local aggregation state: one table per node.
///
/// Groups sit in one vector in first-occurrence order, each key stored
/// once beside its hash and accumulator; an open-addressed index of slot
/// numbers finds them. A folded or merged row hashes its key once, and
/// growth re-indexes from the stored hashes without touching a key.
/// Partials, spill generations and finalize all walk `groups()`, never
/// the index, so the emission sequence is a pure function of the node's
/// key stream: concatenating the partials of successive spill
/// generations reproduces the unspilled key order exactly, which is what
/// keeps spilled executions bit-identical (DESIGN.md, "Why spilling
/// execution stays bit-identical"). Every table is freed by a task on its
/// own node — a fold table when its partials are drained, a merge table by
/// the merge-and-finalize task before it returns — so none is freed on the
/// driver.
class GroupTable {
 public:
  struct Group {
    uint64_t hash;
    Value key;
    Value acc;
  };

  /// Merges `acc` into `key`'s group, which is appended if new.
  void Fold(Value key, Value acc, const std::function<Value(Value, const Value&)>& merge);

  const std::vector<Group>& groups() const { return groups_; }
  size_t size() const { return groups_.size(); }

  /// Moves every group out as a (key, accumulator) partial row, in order,
  /// and frees the table.
  void Drain(Partition* out);

 private:
  /// One index slot: `group` is 1 + the group's position (0 = empty);
  /// `tag` holds hash bits that reject most mismatches without reading
  /// the group.
  struct Slot {
    uint32_t group = 0;
    uint32_t tag = 0;
  };

  /// Home slot of `hash` (Fibonacci hashing on the high bits: keys routed
  /// to one node share their hash's low bits).
  size_t HomeOf(uint64_t hash) const { return (hash * 0x9e3779b97f4a7c15ULL) >> shift_; }
  void Grow();

  std::vector<Group> groups_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  unsigned shift_ = 64;      ///< 64 - log2(slots_.size())
};

/// \brief Morsel-fed variant of AggregateByKey: the pipeline breaker at a
/// Nest boundary.
///
/// Each node folds its input morsels into its GroupTable as they stream
/// in (Accumulate, called from that node's worker), so the keyed input is
/// never materialized as a whole Partitioned; Finish then runs the same
/// shuffle/merge/finalize machinery as AggregateByKey, producing a
/// bit-identical result as long as each node sees its rows in the same
/// order (morsel boundaries never change the fold, by monoid
/// associativity, and the table's group order depends only on the
/// per-node key sequence).
///
/// kLocalCombine folds incrementally; the shuffle-all-rows baseline
/// strategies (sort/hash) inherently need every raw row and therefore
/// buffer them, then hand the buffer to the shuffle by move.
class MorselAggregator {
 public:
  /// `spill` (optional) lets the breaker bound its resident partial state:
  /// when the summed per-node accumulator estimate exceeds the pool
  /// budget, a node's partials are drained (in group order), written to
  /// the spill file, and its table starts empty; Finish re-reads every
  /// generation in order ahead of the live partials, so the merge sees the
  /// same partial stream modulo generation splits — exact by monoid
  /// associativity, order-exact by GroupTable's first-occurrence order.
  MorselAggregator(Cluster& cluster, AggregateSpec spec, AggregateStrategy strategy,
                   SpillContext* spill = nullptr);

  /// Folds one morsel of node `node`'s rows (by value: callers hand over
  /// morsels they own, so the buffering baselines splice without copying).
  /// Thread-safe across distinct nodes; per node, morsels must arrive in
  /// row order.
  void Accumulate(size_t node, Partition rows);

  /// Shuffles the partial accumulators, merges, finalizes. `bytes` (if
  /// not null) receives the output's logical size (PartitionLogicalBytes),
  /// counted by the nodes that built it. Driver-only; call at most once.
  Partitioned Finish(LoadReport* load = nullptr, uint64_t* bytes = nullptr);

 private:
  /// Spills node `node`'s partials if the summed accumulator estimate is
  /// over budget (no-op without a spill context).
  void MaybeSpill(size_t node);

  Cluster& cluster_;
  AggregateSpec spec_;
  AggregateStrategy strategy_;
  SpillContext* spill_;
  std::vector<GroupTable> per_node_;  ///< kLocalCombine state
  /// Rows folded so far per node (kLocalCombine): the ordinal base handed
  /// to the on_row_error hook for each incoming morsel.
  std::vector<uint64_t> fold_base_;
  /// Spilled partial generations per node, in spill order.
  std::vector<std::vector<std::vector<PageSpan>>> spilled_;
  Partitioned buffered_;          ///< raw rows for the shuffle-all baselines
};

}  // namespace cleanm::engine
