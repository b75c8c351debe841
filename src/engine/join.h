// Distributed joins: partitioned hash equi-join, broadcast join, and the
// three theta-join algorithms the evaluation contrasts (paper Section 6,
// "Handling theta joins"; Table 5).
//
//  * kCartesian  — Spark SQL's default for non-equi predicates: broadcast
//    one side everywhere and evaluate the full cross product. O(|L|·|S|)
//    comparisons and O(|S|·N) traffic; the plan that "was unable to
//    compute" rule ψ in the paper.
//  * kMinMax     — BigDansing: partition both sides arbitrarily, compute
//    per-partition min/max of the join attributes, and only ship/compare
//    partition pairs whose ranges overlap. Prunes little unless the
//    partitioning aligns with the predicate attributes.
//  * kMatrix     — CleanDB: the statistics-aware matrix partitioning of
//    Okcan & Riedewald. The |L|×|S| comparison matrix is tiled into N
//    near-square rectangles of equal area using the observed cardinalities,
//    one rectangle per node: balanced load by construction.
#pragma once

#include <functional>

#include "engine/cluster.h"

namespace cleanm {
class SpillContext;
}

namespace cleanm::engine {

/// Equality join: partitions both sides by key hash, then builds and probes
/// a node-local hash table. `left_key`/`right_key` extract the join key;
/// `emit` receives each matching pair. `spill` (optional) bounds the build
/// side: when the shuffled right side exceeds the pool budget it is written
/// to the spill file after the shuffle and re-read per node for the
/// build+probe phase, so the resident copy exists one node at a time.
Partitioned HashEquiJoin(Cluster& cluster, const Partitioned& left,
                         const Partitioned& right,
                         const std::function<Value(const Row&)>& left_key,
                         const std::function<Value(const Row&)>& right_key,
                         const std::function<Row(const Row&, const Row&)>& emit,
                         SpillContext* spill = nullptr);

/// Left outer equality join: unmatched left rows are emitted via
/// `emit_unmatched`. `spill` as in HashEquiJoin.
Partitioned HashLeftOuterJoin(
    Cluster& cluster, const Partitioned& left, const Partitioned& right,
    const std::function<Value(const Row&)>& left_key,
    const std::function<Value(const Row&)>& right_key,
    const std::function<Row(const Row&, const Row&)>& emit,
    const std::function<Row(const Row&)>& emit_unmatched,
    SpillContext* spill = nullptr);

enum class ThetaJoinAlgo {
  kCartesian,
  kMinMax,
  kMatrix,
};

const char* ThetaJoinAlgoName(ThetaJoinAlgo a);

struct ThetaJoinOptions {
  ThetaJoinAlgo algo = ThetaJoinAlgo::kMatrix;
  /// For kMinMax: value extractor used to compute per-partition min/max
  /// bounds; a partition pair is compared only when [min,max] ranges
  /// overlap as required by `ranges_may_match`.
  std::function<Value(const Row&)> left_bound;
  std::function<Value(const Row&)> right_bound;
  /// Given (left_min, left_max, right_min, right_max), may any pair match?
  /// Defaults to "always true" (no pruning), the worst case the paper
  /// describes for misaligned partitioning.
  std::function<bool(const Value&, const Value&, const Value&, const Value&)>
      ranges_may_match;
};

/// General theta join: emits `emit(l, r)` for every pair satisfying `pred`.
/// Every pairwise predicate evaluation increments metrics().comparisons
/// (the pipeline's Select-inside-Unnest pair tests count there too; see
/// common/metrics.h).
Partitioned ThetaJoin(Cluster& cluster, const Partitioned& left,
                      const Partitioned& right,
                      const std::function<bool(const Row&, const Row&)>& pred,
                      const std::function<Row(const Row&, const Row&)>& emit,
                      const ThetaJoinOptions& options = {});

}  // namespace cleanm::engine
