// Algebra-level rewrites (paper Section 5, "Optimizations at the algebra
// level"; Figure 1).
//
// Intra-plan rules, applied to fixpoint:
//   A1  Select(Select(X, p1), p2)          → Select(X, p1 ∧ p2)
//   A2  Select(Join(L, R), p) with vars(p) ⊆ one side → push below the join
//   A3  Select(Join(L, R), a = b) spanning both sides → hash equi-join
//
// Inter-plan rule (the Plan BC coalescing of Figure 1):
//   A4  Two Nest plans over structurally identical inputs with identical
//       GroupSpecs merge into one Nest computing the union of their
//       aggregations; each original consumer becomes a Select applying its
//       own `having` over the merged output. One grouping pass instead of N.
//
// Shared-scan detection (the DAG of Figure 1's overall plan) is also
// reported here, as a diagnostic: at execution time the session partition
// cache is what scans each table once.
//
// CleanDB's Prepare runs only A4 (CoalesceNests): its plan builders emit
// filters below joins directly, so A1–A3 serve hand-built plans.
#pragma once

#include <vector>

#include "algebra/algebra.h"

namespace cleanm {

struct RewriteStats {
  int selects_fused = 0;
  int selects_pushed = 0;
  int equi_joins_detected = 0;
  int nests_coalesced = 0;
};

/// Applies the intra-plan rules (A1–A3) to fixpoint. Returns a fresh plan.
AlgOpPtr RewritePlan(const AlgOpPtr& plan, RewriteStats* stats = nullptr);

/// \brief Result of coalescing a set of query roots (A4).
///
/// `roots[i]` is the rewritten plan for input plan i. Plans that merged now
/// share a single Nest node (by pointer), so the executor evaluates the
/// grouping once and fans its output out to every consumer.
struct CoalescedPlans {
  std::vector<AlgOpPtr> roots;
  int groups_merged = 0;
};

/// Coalesces the Nest stages of multiple plans belonging to one query.
/// Plans whose Nest inputs and group specs match (structurally) are rewired
/// onto one shared Nest carrying the union of the aggregations; each root
/// keeps its own `having` as a Select above the shared node.
CoalescedPlans CoalesceNests(const std::vector<AlgOpPtr>& plans,
                             RewriteStats* stats = nullptr);

/// Tables scanned by more than one of the given plans (the scans the
/// partition cache shares at execution time).
std::vector<std::string> SharedScanTables(const std::vector<AlgOpPtr>& plans);

}  // namespace cleanm
