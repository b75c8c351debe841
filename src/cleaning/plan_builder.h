// Desugaring of CleanM cleaning clauses into algebra plans (paper
// Section 4.4 semantics, Section 5 plans).
//
// Each clause lowers to the canonical comprehension template of Section 4.4
// and from there to a nested-relational-algebra plan:
//
//   FD(lhs, rhs)      groups := for(c <- T) yield filter(lhs)
//                     for(g <- groups, count(distinct rhs) > 1) yield bag g
//                     → Nest[exact lhs; vals=set(rhs), partition=bag(c);
//                            having count(vals) > 1]
//
//   DEDUP(op, m, θ, attrs)
//                     groups := for(c <- T) yield filter(attrs, op)
//                     for(g, p1 <- g.partition, p2 <- g.partition,
//                         similar(m, p1, p2, θ)) yield bag (p1, p2)
//                     → Nest[op attrs; partition=bag(c); |partition|>1]
//                       → Unnest(p1) → Unnest(p2)
//                       → Select(p1 < p2 ∧ similar(m, p1, p2, θ))
//
//   CLUSTER BY(op, m, θ, term)   (dictionary = second FROM table)
//                     → Nest over data terms ⋈(key) Nest over dictionary
//                       → Unnest both term sets
//                       → Select(term ≠ dict ∧ similar(m, term, dict, θ))
//
// The builders return plain algebra plans; CoalesceNests + the physical
// executor provide the Figure-1 work sharing when a query carries several
// clauses.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"
#include "language/ast.h"

namespace cleanm {

/// One cleaning operation lowered to algebra, plus bookkeeping for the
/// unified-result outer join.
struct CleaningPlan {
  std::string op_name;   ///< "FD", "DEDUP", "CLUSTER BY" (+index if several)
  AlgOpPtr plan;         ///< violation-producing plan
  /// Variables of `plan`'s output holding violating source records:
  /// FD → the partition bag; DEDUP → the two pair members; CLUSTER BY → the
  /// offending term (not a record).
  std::vector<std::string> entity_vars;
};

/// Combines multiple attribute expressions into one grouping term:
/// a single expression stays as is; several become concat(a, '|', b, ...).
ExprPtr CombineAttrs(const std::vector<ExprPtr>& attrs);

/// Metric name as the `similar` builtin expects ("LD", "jaccard").
const char* MetricName(SimilarityMetric metric);

/// FD plan over `table` bound as `var`.
Result<CleaningPlan> BuildFdPlan(const std::string& table, const std::string& var,
                                 const FdClause& fd);

/// DEDUP plan. `options` supplies the q/k/delta defaults for the chosen
/// filtering algorithm; kmeans centers are sampled by the caller (CleanDB)
/// and passed through `centers`.
Result<CleaningPlan> BuildDedupPlan(const std::string& table, const std::string& var,
                                    const DedupClause& dedup,
                                    const FilteringOptions& options,
                                    std::vector<std::string> centers = {});

/// CLUSTER BY (term validation) plan over data table + dictionary table.
Result<CleaningPlan> BuildTermValidationPlan(
    const std::string& data_table, const std::string& data_var,
    const std::string& dict_table, const std::string& dict_var,
    const std::string& dict_attr, const ClusterByClause& cb,
    const FilteringOptions& options, std::vector<std::string> centers = {});

/// The canonical comprehension for an FD clause (Section 4.4), for EXPLAIN
/// output and the semantics tests.
ExprPtr FdComprehension(const std::string& table, const std::string& var,
                        const FdClause& fd);

/// \brief Streaming-capable entity-projection dedup: filtering monoids
/// assign one record to several groups (one per shared token / center), so
/// the same violating pair can surface once per shared group, and only its
/// first occurrence must reach the sink.
///
/// The seen-set persists across calls, so morsel boundaries cannot change
/// which violations are emitted.
class ViolationDeduper {
 public:
  explicit ViolationDeduper(const CleaningPlan& cp) : cp_(&cp) {}

  /// True when `v` is the first occurrence of its entity projection (or
  /// projects onto no entity var at all) and should be emitted.
  bool ShouldEmit(const Value& v);

 private:
  const CleaningPlan* cp_;
  std::unordered_set<uint64_t> seen_;
};

}  // namespace cleanm
