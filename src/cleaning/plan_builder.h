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
//                     unknown := for(c <- T, not some{d.attr = c.term |
//                                                    d <- dict}) yield bag c
//                     → Select(is_null(probe)) over
//                         OuterJoin[term = probe.attr](T, dict as probe)
//                       → Nest[op term; terms=set(term)]
//                         ⋈(key) Nest[op dict.attr; dict_terms=set(attr)]
//                       → Unnest both term sets
//                       → Select(similar(m, term, suggestion, θ))
//                     In-dictionary terms are anti-joined away before
//                     grouping; one violation per (term, suggestion) pair
//                     (no best suggestion is picked); a non-string term
//                     joins no group under tf / k-means.
//
// The builders return plain algebra plans; CoalesceNests + the physical
// executor provide the Figure-1 work sharing when a query carries several
// clauses.
#pragma once

#include <string>
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

/// CLUSTER BY (term validation) plan over data table + dictionary table:
/// both entry points (the query form and CleanDB::ValidateTerms) build it.
/// The dictionary's anti-join probe binds `data_var` + "_dict".
Result<CleaningPlan> BuildTermValidationPlan(
    const std::string& data_table, const std::string& data_var,
    const std::string& dict_table, const std::string& dict_var,
    const std::string& dict_attr, const ClusterByClause& cb,
    const FilteringOptions& options, std::vector<std::string> centers = {});

}  // namespace cleanm
