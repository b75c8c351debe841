// Nested relational algebra (paper Section 5, Table 1).
//
// The second abstraction level: normalized monoid comprehensions translate
// into this algebra, whose operators resemble relational ones but handle
// nested data and monoid-typed aggregation explicitly:
//
//   Scan            base collection, binds a tuple variable
//   Select   σp     filter
//   Join     ⋈p     inner join (hash form when an equi-key pair is present,
//                   theta form otherwise)
//   OuterJoin ⟕p    left outer join (null-extends unmatched left tuples)
//   Unnest   μ      iterates a nested collection field, binding its elements
//   OuterUnnest μ̄   like Unnest but keeps tuples with empty collections
//   Reduce   Δ⊕/e   folds e over the input with monoid ⊕ (the final output)
//   Nest     Γ⊕/e/f groups by f and folds one or more aggregations per
//                   group; `having` filters groups. The grouping key can be
//                   an exact expression or the token-filtering / k-means
//                   keys of FilterKeys, in which case one tuple may join
//                   several groups (none for a non-string term) — the
//                   algebra-level form of the pruning monoids of
//                   Section 4.3.
//
// Tuples at this level are variable environments: a Value struct mapping
// each bound variable to its record. tests/algebra_test.cc checks the
// driver-side evaluator (algebra_eval.h) against the comprehension
// interpreter.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/filtering.h"
#include "monoid/expr.h"

namespace cleanm {

enum class AlgKind {
  kScan,
  kSelect,
  kJoin,
  kOuterJoin,
  kUnnest,
  kOuterUnnest,
  kReduce,
  kNest,
};

const char* AlgKindName(AlgKind kind);

/// How a Nest derives group keys from a tuple.
struct GroupSpec {
  /// Key derivation: the exact term value, or its FilterKeys keys.
  FilteringAlgo algo = FilteringAlgo::kExactKey;
  /// The term the key derives from (e.g. c.address).
  ExprPtr term;
  /// Token filtering parameter.
  size_t q = 2;
  /// K-means parameters; `centers` are sampled at Prepare (from the
  /// dictionary or the data) before evaluation. See FilterKeys.
  double delta = 1.0;
  std::vector<std::string> centers;
};

/// One aggregation computed by a Nest: fold `expr` over the group members
/// with `monoid`, exposing the result as field `name`.
struct NestAgg {
  std::string name;
  std::string monoid;
  ExprPtr expr;
};

struct AlgOp;
using AlgOpPtr = std::shared_ptr<AlgOp>;

/// \brief One algebra operator. Tagged union, like Expr.
struct AlgOp {
  AlgKind kind;

  // kScan
  std::string table;  ///< name resolved against a Catalog at execution time
  std::string var;    ///< tuple variable the scan binds

  AlgOpPtr input;  ///< unary input / join left
  AlgOpPtr right;  ///< join right

  ExprPtr pred;  ///< kSelect / join predicate (may be null for cross)

  /// Optional equi-join keys: when both are set the join executes as a
  /// hash join on left_key = right_key with `pred` as residual filter.
  ExprPtr left_key, right_key;

  // kUnnest / kOuterUnnest
  ExprPtr path;          ///< collection-valued expression to iterate
  std::string path_var;  ///< variable bound to each element

  // kReduce
  std::string monoid;
  ExprPtr head;

  // kNest
  GroupSpec group;
  std::vector<NestAgg> aggs;
  ExprPtr having;               ///< over {key, <agg names>}; may be null
  std::string key_name = "key";

  /// The operator tree, one AlgHeadline per line, children indented.
  std::string ToString() const;
};

/// One operator's line of AlgOp::ToString() (and of EXPLAIN), without its
/// children: the kind plus its table, predicate, path, monoid or grouping.
std::string AlgHeadline(const AlgOp& op);

AlgOpPtr Scan(std::string table, std::string var);
AlgOpPtr SelectOp(AlgOpPtr input, ExprPtr pred);
AlgOpPtr JoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr pred);
AlgOpPtr EquiJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key,
                    ExprPtr residual_pred = nullptr);
AlgOpPtr OuterJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key);
AlgOpPtr UnnestOp(AlgOpPtr input, ExprPtr path, std::string path_var, bool outer = false);
AlgOpPtr ReduceOp(AlgOpPtr input, std::string monoid, ExprPtr head);
AlgOpPtr NestOp(AlgOpPtr input, GroupSpec group, std::vector<NestAgg> aggs,
                ExprPtr having = nullptr, std::string key_name = "key");

/// Deep structural equality of plans (used by the rewriter to detect
/// shareable sub-plans).
bool AlgEquals(const AlgOpPtr& a, const AlgOpPtr& b);

/// Deep copy.
AlgOpPtr AlgClone(const AlgOpPtr& op);

}  // namespace cleanm
