// Expression compilation for the physical layer (paper Section 7: the Code
// Generator emits a Spark script; our analogue compiles expression trees
// into C++ closures once per plan, so per-row evaluation does no tree
// walking or name resolution).
//
// Physical tuples are single-Value rows holding the algebra-level tuple
// struct {var → record}. The compiler resolves variable references to
// positional indexes against the plan's deterministic layout, and each
// builtin call to its entry in the builtin table (monoid/eval.h), arity
// checked, once. Operands of calls, comparisons and field accesses that
// are variables or literals are read in place, not copied per row.
//
// Error semantics: compiled expressions *null-propagate* (type mismatches
// and unknown fields yield null, and predicates treat null as false), the
// usual engine behaviour for dirty data — the reference evaluator's strict
// errors are for plan debugging, not for per-row data errors.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "functions/function_registry.h"
#include "monoid/expr.h"

namespace cleanm {

/// Deterministic variable layout of a plan node's output tuples.
using TupleLayout = std::vector<std::string>;

/// A compiled expression: tuple → value.
using CompiledExpr = std::function<Value(const Value& tuple)>;

/// \brief Compile-time context beyond the tuple layout: the session's
/// function registry (registered scalar/repair functions resolve in call
/// position; registration rejects builtin-shadowing names, so resolution
/// order cannot change a query's meaning) and the metrics sink charged one
/// `udf_calls` tick per registered-function invocation.
struct CompileEnv {
  const FunctionRegistry* functions = nullptr;
  QueryMetrics* metrics = nullptr;
};

/// Compiles `e` against `layout`. Unknown variables are a plan-time error.
Result<CompiledExpr> CompileExpr(const ExprPtr& e, const TupleLayout& layout,
                                 const CompileEnv& env = {});

/// Compiles a predicate: null or non-bool results become false.
Result<std::function<bool(const Value&)>> CompilePredicate(const ExprPtr& e,
                                                           const TupleLayout& layout,
                                                           const CompileEnv& env = {});

}  // namespace cleanm
