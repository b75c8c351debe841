// Reference interpreter for the expression IR and monoid comprehensions.
//
// This is the *executable semantics* of CleanM: a direct, driver-side
// evaluation of comprehensions over in-memory collections. The distributed
// path (algebra → physical plan → engine) must agree with it; the test
// suite checks normalized comprehensions and the algebra plans built for
// them against this interpreter.
//
// It also owns the builtin function table ({name, arity, function}), the
// one description of the builtins: the physical compiler resolves a call's
// entry once at compile time, and this interpreter, Prepare-time call
// validation and the function registry read the same entries. Bodies read
// their arguments in place through `const Value*`.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "monoid/expr.h"
#include "monoid/monoid.h"

namespace cleanm {

/// Variable bindings. Collections are Values of list type; records are
/// struct Values, so field access works uniformly.
using Env = std::map<std::string, Value>;

/// \brief Evaluation context: an optional fallback for function calls the
/// builtin library does not know (registered user functions; supplied by
/// the algebra/cleaning layers so this module does not depend on the
/// function registry). Comprehension monoids resolve against LookupMonoid.
struct EvalContext {
  /// Tried when EvalBuiltin reports kKeyError for a call's name. Should
  /// itself return kKeyError for names it does not know either.
  std::function<Result<Value>(const std::string&, const std::vector<Value>&)>
      call_fallback;
};

/// Evaluates `e` under `env`. Comprehensions iterate their generators in
/// order (nested-loop semantics) and fold heads with the monoid's merge.
/// As in the engine, <, <=, > and >= with a null operand give null, a null
/// propagates through and/or/not and an if condition, and a null predicate
/// is not satisfied.
Result<Value> EvalExpr(const ExprPtr& e, const Env& env, const EvalContext& ctx = {});

/// \brief The arguments of one builtin call, read in place: each points at a
/// tuple slot, a literal, or a value the caller computed. A null argument
/// is a pointer to a null Value, never a null pointer.
struct BuiltinArgs {
  const Value* const* values;
  size_t count;

  size_t size() const { return count; }
  const Value& operator[](size_t i) const { return *values[i]; }
};

/// \brief One entry of the builtin function table: name, declared argument
/// count (-1 = variadic) and body. A body may assume its arity was checked.
/// Errors are strict here; the physical compiler turns them into nulls.
struct Builtin {
  const char* name;
  int arity;
  Result<Value> (*fn)(BuiltinArgs args);
};

/// The one builtin table, read by the physical compiler (which resolves a
/// call's entry and checks its arity once, at compile time), the reference
/// evaluator, Prepare-time call validation and the function registry's
/// shadowing check. nullptr when `name` is not a builtin.
///
/// Builtins: prefix, lower, upper, trim, substr, length, contains, concat,
/// split, tokens, levenshtein, similarity, similar, year, month, day, abs,
/// to_string, to_int, distinct, count, avg, bag_concat, set_union, is_null.
const Builtin* FindBuiltin(std::string_view name);

/// kInvalidArgument when `num_args` does not match `builtin`'s arity.
Status CheckBuiltinArity(const Builtin& builtin, size_t num_args);

/// By-name lookup and call, for the reference evaluator and the tests:
/// kKeyError for unknown names, kInvalidArgument for an arity mismatch.
Result<Value> EvalBuiltin(const std::string& name, const std::vector<Value>& args);

}  // namespace cleanm
