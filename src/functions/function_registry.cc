#include "functions/function_registry.h"

#include <mutex>

#include "monoid/eval.h"

namespace cleanm {

Status FunctionRegistry::CheckName(const std::string& name) const {
  if (name.empty()) return Status::InvalidArgument("function name is empty");
  if (FindBuiltin(name) != nullptr) {
    return Status::InvalidArgument("function '" + name +
                                   "' shadows a builtin function");
  }
  if (LookupMonoid(name).ok()) {
    return Status::InvalidArgument("function '" + name +
                                   "' shadows a builtin monoid");
  }
  if (scalars_.count(name) || aggregates_.count(name)) {
    return Status::InvalidArgument("function '" + name + "' is already registered");
  }
  return Status::OK();
}

Status FunctionRegistry::RegisterScalar(const std::string& name, int arity,
                                        UserFn fn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLEANM_RETURN_NOT_OK(CheckName(name));
  if (!fn) return Status::InvalidArgument("function '" + name + "' has no body");
  scalars_.emplace(name, ScalarFunction{name, arity, std::move(fn), false});
  return Status::OK();
}

Status FunctionRegistry::RegisterRepair(const std::string& name, int arity,
                                        UserFn fn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLEANM_RETURN_NOT_OK(CheckName(name));
  if (!fn) return Status::InvalidArgument("function '" + name + "' has no body");
  scalars_.emplace(name, ScalarFunction{name, arity, std::move(fn), true});
  return Status::OK();
}

Status FunctionRegistry::RegisterAggregate(const std::string& name, Value zero,
                                           std::function<Value(const Value&)> unit,
                                           std::function<Value(Value, const Value&)> merge,
                                           UserFn finalize, bool commutative,
                                           bool idempotent) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLEANM_RETURN_NOT_OK(CheckName(name));
  if (!unit || !merge) {
    return Status::InvalidArgument("aggregate '" + name +
                                   "' needs both a unit and a merge");
  }
  auto monoid = std::make_shared<Monoid>(name, std::move(zero), std::move(unit),
                                         std::move(merge), commutative, idempotent);
  aggregates_.emplace(
      name, AggregateFunction{name, std::move(monoid), std::move(finalize)});
  return Status::OK();
}

const ScalarFunction* FunctionRegistry::FindScalar(const std::string& name) const {
  // The returned pointer outlives the lock: map nodes are stable and never
  // erased (see the class doc).
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = scalars_.find(name);
  return it == scalars_.end() ? nullptr : &it->second;
}

const AggregateFunction* FunctionRegistry::FindAggregate(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = aggregates_.find(name);
  return it == aggregates_.end() ? nullptr : &it->second;
}

size_t FunctionRegistry::num_scalars() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return scalars_.size();
}

size_t FunctionRegistry::num_aggregates() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return aggregates_.size();
}

bool FunctionRegistry::IsRepair(const std::string& name) const {
  const ScalarFunction* fn = FindScalar(name);
  return fn != nullptr && fn->is_repair;
}

Status FunctionRegistry::ValidateCall(const std::string& name,
                                      size_t num_args) const {
  bool known = false;
  const auto n = static_cast<int>(num_args);

  if (const Builtin* builtin = FindBuiltin(name)) {
    known = true;
    if (CheckBuiltinArity(*builtin, num_args).ok()) return Status::OK();
  }
  if (const ScalarFunction* s = FindScalar(name)) {
    known = true;
    if (s->arity < 0 || s->arity == n) return Status::OK();
  }
  // Aggregate interpretations (builtin monoids and registered aggregates)
  // fold exactly one expression per group.
  if (FindAggregate(name) || LookupMonoid(name).ok()) {
    known = true;
    if (n == 1) return Status::OK();
  }

  if (!known) return Status::KeyError("unknown function '" + name + "'");
  return Status::KeyError("function '" + name + "' does not accept " +
                          std::to_string(num_args) + " argument(s)");
}

Result<const Monoid*> ResolveAggregateMonoid(const FunctionRegistry* functions,
                                             const std::string& name,
                                             const AggregateFunction** udf) {
  if (udf) *udf = nullptr;
  if (functions != nullptr) {
    if (const AggregateFunction* agg = functions->FindAggregate(name)) {
      if (udf) *udf = agg;
      return agg->monoid.get();
    }
  }
  return LookupMonoid(name);
}

}  // namespace cleanm
