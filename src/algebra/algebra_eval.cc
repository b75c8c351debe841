#include "algebra/algebra_eval.h"

#include <unordered_map>

#include "monoid/eval.h"

namespace cleanm {

Value RowToRecord(const Schema& schema, const Row& row) {
  ValueStruct fields;
  fields.reserve(row.size());
  for (size_t i = 0; i < row.size(); i++) {
    fields.emplace_back(schema.field(i).name, row[i]);
  }
  return Value(std::move(fields));
}

std::vector<std::string> CollectVars(const AlgOpPtr& plan) {
  std::vector<std::string> vars;
  if (!plan) return vars;
  switch (plan->kind) {
    case AlgKind::kScan:
      vars.push_back(plan->var);
      return vars;
    case AlgKind::kNest: {
      vars.push_back(plan->key_name);
      for (const auto& agg : plan->aggs) vars.push_back(agg.name);
      return vars;
    }
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest: {
      vars = CollectVars(plan->input);
      vars.push_back(plan->path_var);
      return vars;
    }
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: {
      vars = CollectVars(plan->input);
      auto rv = CollectVars(plan->right);
      vars.insert(vars.end(), rv.begin(), rv.end());
      return vars;
    }
    default:
      return CollectVars(plan->input);
  }
}

namespace {

/// Tuple = struct Value {var → record}. Builds an Env for expression eval.
Env TupleToEnv(const Value& tuple) {
  Env env;
  for (const auto& [var, val] : tuple.AsStruct()) env[var] = val;
  return env;
}

Value MergeTuples(const Value& a, const Value& b) {
  ValueStruct merged = a.AsStruct();
  const auto& bs = b.AsStruct();
  merged.insert(merged.end(), bs.begin(), bs.end());
  return Value(std::move(merged));
}

/// Computes the group keys of a tuple under a GroupSpec. Exact grouping
/// yields the term itself; token filtering and k-means yield FilterKeys
/// (none for a non-string term), the same function the engine calls.
Result<std::vector<Value>> GroupKeys(const GroupSpec& group, const Env& env,
                                     const EvalContext& ctx) {
  CLEANM_ASSIGN_OR_RETURN(Value term, EvalExpr(group.term, env, ctx));
  if (group.algo == FilteringAlgo::kExactKey) return std::vector<Value>{term};
  if (group.algo == FilteringAlgo::kKMeans && group.centers.empty()) {
    return Status::InvalidArgument(
        "k-means Nest evaluated without sampled centers; Prepare must fill "
        "GroupSpec::centers first");
  }
  std::vector<Value> keys;
  for (auto& key : FilterKeys(group.algo, term, group.q, group.delta, group.centers)) {
    keys.push_back(Value(std::move(key)));
  }
  return keys;
}

/// Builds the expression-evaluation context from the catalog: registered
/// scalar/repair functions resolve in call position (strictly — unlike the
/// physical path, errors propagate, which is what the cross-check tests
/// want from a reference semantics).
EvalContext MakeEvalContext(const Catalog& catalog) {
  EvalContext ctx;
  if (catalog.functions != nullptr) {
    const FunctionRegistry* functions = catalog.functions;
    ctx.call_fallback = [functions](const std::string& name,
                                    const std::vector<Value>& args) -> Result<Value> {
      if (const ScalarFunction* fn = functions->FindScalar(name)) return fn->fn(args);
      return Status::KeyError("unknown function '" + name + "'");
    };
  }
  return ctx;
}

Result<std::vector<Value>> Eval(const AlgOpPtr& plan, const Catalog& catalog,
                                const EvalContext& ctx) {
  if (!plan) return Status::Internal("null plan");
  switch (plan->kind) {
    case AlgKind::kScan: {
      CLEANM_ASSIGN_OR_RETURN(const Dataset* table, catalog.Find(plan->table));
      std::vector<Value> out;
      out.reserve(table->num_rows());
      for (const auto& row : table->rows()) {
        out.push_back(Value(ValueStruct{{plan->var, RowToRecord(table->schema(), row)}}));
      }
      return out;
    }
    case AlgKind::kSelect: {
      CLEANM_ASSIGN_OR_RETURN(std::vector<Value> in, Eval(plan->input, catalog, ctx));
      std::vector<Value> out;
      for (auto& tuple : in) {
        CLEANM_ASSIGN_OR_RETURN(Value p, EvalExpr(plan->pred, TupleToEnv(tuple), ctx));
        if (p.is_null()) continue;  // unknown: the row fails, as in the engine
        if (p.type() != ValueType::kBool) {
          return Status::TypeError("selection predicate is not boolean");
        }
        if (p.AsBool()) out.push_back(std::move(tuple));
      }
      return out;
    }
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: {
      CLEANM_ASSIGN_OR_RETURN(std::vector<Value> left, Eval(plan->input, catalog, ctx));
      CLEANM_ASSIGN_OR_RETURN(std::vector<Value> right, Eval(plan->right, catalog, ctx));
      const bool outer = plan->kind == AlgKind::kOuterJoin;
      const auto right_vars = CollectVars(plan->right);
      std::vector<Value> out;
      for (const auto& l : left) {
        const Env lenv = TupleToEnv(l);
        bool matched = false;
        for (const auto& r : right) {
          Env env = lenv;
          for (const auto& [var, val] : r.AsStruct()) env[var] = val;
          bool ok = true;
          if (plan->left_key) {
            CLEANM_ASSIGN_OR_RETURN(Value lk, EvalExpr(plan->left_key, lenv, ctx));
            CLEANM_ASSIGN_OR_RETURN(Value rk, EvalExpr(plan->right_key, TupleToEnv(r), ctx));
            ok = lk.Equals(rk);
          }
          if (ok && plan->pred) {
            CLEANM_ASSIGN_OR_RETURN(Value p, EvalExpr(plan->pred, env, ctx));
            ok = p.type() == ValueType::kBool && p.AsBool();
          }
          if (ok) {
            matched = true;
            out.push_back(MergeTuples(l, r));
          }
        }
        if (outer && !matched) {
          ValueStruct padded = l.AsStruct();
          for (const auto& var : right_vars) padded.emplace_back(var, Value::Null());
          out.push_back(Value(std::move(padded)));
        }
      }
      return out;
    }
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest: {
      CLEANM_ASSIGN_OR_RETURN(std::vector<Value> in, Eval(plan->input, catalog, ctx));
      const bool outer = plan->kind == AlgKind::kOuterUnnest;
      std::vector<Value> out;
      for (const auto& tuple : in) {
        CLEANM_ASSIGN_OR_RETURN(Value coll, EvalExpr(plan->path, TupleToEnv(tuple), ctx));
        if (coll.is_null() || (coll.type() == ValueType::kList && coll.AsList().empty())) {
          if (outer) {
            ValueStruct padded = tuple.AsStruct();
            padded.emplace_back(plan->path_var, Value::Null());
            out.push_back(Value(std::move(padded)));
          }
          continue;
        }
        if (coll.type() != ValueType::kList) {
          // A scalar in a nested position behaves as a singleton (common in
          // XML data where one author is scalar, many are a list).
          ValueStruct padded = tuple.AsStruct();
          padded.emplace_back(plan->path_var, coll);
          out.push_back(Value(std::move(padded)));
          continue;
        }
        for (const auto& element : coll.AsList()) {
          ValueStruct padded = tuple.AsStruct();
          padded.emplace_back(plan->path_var, element);
          out.push_back(Value(std::move(padded)));
        }
      }
      return out;
    }
    case AlgKind::kNest: {
      CLEANM_ASSIGN_OR_RETURN(std::vector<Value> in, Eval(plan->input, catalog, ctx));
      // Group: key → per-aggregation accumulator.
      struct GroupAccs {
        std::vector<Value> accs;
      };
      std::vector<const Monoid*> monoids;
      std::vector<const AggregateFunction*> udfs;
      for (const auto& agg : plan->aggs) {
        const AggregateFunction* udf = nullptr;
        CLEANM_ASSIGN_OR_RETURN(
            const Monoid* m, ResolveAggregateMonoid(catalog.functions, agg.monoid, &udf));
        monoids.push_back(m);
        udfs.push_back(udf);
      }
      std::unordered_map<Value, GroupAccs, ValueHash, ValueEq> groups;
      for (const auto& tuple : in) {
        const Env env = TupleToEnv(tuple);
        CLEANM_ASSIGN_OR_RETURN(std::vector<Value> keys, GroupKeys(plan->group, env, ctx));
        for (const auto& key : keys) {
          auto it = groups.find(key);
          if (it == groups.end()) {
            GroupAccs fresh;
            for (const auto* m : monoids) fresh.accs.push_back(m->zero());
            it = groups.emplace(key, std::move(fresh)).first;
          }
          for (size_t a = 0; a < plan->aggs.size(); a++) {
            CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(plan->aggs[a].expr, env, ctx));
            it->second.accs[a] = monoids[a]->Accumulate(std::move(it->second.accs[a]), v);
          }
        }
      }
      std::vector<Value> out;
      for (auto& [key, group] : groups) {
        ValueStruct tuple;
        tuple.emplace_back(plan->key_name, key);
        for (size_t a = 0; a < plan->aggs.size(); a++) {
          if (udfs[a] && udfs[a]->finalize) {
            // Strict reference semantics: a failing UDF finalize is an
            // error, not a null.
            CLEANM_ASSIGN_OR_RETURN(group.accs[a],
                                    udfs[a]->finalize({group.accs[a]}));
          }
          tuple.emplace_back(plan->aggs[a].name, std::move(group.accs[a]));
        }
        Value result(std::move(tuple));
        if (plan->having) {
          CLEANM_ASSIGN_OR_RETURN(Value h, EvalExpr(plan->having, TupleToEnv(result), ctx));
          if (h.is_null()) continue;
          if (h.type() != ValueType::kBool) {
            return Status::TypeError("having predicate is not boolean");
          }
          if (!h.AsBool()) continue;
        }
        out.push_back(std::move(result));
      }
      return out;
    }
    case AlgKind::kReduce:
      return Status::Internal("Reduce must be the plan root; use EvalPlan");
  }
  return Status::Internal("unhandled algebra kind");
}

}  // namespace

Result<std::vector<Value>> EvalPlanTuples(const AlgOpPtr& plan, const Catalog& catalog) {
  if (plan && plan->kind == AlgKind::kReduce) {
    return Status::InvalidArgument("EvalPlanTuples on a Reduce-rooted plan");
  }
  return Eval(plan, catalog, MakeEvalContext(catalog));
}

Result<Value> EvalPlan(const AlgOpPtr& plan, const Catalog& catalog) {
  if (!plan) return Status::Internal("null plan");
  const EvalContext ctx = MakeEvalContext(catalog);
  if (plan->kind != AlgKind::kReduce) {
    CLEANM_ASSIGN_OR_RETURN(std::vector<Value> tuples, Eval(plan, catalog, ctx));
    return Value(ValueList(tuples.begin(), tuples.end()));
  }
  const AggregateFunction* udf = nullptr;
  CLEANM_ASSIGN_OR_RETURN(const Monoid* monoid,
                          ResolveAggregateMonoid(catalog.functions, plan->monoid, &udf));
  CLEANM_ASSIGN_OR_RETURN(std::vector<Value> tuples, Eval(plan->input, catalog, ctx));
  Value acc = monoid->zero();
  for (const auto& tuple : tuples) {
    CLEANM_ASSIGN_OR_RETURN(Value head, EvalExpr(plan->head, TupleToEnv(tuple), ctx));
    acc = monoid->Accumulate(std::move(acc), head);
  }
  if (udf && udf->finalize) return udf->finalize({acc});
  return acc;
}

}  // namespace cleanm
