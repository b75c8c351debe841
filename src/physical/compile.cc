#include "physical/compile.h"

#include <algorithm>

#include "monoid/eval.h"

namespace cleanm {

namespace {

Value NullV() { return Value::Null(); }

/// Numeric/boolean binary with null propagation.
Value ApplyBinary(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq: return Value(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value(l.Compare(r) != 0);
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return NullV();
      const int c = l.Compare(r);
      switch (op) {
        case BinaryOp::kLt: return Value(c < 0);
        case BinaryOp::kLe: return Value(c <= 0);
        case BinaryOp::kGt: return Value(c > 0);
        default: return Value(c >= 0);
      }
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) return NullV();
      return Value(op == BinaryOp::kAnd ? (l.AsBool() && r.AsBool())
                                        : (l.AsBool() || r.AsBool()));
    }
    case BinaryOp::kAdd:
      if (l.type() == ValueType::kString && r.type() == ValueType::kString) {
        return Value(l.AsString() + r.AsString());
      }
      [[fallthrough]];
    default: {
      if (!l.is_numeric() || !r.is_numeric()) return NullV();
      const double a = l.ToDouble(), b = r.ToDouble();
      double result;
      switch (op) {
        case BinaryOp::kAdd: result = a + b; break;
        case BinaryOp::kSub: result = a - b; break;
        case BinaryOp::kMul: result = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) return NullV();
          result = a / b;
          break;
        default: return NullV();
      }
      if (l.type() == ValueType::kInt && r.type() == ValueType::kInt &&
          op != BinaryOp::kDiv) {
        return Value(static_cast<int64_t>(result));
      }
      return Value(result);
    }
  }
}

/// The tuple slot of variable `name`: positional access per the plan
/// layout, with a name scan if the tuple shape diverges (defensive, not
/// expected). A variable the tuple lacks reads as null.
const Value& SlotOf(const Value& tuple, size_t index, const std::string& name) {
  static const Value kNull;
  const auto& fields = tuple.AsStruct();
  if (index < fields.size() && fields[index].first == name) {
    return fields[index].second;
  }
  for (const auto& [fname, fval] : fields) {
    if (fname == name) return fval;
  }
  return kNull;
}

/// An operand of a call, comparison or field access. Variables and
/// literals are read in place, without copying the value; any other
/// expression is evaluated into the caller's scratch value.
struct Operand {
  static constexpr size_t kLiteral = static_cast<size_t>(-1);

  CompiledExpr computed;  ///< set for a computed operand
  Value literal;          ///< kConst
  size_t slot = kLiteral; ///< kVar: position in the tuple layout
  std::string name;       ///< kVar

  const Value* Read(const Value& tuple, Value* scratch) const {
    if (computed) {
      *scratch = computed(tuple);
      return scratch;
    }
    if (slot == kLiteral) return &literal;
    return &SlotOf(tuple, slot, name);
  }
};

Result<Operand> CompileOperand(const ExprPtr& e, const TupleLayout& layout,
                               const CompileEnv& env) {
  Operand op;
  if (e && e->kind == ExprKind::kConst) {
    op.literal = e->literal;
  } else if (e && e->kind == ExprKind::kVar) {
    const auto it = std::find(layout.begin(), layout.end(), e->name);
    if (it == layout.end()) {
      return Status::KeyError("variable '" + e->name + "' not in tuple layout");
    }
    op.slot = static_cast<size_t>(it - layout.begin());
    op.name = e->name;
  } else {
    CLEANM_ASSIGN_OR_RETURN(op.computed, CompileExpr(e, layout, env));
  }
  return op;
}

/// Calls a builtin body with its operands read in place. Results and
/// errors null-propagate: a failing call yields null.
Value CallBuiltin(Result<Value> (*body)(BuiltinArgs), const std::vector<Operand>& args,
                  const Value& tuple) {
  constexpr size_t kInline = 4;
  const size_t n = args.size();
  Value inline_scratch[kInline];
  const Value* inline_values[kInline] = {};
  std::vector<Value> heap_scratch;
  std::vector<const Value*> heap_values;
  Value* scratch = inline_scratch;
  const Value** values = inline_values;
  if (n > kInline) {
    heap_scratch.resize(n);
    heap_values.resize(n);
    scratch = heap_scratch.data();
    values = heap_values.data();
  }
  for (size_t i = 0; i < n; i++) values[i] = args[i].Read(tuple, &scratch[i]);
  auto r = body(BuiltinArgs{values, n});
  return r.ok() ? r.MoveValue() : Value::Null();
}

}  // namespace

Result<CompiledExpr> CompileExpr(const ExprPtr& e, const TupleLayout& layout,
                                 const CompileEnv& env) {
  if (!e) return Status::Internal("compiling null expression");
  switch (e->kind) {
    case ExprKind::kConst: {
      Value v = e->literal;
      return CompiledExpr([v](const Value&) { return v; });
    }
    case ExprKind::kVar: {
      CLEANM_ASSIGN_OR_RETURN(Operand var, CompileOperand(e, layout, env));
      return CompiledExpr([var](const Value& tuple) {
        return SlotOf(tuple, var.slot, var.name);
      });
    }
    case ExprKind::kField: {
      CLEANM_ASSIGN_OR_RETURN(Operand base, CompileOperand(e->child, layout, env));
      std::string field = e->name;
      return CompiledExpr([base, field](const Value& tuple) {
        Value scratch;
        const Value& record = *base.Read(tuple, &scratch);
        if (record.type() != ValueType::kStruct) return Value::Null();
        for (const auto& [name, v] : record.AsStruct()) {
          if (name == field) return v;
        }
        return Value::Null();
      });
    }
    case ExprKind::kBinary: {
      const BinaryOp op = e->bin_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        // Short-circuit.
        CLEANM_ASSIGN_OR_RETURN(CompiledExpr lhs, CompileExpr(e->lhs, layout, env));
        CLEANM_ASSIGN_OR_RETURN(CompiledExpr rhs, CompileExpr(e->rhs, layout, env));
        const bool is_and = op == BinaryOp::kAnd;
        return CompiledExpr([lhs, rhs, is_and](const Value& tuple) {
          const Value l = lhs(tuple);
          if (l.type() != ValueType::kBool) return Value::Null();
          if (is_and && !l.AsBool()) return Value(false);
          if (!is_and && l.AsBool()) return Value(true);
          return rhs(tuple);
        });
      }
      CLEANM_ASSIGN_OR_RETURN(Operand lhs, CompileOperand(e->lhs, layout, env));
      CLEANM_ASSIGN_OR_RETURN(Operand rhs, CompileOperand(e->rhs, layout, env));
      return CompiledExpr([lhs, rhs, op](const Value& tuple) {
        Value l, r;
        return ApplyBinary(op, *lhs.Read(tuple, &l), *rhs.Read(tuple, &r));
      });
    }
    case ExprKind::kUnary: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr child, CompileExpr(e->child, layout, env));
      const UnaryOp op = e->un_op;
      return CompiledExpr([child, op](const Value& tuple) {
        const Value v = child(tuple);
        if (op == UnaryOp::kNot) {
          if (v.type() != ValueType::kBool) return Value::Null();
          return Value(!v.AsBool());
        }
        if (v.type() == ValueType::kInt) return Value(-v.AsInt());
        if (v.type() == ValueType::kDouble) return Value(-v.AsDouble());
        return Value::Null();
      });
    }
    case ExprKind::kIf: {
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr cond, CompileExpr(e->cond, layout, env));
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr then_e, CompileExpr(e->then_e, layout, env));
      CLEANM_ASSIGN_OR_RETURN(CompiledExpr else_e, CompileExpr(e->else_e, layout, env));
      return CompiledExpr([cond, then_e, else_e](const Value& tuple) {
        const Value c = cond(tuple);
        if (c.type() != ValueType::kBool) return Value::Null();
        return c.AsBool() ? then_e(tuple) : else_e(tuple);
      });
    }
    case ExprKind::kCall: {
      std::vector<Operand> args;
      for (const auto& a : e->args) {
        CLEANM_ASSIGN_OR_RETURN(Operand op, CompileOperand(a, layout, env));
        args.push_back(std::move(op));
      }
      // Registered user functions (scalar + repair) resolve here; builtin
      // names can never collide with them (registration rejects shadows).
      // Registered-function errors null-propagate like builtin errors, and
      // each invocation charges one udf_calls tick.
      if (env.functions != nullptr) {
        if (const ScalarFunction* user = env.functions->FindScalar(e->name)) {
          const UserFn body = user->fn;
          QueryMetrics* metrics = env.metrics;
          return CompiledExpr([body, args, metrics](const Value& tuple) {
            std::vector<Value> vals;
            vals.reserve(args.size());
            for (const auto& a : args) {
              Value scratch;
              const Value* v = a.Read(tuple, &scratch);
              vals.push_back(v == &scratch ? std::move(scratch) : *v);
            }
            if (metrics) metrics->udf_calls++;
            auto r = body(vals);
            return r.ok() ? r.MoveValue() : Value::Null();
          });
        }
      }
      // A builtin resolves to its table entry once, here: unknown names and
      // arity mismatches fail at plan time, not per row.
      const Builtin* builtin = FindBuiltin(e->name);
      if (builtin == nullptr) {
        return Status::KeyError("unknown builtin function '" + e->name + "'");
      }
      CLEANM_RETURN_NOT_OK(CheckBuiltinArity(*builtin, args.size()));
      const auto body = builtin->fn;
      return CompiledExpr([body, args](const Value& tuple) {
        return CallBuiltin(body, args, tuple);
      });
    }
    case ExprKind::kRecord: {
      std::vector<CompiledExpr> values;
      for (const auto& v : e->field_values) {
        CLEANM_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(v, layout, env));
        values.push_back(std::move(c));
      }
      const std::vector<std::string> names = e->field_names;
      return CompiledExpr([names, values](const Value& tuple) {
        ValueStruct fields;
        fields.reserve(names.size());
        for (size_t i = 0; i < names.size(); i++) {
          fields.emplace_back(names[i], values[i](tuple));
        }
        return Value(std::move(fields));
      });
    }
    case ExprKind::kComprehension:
      return Status::NotImplemented(
          "nested comprehension reached the physical compiler; normalize it "
          "and build its algebra plan first");
  }
  return Status::Internal("unhandled expression kind");
}

Result<std::function<bool(const Value&)>> CompilePredicate(const ExprPtr& e,
                                                           const TupleLayout& layout,
                                                           const CompileEnv& env) {
  CLEANM_ASSIGN_OR_RETURN(CompiledExpr compiled, CompileExpr(e, layout, env));
  return std::function<bool(const Value&)>([compiled](const Value& tuple) {
    const Value v = compiled(tuple);
    return v.type() == ValueType::kBool && v.AsBool();
  });
}

}  // namespace cleanm
