#include "monoid/eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "text/similarity.h"

namespace cleanm {

namespace {

Result<Value> EvalBinary(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
      if (l.type() == ValueType::kString && r.type() == ValueType::kString) {
        return Value(l.AsString() + r.AsString());
      }
      [[fallthrough]];
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::TypeError("arithmetic on non-numeric values");
      }
      const double a = l.ToDouble(), b = r.ToDouble();
      double result = 0;
      switch (op) {
        case BinaryOp::kAdd: result = a + b; break;
        case BinaryOp::kSub: result = a - b; break;
        case BinaryOp::kMul: result = a * b; break;
        case BinaryOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          result = a / b;
          break;
        default: break;
      }
      if (l.type() == ValueType::kInt && r.type() == ValueType::kInt &&
          op != BinaryOp::kDiv) {
        return Value(static_cast<int64_t>(result));
      }
      return Value(result);
    }
    case BinaryOp::kEq: return Value(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value(l.Compare(r) != 0);
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      // Ordering against null is unknown, as in the engine: Value::Compare
      // puts null first only so that sorting is total.
      if (l.is_null() || r.is_null()) return Value::Null();
      const int c = l.Compare(r);
      if (op == BinaryOp::kLt) return Value(c < 0);
      if (op == BinaryOp::kLe) return Value(c <= 0);
      if (op == BinaryOp::kGt) return Value(c > 0);
      return Value(c >= 0);
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) {
        return Status::TypeError("boolean operator on non-boolean values");
      }
      return Value(op == BinaryOp::kAnd ? (l.AsBool() && r.AsBool())
                                        : (l.AsBool() || r.AsBool()));
    }
  }
  return Status::Internal("unhandled binary op");
}

/// Recursive comprehension loop: processes qualifiers[qi..] under env,
/// folding head values into *acc.
Status RunComprehension(const ComprehensionExpr& comp, size_t qi, Env env,
                        const EvalContext& ctx, const Monoid* monoid, Value* acc) {
  if (qi == comp.qualifiers.size()) {
    auto head = EvalExpr(comp.head, env, ctx);
    if (!head.ok()) return head.status();
    *acc = monoid->Accumulate(std::move(*acc), head.value());
    return Status::OK();
  }
  const Qualifier& q = comp.qualifiers[qi];
  switch (q.kind) {
    case Qualifier::Kind::kGenerator: {
      auto source = EvalExpr(q.expr, env, ctx);
      if (!source.ok()) return source.status();
      if (source.value().is_null()) return Status::OK();  // empty source
      if (source.value().type() != ValueType::kList) {
        return Status::TypeError("generator source is not a collection: " +
                                 q.expr->ToString());
      }
      for (const auto& element : source.value().AsList()) {
        Env inner = env;
        inner[q.var] = element;
        CLEANM_RETURN_NOT_OK(
            RunComprehension(comp, qi + 1, std::move(inner), ctx, monoid, acc));
      }
      return Status::OK();
    }
    case Qualifier::Kind::kPredicate: {
      auto pred = EvalExpr(q.expr, env, ctx);
      if (!pred.ok()) return pred.status();
      if (pred.value().is_null()) return Status::OK();  // unknown: not satisfied
      if (pred.value().type() != ValueType::kBool) {
        return Status::TypeError("predicate did not evaluate to bool: " +
                                 q.expr->ToString());
      }
      if (!pred.value().AsBool()) return Status::OK();
      return RunComprehension(comp, qi + 1, std::move(env), ctx, monoid, acc);
    }
    case Qualifier::Kind::kBinding: {
      auto bound = EvalExpr(q.expr, env, ctx);
      if (!bound.ok()) return bound.status();
      env[q.var] = bound.MoveValue();
      return RunComprehension(comp, qi + 1, std::move(env), ctx, monoid, acc);
    }
  }
  return Status::Internal("unhandled qualifier kind");
}

}  // namespace

Result<Value> EvalExpr(const ExprPtr& e, const Env& env, const EvalContext& ctx) {
  if (!e) return Status::Internal("null expression");
  switch (e->kind) {
    case ExprKind::kConst: return e->literal;
    case ExprKind::kVar: {
      auto it = env.find(e->name);
      if (it == env.end()) return Status::KeyError("unbound variable '" + e->name + "'");
      return it->second;
    }
    case ExprKind::kField: {
      CLEANM_ASSIGN_OR_RETURN(Value base, EvalExpr(e->child, env, ctx));
      return base.GetField(e->name);
    }
    case ExprKind::kBinary: {
      // Short-circuit boolean operators.
      if (e->bin_op == BinaryOp::kAnd || e->bin_op == BinaryOp::kOr) {
        CLEANM_ASSIGN_OR_RETURN(Value l, EvalExpr(e->lhs, env, ctx));
        if (l.is_null()) return Value::Null();
        if (l.type() != ValueType::kBool) {
          return Status::TypeError("boolean operator on non-boolean value");
        }
        if (e->bin_op == BinaryOp::kAnd && !l.AsBool()) return Value(false);
        if (e->bin_op == BinaryOp::kOr && l.AsBool()) return Value(true);
        return EvalExpr(e->rhs, env, ctx);
      }
      CLEANM_ASSIGN_OR_RETURN(Value l, EvalExpr(e->lhs, env, ctx));
      CLEANM_ASSIGN_OR_RETURN(Value r, EvalExpr(e->rhs, env, ctx));
      return EvalBinary(e->bin_op, l, r);
    }
    case ExprKind::kUnary: {
      CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(e->child, env, ctx));
      if (v.is_null()) return Value::Null();
      if (e->un_op == UnaryOp::kNot) {
        if (v.type() != ValueType::kBool) return Status::TypeError("not on non-bool");
        return Value(!v.AsBool());
      }
      if (!v.is_numeric()) return Status::TypeError("negation of non-numeric");
      if (v.type() == ValueType::kInt) return Value(-v.AsInt());
      return Value(-v.AsDouble());
    }
    case ExprKind::kIf: {
      CLEANM_ASSIGN_OR_RETURN(Value c, EvalExpr(e->cond, env, ctx));
      if (c.is_null()) return Value::Null();
      if (c.type() != ValueType::kBool) return Status::TypeError("if condition not bool");
      return EvalExpr(c.AsBool() ? e->then_e : e->else_e, env, ctx);
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(e->args.size());
      for (const auto& a : e->args) {
        CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(a, env, ctx));
        args.push_back(std::move(v));
      }
      auto r = EvalBuiltin(e->name, args);
      if (!r.ok() && r.status().code() == StatusCode::kKeyError &&
          ctx.call_fallback) {
        return ctx.call_fallback(e->name, args);
      }
      return r;
    }
    case ExprKind::kRecord: {
      ValueStruct fields;
      for (size_t i = 0; i < e->field_names.size(); i++) {
        CLEANM_ASSIGN_OR_RETURN(Value v, EvalExpr(e->field_values[i], env, ctx));
        fields.emplace_back(e->field_names[i], std::move(v));
      }
      return Value(std::move(fields));
    }
    case ExprKind::kComprehension: {
      CLEANM_ASSIGN_OR_RETURN(const Monoid* monoid, LookupMonoid(e->comp.monoid));
      Value acc = monoid->zero();
      CLEANM_RETURN_NOT_OK(RunComprehension(e->comp, 0, env, ctx, monoid, &acc));
      return acc;
    }
  }
  return Status::Internal("unhandled expression kind");
}

namespace {

Result<std::string_view> StringArg(const char* fn, const Value& v) {
  if (v.is_null()) return std::string_view();
  if (v.type() != ValueType::kString) {
    return Status::TypeError(std::string(fn) + ": expected string, got " +
                             ValueTypeName(v.type()));
  }
  return std::string_view(v.AsString());
}

Result<SimilarityMetric> MetricArg(const char* fn, const Value& v) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view name, StringArg(fn, v));
  SimilarityMetric metric = SimilarityMetric::kLevenshtein;
  if (!ParseSimilarityMetric(name, &metric)) {
    return Status::InvalidArgument("unknown similarity metric '" + std::string(name) +
                                   "'");
  }
  return metric;
}

Result<Value> Prefix(BuiltinArgs args) {
  // prefix(phone): the region prefix — everything before the first '-',
  // or the first three characters when there is no separator.
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("prefix", args[0]));
  const size_t dash = s.find('-');
  return Value(std::string(dash != std::string_view::npos ? s.substr(0, dash)
                                                          : s.substr(0, 3)));
}

Result<Value> MapChars(const char* fn, const Value& arg, int (*map)(int)) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view in, StringArg(fn, arg));
  std::string s(in);
  for (char& c : s) c = static_cast<char>(map(static_cast<unsigned char>(c)));
  return Value(std::move(s));
}

Result<Value> Lower(BuiltinArgs args) {
  return MapChars("lower", args[0], [](int c) { return std::tolower(c); });
}

Result<Value> Upper(BuiltinArgs args) {
  return MapChars("upper", args[0], [](int c) { return std::toupper(c); });
}

Result<Value> Trim(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("trim", args[0]));
  const size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return Value(std::string());
  const size_t e = s.find_last_not_of(" \t\r\n");
  return Value(std::string(s.substr(b, e - b + 1)));
}

Result<Value> Substr(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("substr", args[0]));
  const auto start = static_cast<size_t>(std::max<int64_t>(0, args[1].AsInt()));
  const auto len = static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()));
  if (start >= s.size()) return Value(std::string());
  return Value(std::string(s.substr(start, len)));
}

Result<Value> Length(BuiltinArgs args) {
  if (args[0].type() == ValueType::kList) {
    return Value(static_cast<int64_t>(args[0].AsList().size()));
  }
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("length", args[0]));
  return Value(static_cast<int64_t>(s.size()));
}

Result<Value> Contains(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("contains", args[0]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view sub, StringArg("contains", args[1]));
  return Value(s.find(sub) != std::string_view::npos);
}

Result<Value> Concat(BuiltinArgs args) {
  std::string out;
  for (size_t i = 0; i < args.size(); i++) {
    const Value& a = args[i];
    if (a.type() == ValueType::kString) {
      out += a.AsString();
    } else if (!a.is_null()) {
      out += a.ToString();
    }
  }
  return Value(std::move(out));
}

Result<Value> Split(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("split", args[0]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view delim, StringArg("split", args[1]));
  if (delim.empty()) return Status::InvalidArgument("split: empty delimiter");
  ValueList parts;
  size_t pos = 0;
  while (true) {
    const size_t next = s.find(delim, pos);
    if (next == std::string_view::npos) {
      parts.push_back(Value(std::string(s.substr(pos))));
      break;
    }
    parts.push_back(Value(std::string(s.substr(pos, next - pos))));
    pos = next + delim.size();
  }
  return Value(std::move(parts));
}

Result<Value> Tokens(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("tokens", args[0]));
  const int64_t q = args[1].AsInt();
  if (q < 1) {
    return Status::InvalidArgument("tokens: q-gram length must be at least 1, got " +
                                   std::to_string(q));
  }
  ValueList grams;
  for (auto& g : QGrams(s, static_cast<size_t>(q))) grams.push_back(Value(std::move(g)));
  return Value(std::move(grams));
}

Result<Value> Levenshtein(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(std::string_view a, StringArg("levenshtein", args[0]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view b, StringArg("levenshtein", args[1]));
  return Value(static_cast<int64_t>(LevenshteinDistance(a, b)));
}

Result<Value> Similarity(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(SimilarityMetric metric, MetricArg("similarity", args[0]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view a, StringArg("similarity", args[1]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view b, StringArg("similarity", args[2]));
  return Value(StringSimilarity(metric, a, b));
}

Result<Value> Similar(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(SimilarityMetric metric, MetricArg("similar", args[0]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view a, StringArg("similar", args[1]));
  CLEANM_ASSIGN_OR_RETURN(std::string_view b, StringArg("similar", args[2]));
  const double theta = args[3].ToDouble();
  if (metric == SimilarityMetric::kLevenshtein) {
    return Value(LevenshteinSimilarAtLeast(a, b, theta));  // early-exit path
  }
  return Value(StringSimilarity(metric, a, b) >= theta);
}

/// Component `index` (0 year, 1 month, 2 day) of a "YYYY-MM-DD" date: the
/// index-th '-'-separated piece with its digits read as one number, other
/// characters skipped. Null for a null date and for a missing or digit-less
/// piece.
Result<Value> DatePart(const char* fn, const Value& arg, int index) {
  if (arg.is_null()) return Value::Null();
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg(fn, arg));
  size_t pos = 0;
  for (int i = 0; i < index; i++) {
    pos = s.find('-', pos);
    if (pos == std::string_view::npos) return Value::Null();
    pos++;
  }
  uint64_t number = 0;
  bool digits = false;
  for (; pos < s.size() && s[pos] != '-'; pos++) {
    if (s[pos] < '0' || s[pos] > '9') continue;
    number = number * 10 + static_cast<uint64_t>(s[pos] - '0');
    digits = true;
  }
  return digits ? Value(static_cast<int64_t>(number)) : Value::Null();
}

Result<Value> Year(BuiltinArgs args) { return DatePart("year", args[0], 0); }
Result<Value> Month(BuiltinArgs args) { return DatePart("month", args[0], 1); }
Result<Value> Day(BuiltinArgs args) { return DatePart("day", args[0], 2); }

Result<Value> Abs(BuiltinArgs args) {
  if (args[0].type() == ValueType::kInt) return Value(std::abs(args[0].AsInt()));
  if (args[0].type() == ValueType::kDouble) return Value(std::fabs(args[0].AsDouble()));
  return Status::TypeError("abs: non-numeric argument");
}

Result<Value> Stringify(BuiltinArgs args) { return Value(args[0].ToString()); }

Result<Value> ToInt(BuiltinArgs args) {
  if (args[0].type() == ValueType::kInt) return args[0];
  if (args[0].type() == ValueType::kDouble) {
    return Value(static_cast<int64_t>(args[0].AsDouble()));
  }
  CLEANM_ASSIGN_OR_RETURN(std::string_view s, StringArg("to_int", args[0]));
  return Value(static_cast<int64_t>(std::strtoll(std::string(s).c_str(), nullptr, 10)));
}

Result<const ValueList*> ListArg(const char* fn, const Value& v) {
  if (v.type() != ValueType::kList) {
    return Status::TypeError(std::string(fn) + ": not a list");
  }
  return &v.AsList();
}

/// Appends the elements of `from` not already in `out` (structural
/// equality; first occurrence wins).
void AppendDistinct(const ValueList& from, ValueList* out) {
  for (const auto& v : from) {
    bool found = false;
    for (const auto& existing : *out) {
      if (existing.Equals(v)) {
        found = true;
        break;
      }
    }
    if (!found) out->push_back(v);
  }
}

Result<Value> Distinct(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(const ValueList* list, ListArg("distinct", args[0]));
  ValueList out;
  AppendDistinct(*list, &out);
  return Value(std::move(out));
}

Result<Value> Count(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(const ValueList* list, ListArg("count", args[0]));
  return Value(static_cast<int64_t>(list->size()));
}

Result<Value> Avg(BuiltinArgs args) {
  CLEANM_ASSIGN_OR_RETURN(const ValueList* list, ListArg("avg", args[0]));
  double sum = 0;
  size_t n = 0;
  for (const auto& v : *list) {
    if (v.is_null()) continue;
    if (!v.is_numeric()) return Status::TypeError("avg: non-numeric element");
    sum += v.ToDouble();
    n++;
  }
  if (n == 0) return Value::Null();
  return Value(sum / static_cast<double>(n));
}

Status CollectionPair(const char* fn, BuiltinArgs args) {
  if (args[0].type() != ValueType::kList || args[1].type() != ValueType::kList) {
    return Status::TypeError(std::string(fn) +
                             ": both arguments must be collections");
  }
  return Status::OK();
}

Result<Value> BagConcat(BuiltinArgs args) {
  // ⊕ of the bag/list monoids in expression form (used by if-splitting).
  CLEANM_RETURN_NOT_OK(CollectionPair("bag_concat", args));
  ValueList out = args[0].AsList();
  const auto& other = args[1].AsList();
  out.insert(out.end(), other.begin(), other.end());
  return Value(std::move(out));
}

Result<Value> SetUnion(BuiltinArgs args) {
  CLEANM_RETURN_NOT_OK(CollectionPair("set_union", args));
  ValueList out = args[0].AsList();
  AppendDistinct(args[1].AsList(), &out);
  return Value(std::move(out));
}

Result<Value> IsNull(BuiltinArgs args) { return Value(args[0].is_null()); }

constexpr Builtin kBuiltins[] = {
    {"prefix", 1, Prefix},
    {"lower", 1, Lower},
    {"upper", 1, Upper},
    {"trim", 1, Trim},
    {"substr", 3, Substr},
    {"length", 1, Length},
    {"contains", 2, Contains},
    {"concat", -1, Concat},
    {"split", 2, Split},
    {"tokens", 2, Tokens},
    {"levenshtein", 2, Levenshtein},
    {"similarity", 3, Similarity},
    {"similar", 4, Similar},
    {"year", 1, Year},
    {"month", 1, Month},
    {"day", 1, Day},
    {"abs", 1, Abs},
    {"to_string", 1, Stringify},
    {"to_int", 1, ToInt},
    {"distinct", 1, Distinct},
    {"count", 1, Count},
    {"avg", 1, Avg},
    {"bag_concat", 2, BagConcat},
    {"set_union", 2, SetUnion},
    {"is_null", 1, IsNull},
};

}  // namespace

const Builtin* FindBuiltin(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

Status CheckBuiltinArity(const Builtin& builtin, size_t num_args) {
  if (builtin.arity < 0 || static_cast<size_t>(builtin.arity) == num_args) {
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(builtin.name) + " expects " +
                                 std::to_string(builtin.arity) + " argument(s), got " +
                                 std::to_string(num_args));
}

Result<Value> EvalBuiltin(const std::string& name, const std::vector<Value>& args) {
  const Builtin* builtin = FindBuiltin(name);
  if (builtin == nullptr) {
    return Status::KeyError("unknown builtin function '" + name + "'");
  }
  CLEANM_RETURN_NOT_OK(CheckBuiltinArity(*builtin, args.size()));
  std::vector<const Value*> values;
  values.reserve(args.size());
  for (const Value& a : args) values.push_back(&a);
  return builtin->fn(BuiltinArgs{values.data(), values.size()});
}

}  // namespace cleanm
