#include "monoid/normalize.h"

#include <algorithm>

#include "monoid/eval.h"
#include "monoid/monoid.h"

namespace cleanm {

namespace {

bool IsConst(const ExprPtr& e) { return e && e->kind == ExprKind::kConst; }

bool IsConstBool(const ExprPtr& e, bool value) {
  return IsConst(e) && e->literal.type() == ValueType::kBool &&
         e->literal.AsBool() == value;
}

/// Is `name` an idempotent registered monoid? (needed for R5)
bool MonoidIdempotent(const std::string& name) {
  auto m = LookupMonoid(name);
  return m.ok() && m.value()->idempotent();
}

/// The zero element of a registered monoid, as a literal.
ExprPtr MonoidZero(const std::string& name) {
  auto m = LookupMonoid(name);
  if (!m.ok()) return nullptr;  // unknown monoid name
  return Const(m.value()->zero());
}

/// Can the elements of an inner `inner` collection comprehension be spliced
/// into an outer `outer` comprehension (R4)? Bags and lists splice into
/// anything; sets only into idempotent consumers (splicing a set into a bag
/// would change multiplicities).
bool CanUnnestInto(const std::string& inner, const std::string& outer) {
  if (inner == "bag" || inner == "list") return true;
  if (inner == "set") return MonoidIdempotent(outer) || outer == "set";
  return false;
}

/// One bottom-up rewrite pass. Returns the (possibly) rewritten node and
/// sets *changed when any rule fired.
ExprPtr Rewrite(const ExprPtr& e, NormalizeStats* stats, bool* changed);

ExprPtr RewriteChildren(const ExprPtr& e, NormalizeStats* stats, bool* changed) {
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kVar:
      return e;
    case ExprKind::kField:
      return FieldAccess(Rewrite(e->child, stats, changed), e->name);
    case ExprKind::kBinary:
      return Binary(e->bin_op, Rewrite(e->lhs, stats, changed),
                    Rewrite(e->rhs, stats, changed));
    case ExprKind::kUnary:
      return Unary(e->un_op, Rewrite(e->child, stats, changed));
    case ExprKind::kIf:
      return If(Rewrite(e->cond, stats, changed), Rewrite(e->then_e, stats, changed),
                Rewrite(e->else_e, stats, changed));
    case ExprKind::kCall: {
      std::vector<ExprPtr> args;
      for (const auto& a : e->args) args.push_back(Rewrite(a, stats, changed));
      return Call(e->name, std::move(args));
    }
    case ExprKind::kRecord: {
      std::vector<ExprPtr> values;
      for (const auto& v : e->field_values) values.push_back(Rewrite(v, stats, changed));
      return Record(e->field_names, std::move(values));
    }
    case ExprKind::kComprehension: {
      std::vector<Qualifier> quals;
      for (const auto& q : e->comp.qualifiers) {
        quals.push_back({q.kind, q.var, Rewrite(q.expr, stats, changed)});
      }
      return Comprehension(e->comp.monoid, Rewrite(e->comp.head, stats, changed),
                           std::move(quals));
    }
  }
  return e;
}

/// R7: folds operations whose operands are all literals. Builtin calls are
/// pure, so folding them is sound.
ExprPtr TryConstantFold(const ExprPtr& e, NormalizeStats* stats, bool* changed) {
  auto fold = [&](const ExprPtr& node) -> ExprPtr {
    Env empty_env;
    auto result = EvalExpr(node, empty_env);
    if (!result.ok()) return node;  // e.g. division by zero: leave for runtime
    if (stats) stats->constants_folded++;
    *changed = true;
    return Const(result.MoveValue());
  };
  switch (e->kind) {
    case ExprKind::kBinary:
      if (IsConst(e->lhs) && IsConst(e->rhs)) return fold(e);
      // Boolean identities with one constant side.
      if (e->bin_op == BinaryOp::kAnd) {
        if (IsConstBool(e->lhs, true)) { *changed = true; if (stats) stats->constants_folded++; return e->rhs; }
        if (IsConstBool(e->rhs, true)) { *changed = true; if (stats) stats->constants_folded++; return e->lhs; }
        if (IsConstBool(e->lhs, false) || IsConstBool(e->rhs, false)) {
          *changed = true;
          if (stats) stats->constants_folded++;
          return ConstBool(false);
        }
      }
      if (e->bin_op == BinaryOp::kOr) {
        if (IsConstBool(e->lhs, false)) { *changed = true; if (stats) stats->constants_folded++; return e->rhs; }
        if (IsConstBool(e->rhs, false)) { *changed = true; if (stats) stats->constants_folded++; return e->lhs; }
        if (IsConstBool(e->lhs, true) || IsConstBool(e->rhs, true)) {
          *changed = true;
          if (stats) stats->constants_folded++;
          return ConstBool(true);
        }
      }
      return e;
    case ExprKind::kUnary:
      if (IsConst(e->child)) return fold(e);
      return e;
    case ExprKind::kIf:
      if (IsConstBool(e->cond, true)) {
        *changed = true;
        if (stats) stats->constants_folded++;
        return e->then_e;
      }
      if (IsConstBool(e->cond, false)) {
        *changed = true;
        if (stats) stats->constants_folded++;
        return e->else_e;
      }
      return e;
    case ExprKind::kCall: {
      for (const auto& a : e->args) {
        if (!IsConst(a)) return e;
      }
      return fold(e);
    }
    default:
      return e;
  }
}

/// Applies the comprehension-body rules (R1–R6, R8, R9) to one
/// comprehension node.
ExprPtr RewriteComprehension(const ExprPtr& e, NormalizeStats* stats, bool* changed) {
  const std::string& monoid = e->comp.monoid;
  const auto& quals = e->comp.qualifiers;

  for (size_t i = 0; i < quals.size(); i++) {
    const Qualifier& q = quals[i];

    // R1: inline let-bindings into everything downstream.
    if (q.kind == Qualifier::Kind::kBinding) {
      std::vector<Qualifier> rest(quals.begin(), quals.begin() + i);
      ExprPtr head = e->comp.head;
      bool shadowed = false;
      for (size_t j = i + 1; j < quals.size(); j++) {
        const Qualifier& qj = quals[j];
        ExprPtr qe = shadowed ? qj.expr : Substitute(qj.expr, q.var, q.expr);
        rest.push_back({qj.kind, qj.var, std::move(qe)});
        if (qj.kind != Qualifier::Kind::kPredicate && qj.var == q.var) shadowed = true;
      }
      if (!shadowed) head = Substitute(head, q.var, q.expr);
      if (stats) stats->beta_reductions++;
      *changed = true;
      return Comprehension(monoid, std::move(head), std::move(rest));
    }

    if (q.kind == Qualifier::Kind::kGenerator) {
      // R2/R3: generator over a literal collection.
      if (IsConst(q.expr) && q.expr->literal.type() == ValueType::kList) {
        const auto& list = q.expr->literal.AsList();
        if (list.empty()) {
          ExprPtr zero = MonoidZero(monoid);
          if (zero) {
            if (stats) stats->empty_generators++;
            *changed = true;
            return zero;
          }
        } else if (list.size() == 1) {
          std::vector<Qualifier> rest(quals.begin(), quals.begin() + i);
          rest.push_back(Binding(q.var, Const(list[0])));
          rest.insert(rest.end(), quals.begin() + i + 1, quals.end());
          if (stats) stats->singleton_generators++;
          *changed = true;
          return Comprehension(monoid, e->comp.head, std::move(rest));
        }
      }
      // R4: generator over a nested collection comprehension.
      if (q.expr->kind == ExprKind::kComprehension &&
          CanUnnestInto(q.expr->comp.monoid, monoid)) {
        const auto& inner = q.expr->comp;
        std::vector<Qualifier> rest(quals.begin(), quals.begin() + i);
        for (const auto& iq : inner.qualifiers) rest.push_back(iq);
        rest.push_back(Binding(q.var, inner.head));
        rest.insert(rest.end(), quals.begin() + i + 1, quals.end());
        if (stats) stats->generator_unnestings++;
        *changed = true;
        return Comprehension(monoid, e->comp.head, std::move(rest));
      }
    }

    if (q.kind == Qualifier::Kind::kPredicate) {
      // R6: constant predicates.
      if (IsConstBool(q.expr, true)) {
        std::vector<Qualifier> rest(quals.begin(), quals.begin() + i);
        rest.insert(rest.end(), quals.begin() + i + 1, quals.end());
        if (stats) stats->predicate_simplifications++;
        *changed = true;
        return Comprehension(monoid, e->comp.head, std::move(rest));
      }
      if (IsConstBool(q.expr, false)) {
        ExprPtr zero = MonoidZero(monoid);
        if (zero) {
          if (stats) stats->predicate_simplifications++;
          *changed = true;
          return zero;
        }
      }
      // R5: existential quantification some{p | q*} as a predicate of an
      // idempotent comprehension unnests into the body.
      if (q.expr->kind == ExprKind::kComprehension && q.expr->comp.monoid == "some" &&
          MonoidIdempotent(monoid)) {
        const auto& inner = q.expr->comp;
        std::vector<Qualifier> rest(quals.begin(), quals.begin() + i);
        for (const auto& iq : inner.qualifiers) rest.push_back(iq);
        rest.push_back(Predicate(inner.head));
        rest.insert(rest.end(), quals.begin() + i + 1, quals.end());
        if (stats) stats->existential_unnestings++;
        *changed = true;
        return Comprehension(monoid, e->comp.head, std::move(rest));
      }
    }
  }

  // R8: if-splitting in the head. ⊕{if c then a else b | q} becomes the
  // merge of two comprehensions with complementary predicates. Expressible
  // for monoids whose merge has an expression form: + for sum, bag_concat
  // for the collection monoids.
  if (e->comp.head->kind == ExprKind::kIf) {
    const auto& h = e->comp.head;
    auto make_arm = [&](ExprPtr arm_head, ExprPtr pred) {
      std::vector<Qualifier> arm_quals = quals;
      arm_quals.push_back(Predicate(std::move(pred)));
      return Comprehension(monoid, std::move(arm_head), std::move(arm_quals));
    };
    ExprPtr then_arm = make_arm(h->then_e, h->cond);
    ExprPtr else_arm = make_arm(h->else_e, Unary(UnaryOp::kNot, h->cond));
    if (monoid == "sum" || monoid == "count") {
      if (stats) stats->if_splits++;
      *changed = true;
      return Binary(BinaryOp::kAdd, std::move(then_arm), std::move(else_arm));
    }
    if (IsCollectionMonoid(monoid)) {
      if (stats) stats->if_splits++;
      *changed = true;
      return Call(monoid == "set" ? "set_union" : "bag_concat",
                  {std::move(then_arm), std::move(else_arm)});
    }
  }

  // R9: filter pushdown. A predicate moves to just after its *dependency
  // binder*: the latest binder preceding it (in original order) that binds
  // one of its free variables. Using the latest *preceding* binder keeps
  // shadowed variables correct. Predicates depending only on outer
  // variables move to the front.
  {
    // dep[i] for each predicate at index i: index of its dependency binder,
    // or SIZE_MAX when it has none.
    std::vector<std::vector<Qualifier>> after_binder(quals.size() + 1);
    std::vector<Qualifier> front;
    bool any_pred = false;
    for (size_t i = 0; i < quals.size(); i++) {
      if (quals[i].kind != Qualifier::Kind::kPredicate) continue;
      any_pred = true;
      const auto free = FreeVars(quals[i].expr);
      size_t dep = SIZE_MAX;
      for (size_t j = 0; j < i; j++) {
        if (quals[j].kind == Qualifier::Kind::kPredicate) continue;
        if (free.count(quals[j].var)) dep = (dep == SIZE_MAX || j > dep) ? j : dep;
      }
      if (dep == SIZE_MAX) {
        front.push_back(quals[i]);
      } else {
        after_binder[dep].push_back(quals[i]);
      }
    }
    if (any_pred) {
      std::vector<Qualifier> reordered = std::move(front);
      for (size_t i = 0; i < quals.size(); i++) {
        if (quals[i].kind == Qualifier::Kind::kPredicate) continue;
        reordered.push_back(quals[i]);
        for (auto& p : after_binder[i]) reordered.push_back(std::move(p));
      }
      // Fire only if the order actually changed.
      bool same = reordered.size() == quals.size();
      for (size_t i = 0; same && i < quals.size(); i++) {
        same = reordered[i].kind == quals[i].kind && reordered[i].var == quals[i].var &&
               ExprEquals(reordered[i].expr, quals[i].expr);
      }
      if (!same) {
        if (stats) stats->filters_pushed++;
        *changed = true;
        return Comprehension(monoid, e->comp.head, std::move(reordered));
      }
    }
  }

  return e;
}

ExprPtr Rewrite(const ExprPtr& e, NormalizeStats* stats, bool* changed) {
  if (!e) return e;
  ExprPtr node = RewriteChildren(e, stats, changed);
  node = TryConstantFold(node, stats, changed);
  if (node->kind == ExprKind::kComprehension) {
    node = RewriteComprehension(node, stats, changed);
  }
  return node;
}

}  // namespace

ExprPtr Normalize(const ExprPtr& e, NormalizeStats* stats) {
  ExprPtr current = CloneExpr(e);
  // Fixpoint with a safety cap; each pass is a full bottom-up sweep.
  for (int iter = 0; iter < 64; iter++) {
    bool changed = false;
    current = Rewrite(current, stats, &changed);
    if (!changed) break;
  }
  return current;
}

}  // namespace cleanm
