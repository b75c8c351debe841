#include "algebra/rewriter.h"

#include <functional>
#include <map>
#include <set>

#include "algebra/algebra_eval.h"

namespace cleanm {
namespace {

bool CoveredBy(const ExprPtr& e, const std::set<std::string>& vars) {
  for (const auto& v : FreeVars(e)) {
    if (!vars.count(v)) return false;
  }
  return true;
}

std::set<std::string> PlanVars(const AlgOpPtr& plan) {
  std::set<std::string> out;
  for (const auto& v : CollectVars(plan)) out.insert(v);
  return out;
}

AlgOpPtr Rewrite(const AlgOpPtr& plan, RewriteStats* stats, bool* changed) {
  if (!plan) return plan;
  AlgOpPtr node = std::make_shared<AlgOp>(*plan);
  node->input = Rewrite(plan->input, stats, changed);
  node->right = Rewrite(plan->right, stats, changed);

  // A1: fuse stacked selections.
  if (node->kind == AlgKind::kSelect && node->input &&
      node->input->kind == AlgKind::kSelect) {
    auto fused = std::make_shared<AlgOp>(*node->input);
    fused->pred = Binary(BinaryOp::kAnd, node->input->pred, node->pred);
    if (stats) stats->selects_fused++;
    *changed = true;
    return fused;
  }

  // A2/A3: classify the conjuncts of a selection sitting on a join; push
  // one-sided conjuncts below, promote one spanning equality to the hash
  // key, keep the rest as a residual selection.
  if (node->kind == AlgKind::kSelect && node->input &&
      node->input->kind == AlgKind::kJoin) {
    const AlgOpPtr join = node->input;
    const auto left_vars = PlanVars(join->input);
    const auto right_vars = PlanVars(join->right);

    std::vector<ExprPtr> conjuncts;
    std::function<void(const ExprPtr&)> flatten = [&](const ExprPtr& p) {
      if (p->kind == ExprKind::kBinary && p->bin_op == BinaryOp::kAnd) {
        flatten(p->lhs);
        flatten(p->rhs);
      } else {
        conjuncts.push_back(p);
      }
    };
    flatten(node->pred);

    std::vector<ExprPtr> left_only, right_only, residual;
    ExprPtr lk, rk;
    for (const auto& c : conjuncts) {
      if (CoveredBy(c, left_vars)) {
        left_only.push_back(c);
        continue;
      }
      if (CoveredBy(c, right_vars)) {
        right_only.push_back(c);
        continue;
      }
      if (!lk && !join->left_key && c->kind == ExprKind::kBinary &&
          c->bin_op == BinaryOp::kEq) {
        if (CoveredBy(c->lhs, left_vars) && CoveredBy(c->rhs, right_vars)) {
          lk = c->lhs;
          rk = c->rhs;
          continue;
        }
        if (CoveredBy(c->rhs, left_vars) && CoveredBy(c->lhs, right_vars)) {
          lk = c->rhs;
          rk = c->lhs;
          continue;
        }
      }
      residual.push_back(c);
    }

    if (!left_only.empty() || !right_only.empty() || lk) {
      auto conjoin = [](const std::vector<ExprPtr>& ps) {
        ExprPtr acc = ps[0];
        for (size_t i = 1; i < ps.size(); i++) acc = Binary(BinaryOp::kAnd, acc, ps[i]);
        return acc;
      };
      auto rebuilt = std::make_shared<AlgOp>(*join);
      if (!left_only.empty()) {
        rebuilt->input = SelectOp(join->input, conjoin(left_only));
        if (stats) stats->selects_pushed++;
      }
      if (!right_only.empty()) {
        rebuilt->right = SelectOp(join->right, conjoin(right_only));
        if (stats) stats->selects_pushed++;
      }
      if (lk) {
        rebuilt->left_key = lk;
        rebuilt->right_key = rk;
        if (stats) stats->equi_joins_detected++;
      }
      *changed = true;
      if (residual.empty()) return rebuilt;
      return SelectOp(rebuilt, conjoin(residual));
    }
  }
  return node;
}

bool SameGroup(const GroupSpec& a, const GroupSpec& b) {
  return a.algo == b.algo && ExprEquals(a.term, b.term) && a.q == b.q &&
         a.delta == b.delta && a.centers == b.centers;
}

/// Walks from a root through unary Select/Unnest/Reduce nodes to a Nest;
/// records the pipeline outer-to-inner so it can be rebuilt over the shared
/// node. Reduce appears here since user GROUP BY queries project their
/// group tuples through a Reduce root (see cleaning/select_builder.cc), and
/// their Nest stage must still coalesce with the built-in cleaning plans.
struct NestAccess {
  std::vector<AlgOpPtr> pipeline;  // Select/Unnest/Reduce nodes, outermost first
  AlgOpPtr nest;
};

NestAccess FindNest(const AlgOpPtr& root) {
  NestAccess access;
  AlgOpPtr cur = root;
  while (cur && (cur->kind == AlgKind::kSelect || cur->kind == AlgKind::kUnnest ||
                 cur->kind == AlgKind::kOuterUnnest || cur->kind == AlgKind::kReduce)) {
    access.pipeline.push_back(cur);
    cur = cur->input;
  }
  if (cur && cur->kind == AlgKind::kNest) access.nest = cur;
  return access;
}

}  // namespace

AlgOpPtr RewritePlan(const AlgOpPtr& plan, RewriteStats* stats) {
  AlgOpPtr current = AlgClone(plan);
  for (int iter = 0; iter < 32; iter++) {
    bool changed = false;
    current = Rewrite(current, stats, &changed);
    if (!changed) break;
  }
  return current;
}

CoalescedPlans CoalesceNests(const std::vector<AlgOpPtr>& plans, RewriteStats* stats) {
  CoalescedPlans result;
  result.roots.resize(plans.size());

  // A representative shared Nest per (input, group) signature.
  struct SharedNest {
    AlgOpPtr node;  // shared, having == null
    // Maps (monoid, expr) of adopted aggregations to their merged name.
    std::vector<std::pair<NestAgg, std::string>> adopted;
  };
  std::vector<SharedNest> shared;

  for (size_t i = 0; i < plans.size(); i++) {
    NestAccess access = FindNest(plans[i]);
    if (!access.nest) {
      result.roots[i] = plans[i];
      continue;
    }
    // Find or create the shared nest for this signature.
    SharedNest* target = nullptr;
    for (auto& s : shared) {
      if (AlgEquals(s.node->input, access.nest->input) &&
          SameGroup(s.node->group, access.nest->group) &&
          s.node->key_name == access.nest->key_name) {
        target = &s;
        break;
      }
    }
    bool merged_into_existing = target != nullptr;
    if (!target) {
      SharedNest fresh;
      fresh.node = std::make_shared<AlgOp>(*access.nest);
      fresh.node->aggs.clear();
      fresh.node->having = nullptr;
      shared.push_back(std::move(fresh));
      target = &shared.back();
    }

    // Adopt this plan's aggregations, de-duplicating structurally equal
    // ones and renaming on name collisions.
    std::map<std::string, std::string> rename;  // original name → merged name
    for (const auto& agg : access.nest->aggs) {
      std::string merged_name;
      for (const auto& [existing, name] : target->adopted) {
        if (existing.monoid == agg.monoid && ExprEquals(existing.expr, agg.expr)) {
          merged_name = name;
          break;
        }
      }
      if (merged_name.empty()) {
        merged_name = agg.name;
        bool taken = true;
        int suffix = 0;
        while (taken) {
          taken = false;
          for (const auto& existing : target->node->aggs) {
            if (existing.name == merged_name) {
              taken = true;
              merged_name = agg.name + "_" + std::to_string(++suffix);
              break;
            }
          }
        }
        target->node->aggs.push_back({merged_name, agg.monoid, agg.expr});
        target->adopted.push_back({agg, merged_name});
      }
      rename[agg.name] = merged_name;
    }

    auto rename_expr = [&rename](ExprPtr e) {
      for (const auto& [from, to] : rename) {
        if (from != to) e = Substitute(e, from, Var(to));
      }
      return e;
    };

    // Rebuild this plan's private pipeline above the shared nest: its
    // having becomes a Select, then its original Select/Unnest chain with
    // aggregation references renamed to the merged names.
    AlgOpPtr rebuilt = target->node;
    if (access.nest->having) {
      rebuilt = SelectOp(rebuilt, rename_expr(access.nest->having));
    }
    for (auto it = access.pipeline.rbegin(); it != access.pipeline.rend(); ++it) {
      auto stage = std::make_shared<AlgOp>(**it);
      stage->input = rebuilt;
      if (stage->pred) stage->pred = rename_expr(stage->pred);
      if (stage->path) stage->path = rename_expr(stage->path);
      if (stage->head) stage->head = rename_expr(stage->head);
      rebuilt = stage;
    }
    result.roots[i] = rebuilt;
    if (merged_into_existing) {
      result.groups_merged++;
      if (stats) stats->nests_coalesced++;
    }
  }
  return result;
}

std::vector<std::string> SharedScanTables(const std::vector<AlgOpPtr>& plans) {
  std::map<std::string, int> counts;
  std::function<void(const AlgOpPtr&)> walk = [&](const AlgOpPtr& op) {
    if (!op) return;
    if (op->kind == AlgKind::kScan) counts[op->table]++;
    walk(op->input);
    walk(op->right);
  };
  for (const auto& p : plans) walk(p);
  std::vector<std::string> out;
  for (const auto& [table, count] : counts) {
    if (count > 1) out.push_back(table);
  }
  return out;
}

}  // namespace cleanm
