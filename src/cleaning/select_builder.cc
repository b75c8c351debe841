#include "cleaning/select_builder.h"

#include <set>

#include "monoid/eval.h"
#include "monoid/monoid.h"
#include "monoid/normalize.h"

namespace cleanm {

namespace {

/// Collects the Nest aggregations a grouped query needs while rewriting its
/// SELECT/HAVING expressions onto the Nest output tuple {key, <agg names>}.
class GroupedRewriter {
 public:
  GroupedRewriter(const FunctionRegistry* functions, std::string row_alias,
                  std::vector<ExprPtr> group_terms)
      : functions_(functions),
        row_alias_(std::move(row_alias)),
        group_terms_(std::move(group_terms)) {}

  /// Rewrites `e`: subexpressions equal to a GROUP BY term become key
  /// references, aggregate calls over the row become Var(<agg field>), and
  /// anything still referencing the row alias afterwards is a kTypeError.
  Result<ExprPtr> Rewrite(const ExprPtr& e) {
    CLEANM_ASSIGN_OR_RETURN(ExprPtr rewritten, RewriteNode(e));
    for (const auto& v : FreeVars(rewritten)) {
      if (v == row_alias_) {
        return Status::TypeError(
            "expression references row variable '" + row_alias_ +
            "' outside an aggregate; every SELECT/HAVING term must derive "
            "from the GROUP BY keys or an aggregate call");
      }
    }
    return rewritten;
  }

  /// True when `e`'s whole subtree contains a registered repair call.
  bool SawRepairCall() const { return saw_repair_; }
  void ResetRepairFlag() { saw_repair_ = false; }

  const std::vector<NestAgg>& aggs() const { return aggs_; }

  /// The key expression a GROUP BY term `index` maps to on the Nest output.
  ExprPtr KeyRef(size_t index) const {
    if (group_terms_.size() == 1) return Var("key");
    return FieldAccess(Var("key"), "g" + std::to_string(index));
  }

  /// The grouping term of the Nest: the single GROUP BY expression, or a
  /// record {g0: t0, g1: t1, ...} for multi-key grouping (records hash and
  /// compare structurally, so exact grouping works unchanged).
  ExprPtr GroupTerm() const {
    if (group_terms_.size() == 1) return group_terms_[0];
    std::vector<std::string> names;
    std::vector<ExprPtr> values;
    for (size_t i = 0; i < group_terms_.size(); i++) {
      names.push_back("g" + std::to_string(i));
      values.push_back(group_terms_[i]);
    }
    return Record(std::move(names), std::move(values));
  }

 private:
  /// An aggregate call consumes row-level data: its name resolves as an
  /// aggregate (registered UDF aggregate, builtin monoid, or avg) and its
  /// argument's free variables stay within the FROM row. Calls over Nest
  /// outputs (e.g. count(vals)) remain scalar by this rule.
  bool IsAggregateCall(const ExprPtr& e) const {
    if (e->kind != ExprKind::kCall || e->args.size() != 1) return false;
    const bool aggregate_name =
        (functions_ && functions_->FindAggregate(e->name)) ||
        LookupMonoid(e->name).ok() || e->name == "avg";
    if (!aggregate_name) return false;
    for (const auto& v : FreeVars(e->args[0])) {
      if (v != row_alias_) return false;
    }
    return true;
  }

  bool ContainsAggregateCall(const ExprPtr& e) const {
    if (!e) return false;
    if (IsAggregateCall(e)) return true;
    if (ContainsAggregateCall(e->child) || ContainsAggregateCall(e->lhs) ||
        ContainsAggregateCall(e->rhs) || ContainsAggregateCall(e->cond) ||
        ContainsAggregateCall(e->then_e) || ContainsAggregateCall(e->else_e)) {
      return true;
    }
    for (const auto& a : e->args) {
      if (ContainsAggregateCall(a)) return true;
    }
    for (const auto& v : e->field_values) {
      if (ContainsAggregateCall(v)) return true;
    }
    return false;
  }

  /// Finds or adds the Nest aggregation (monoid, expr); returns its field.
  std::string AdoptAgg(const std::string& monoid, const ExprPtr& expr) {
    for (const auto& agg : aggs_) {
      if (agg.monoid == monoid && ExprEquals(agg.expr, expr)) return agg.name;
    }
    const std::string name = "agg" + std::to_string(aggs_.size());
    aggs_.push_back({name, monoid, expr});
    return name;
  }

  Result<ExprPtr> RewriteNode(const ExprPtr& e) {
    if (!e) return ExprPtr(nullptr);

    // GROUP BY terms rewrite to key references wherever they appear.
    for (size_t i = 0; i < group_terms_.size(); i++) {
      if (ExprEquals(e, group_terms_[i])) return KeyRef(i);
    }

    if (e->kind == ExprKind::kCall && functions_ && functions_->IsRepair(e->name)) {
      saw_repair_ = true;
    }

    if (IsAggregateCall(e)) {
      if (ContainsAggregateCall(e->args[0])) {
        return Status::TypeError("nested aggregate in '" + e->ToString() + "'");
      }
      // avg is not a monoid (and, as a builtin name, can never be shadowed
      // by a registration): collect the bag, apply the builtin avg to it
      // (nulls skipped, empty bag → null) on the Nest output.
      if (e->name == "avg") {
        return Call("avg", {Var(AdoptAgg("bag", e->args[0]))});
      }
      return Var(AdoptAgg(e->name, e->args[0]));
    }

    // Structural recursion.
    ExprPtr out = CloneExpr(e);
    CLEANM_ASSIGN_OR_RETURN(out->child, RewriteNode(e->child));
    CLEANM_ASSIGN_OR_RETURN(out->lhs, RewriteNode(e->lhs));
    CLEANM_ASSIGN_OR_RETURN(out->rhs, RewriteNode(e->rhs));
    CLEANM_ASSIGN_OR_RETURN(out->cond, RewriteNode(e->cond));
    CLEANM_ASSIGN_OR_RETURN(out->then_e, RewriteNode(e->then_e));
    CLEANM_ASSIGN_OR_RETURN(out->else_e, RewriteNode(e->else_e));
    for (size_t i = 0; i < e->args.size(); i++) {
      CLEANM_ASSIGN_OR_RETURN(out->args[i], RewriteNode(e->args[i]));
    }
    for (size_t i = 0; i < e->field_values.size(); i++) {
      CLEANM_ASSIGN_OR_RETURN(out->field_values[i], RewriteNode(e->field_values[i]));
    }
    if (e->kind == ExprKind::kComprehension) {
      return Status::NotImplemented("comprehension in SELECT position");
    }
    return out;
  }

  const FunctionRegistry* functions_;
  std::string row_alias_;
  std::vector<ExprPtr> group_terms_;
  std::vector<NestAgg> aggs_;
  bool saw_repair_ = false;
};

/// Output-field name for one SELECT item: explicit alias, else derived from
/// the expression (field / call / variable name), else positional.
std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr) {
    if (item.expr->kind == ExprKind::kField) return item.expr->name;
    if (item.expr->kind == ExprKind::kCall) return item.expr->name;
    if (item.expr->kind == ExprKind::kVar) return item.expr->name;
  }
  return "col" + std::to_string(index);
}

/// Rejects calls to aggregate-*only* names (builtin monoids like sum/max,
/// registered aggregates) in positions where no Nest will consume them —
/// ungrouped SELECT items and WHERE. Dual-natured names (count/avg, which
/// are also builtin scalars over collections) stay legal: `count(t.tags)`
/// on a list column is an ordinary scalar call. Without this, the mistake
/// surfaces only at execution as a misleading "unknown builtin function".
Status RejectStrayAggregates(const ExprPtr& e, const FunctionRegistry* functions,
                             const char* position) {
  if (!e) return Status::OK();
  if (e->kind == ExprKind::kCall) {
    const bool aggregate_only =
        ((functions && functions->FindAggregate(e->name)) ||
         LookupMonoid(e->name).ok()) &&
        FindBuiltin(e->name) == nullptr;
    if (aggregate_only) {
      return Status::TypeError("aggregate '" + e->name + "' in " + position +
                               " requires a GROUP BY clause");
    }
  }
  for (const ExprPtr& child :
       {e->child, e->lhs, e->rhs, e->cond, e->then_e, e->else_e}) {
    CLEANM_RETURN_NOT_OK(RejectStrayAggregates(child, functions, position));
  }
  for (const auto& a : e->args) {
    CLEANM_RETURN_NOT_OK(RejectStrayAggregates(a, functions, position));
  }
  for (const auto& v : e->field_values) {
    CLEANM_RETURN_NOT_OK(RejectStrayAggregates(v, functions, position));
  }
  return Status::OK();
}

bool ContainsRepairCall(const ExprPtr& e, const FunctionRegistry* functions) {
  if (!e || !functions) return false;
  if (e->kind == ExprKind::kCall && functions->IsRepair(e->name)) return true;
  if (ContainsRepairCall(e->child, functions) || ContainsRepairCall(e->lhs, functions) ||
      ContainsRepairCall(e->rhs, functions) || ContainsRepairCall(e->cond, functions) ||
      ContainsRepairCall(e->then_e, functions) ||
      ContainsRepairCall(e->else_e, functions)) {
    return true;
  }
  for (const auto& a : e->args) {
    if (ContainsRepairCall(a, functions)) return true;
  }
  for (const auto& v : e->field_values) {
    if (ContainsRepairCall(v, functions)) return true;
  }
  return false;
}

}  // namespace

bool QueryWantsSelectPlan(const CleanMQuery& query) {
  if (!query.group_by.empty() || query.having) return true;
  // `SELECT * FROM t FD(...)` keeps its historical meaning: the select list
  // is the paper's "report the violations" convention, not a projection.
  return !query.HasCleaningOps();
}

Result<SelectPlan> BuildSelectPlan(const CleanMQuery& query,
                                   const FunctionRegistry* functions) {
  if (query.from.empty()) return Status::InvalidArgument("query has no FROM table");
  if (query.having && query.group_by.empty()) {
    return Status::TypeError("HAVING requires a GROUP BY clause");
  }
  const TableRef& base = query.from[0];
  // Extra FROM entries are only meaningful as CLUSTER BY dictionaries.
  if (query.from.size() > 1 && query.cluster_bys.empty()) {
    return Status::NotImplemented("multi-table SELECT is not supported");
  }

  SelectPlan out;
  out.source_table = base.table;

  // Monoid-level normalization (R1–R9) of every user expression before the
  // algebra is built, mirroring the cleaning-clause pipeline.
  CLEANM_RETURN_NOT_OK(RejectStrayAggregates(query.where, functions, "WHERE"));
  AlgOpPtr plan = Scan(base.table, base.alias);
  if (query.where) plan = SelectOp(plan, Normalize(query.where));

  std::vector<ExprPtr> head_exprs;
  std::vector<std::string> head_names;
  auto adopt_name = [&head_names](std::string name) {
    // Keep projection field names unique (aliases can collide with derived
    // names); later duplicates get a positional suffix.
    int suffix = 1;
    std::string candidate = name;
    while (true) {
      bool taken = false;
      for (const auto& existing : head_names) {
        if (existing == candidate) {
          taken = true;
          break;
        }
      }
      if (!taken) break;
      candidate = name + "_" + std::to_string(++suffix);
    }
    head_names.push_back(candidate);
    return candidate;
  };

  if (query.group_by.empty()) {
    // Ungrouped projection: a single `*` keeps whole records; otherwise a
    // record per row. Aggregate calls need GROUP BY.
    if (query.select_list.size() == 1 && query.select_list[0].star) {
      out.plan.op_name = "SELECT";
      out.plan.plan = ReduceOp(std::move(plan), "list", Var(base.alias));
      out.output_fields = {base.alias};
      return out;
    }
    for (size_t i = 0; i < query.select_list.size(); i++) {
      const SelectItem& item = query.select_list[i];
      if (item.star) {
        return Status::NotImplemented(
            "SELECT * alongside other select items is not supported");
      }
      CLEANM_RETURN_NOT_OK(
          RejectStrayAggregates(item.expr, functions, "SELECT"));
      ExprPtr e = Normalize(item.expr);
      const std::string name = adopt_name(ItemName(item, i));
      if (ContainsRepairCall(e, functions)) out.repair_fields.push_back(name);
      head_exprs.push_back(std::move(e));
    }
    out.plan.op_name = "SELECT";
    out.plan.plan = ReduceOp(std::move(plan), "list",
                             Record(head_names, std::move(head_exprs)));
    out.output_fields = head_names;
    return out;
  }

  // Grouped query: collect aggregations while rewriting items and HAVING
  // onto the Nest output tuple.
  std::vector<ExprPtr> group_terms;
  for (const auto& g : query.group_by) group_terms.push_back(Normalize(g));
  GroupedRewriter rewriter(functions, base.alias, group_terms);

  // Alias → rewritten item expression, so HAVING can reference select
  // aliases (`... count(c) AS n ... HAVING n > 1`).
  std::vector<std::pair<std::string, ExprPtr>> alias_map;

  for (size_t i = 0; i < query.select_list.size(); i++) {
    const SelectItem& item = query.select_list[i];
    if (item.star) {
      return Status::TypeError("SELECT * cannot be combined with GROUP BY");
    }
    rewriter.ResetRepairFlag();
    CLEANM_ASSIGN_OR_RETURN(ExprPtr rewritten, rewriter.Rewrite(Normalize(item.expr)));
    const std::string name = adopt_name(ItemName(item, i));
    if (rewriter.SawRepairCall()) out.repair_fields.push_back(name);
    if (!item.alias.empty()) alias_map.emplace_back(item.alias, rewritten);
    head_exprs.push_back(std::move(rewritten));
  }

  ExprPtr having;
  if (query.having) {
    ExprPtr h = Normalize(query.having);
    for (const auto& [alias, rewritten] : alias_map) {
      h = Substitute(h, alias, rewritten);
    }
    CLEANM_ASSIGN_OR_RETURN(having, rewriter.Rewrite(h));
  }

  GroupSpec group;
  group.algo = FilteringAlgo::kExactKey;
  group.term = rewriter.GroupTerm();
  AlgOpPtr nest = NestOp(std::move(plan), std::move(group), rewriter.aggs(),
                         std::move(having), "key");

  out.plan.op_name = "SELECT";
  out.plan.plan =
      ReduceOp(std::move(nest), "list", Record(head_names, std::move(head_exprs)));
  out.output_fields = head_names;
  return out;
}

}  // namespace cleanm
