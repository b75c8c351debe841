#include "cleaning/plan_builder.h"

namespace cleanm {

ExprPtr CombineAttrs(const std::vector<ExprPtr>& attrs) {
  CLEANM_CHECK(!attrs.empty());
  if (attrs.size() == 1) return attrs[0];
  std::vector<ExprPtr> args;
  for (size_t i = 0; i < attrs.size(); i++) {
    if (i) args.push_back(ConstString("|"));
    args.push_back(attrs[i]);
  }
  return Call("concat", std::move(args));
}

const char* MetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kLevenshtein: return "LD";
    case SimilarityMetric::kJaccard: return "jaccard";
    case SimilarityMetric::kEuclidean: return "euclidean";
  }
  return "?";
}

namespace {

/// Token filtering splits each term into q-grams, so it needs q >= 1.
Status CheckFilteringOptions(FilteringAlgo algo, const FilteringOptions& options) {
  if (algo == FilteringAlgo::kTokenFiltering && options.q == 0) {
    return Status::InvalidArgument("token filtering needs a q-gram length of at least 1");
  }
  return Status::OK();
}

GroupSpec MakeGroupSpec(FilteringAlgo algo, ExprPtr term,
                        const FilteringOptions& options,
                        std::vector<std::string> centers) {
  GroupSpec group;
  group.algo = algo;
  group.term = std::move(term);
  group.q = options.q;
  group.delta = options.delta;
  group.centers = std::move(centers);
  return group;
}

}  // namespace

Result<CleaningPlan> BuildFdPlan(const std::string& table, const std::string& var,
                                 const FdClause& fd) {
  if (fd.lhs.empty() || fd.rhs.empty()) {
    return Status::InvalidArgument("FD requires LHS and RHS attributes");
  }
  GroupSpec group;
  group.algo = FilteringAlgo::kExactKey;
  group.term = CombineAttrs(fd.lhs);

  std::vector<NestAgg> aggs;
  aggs.push_back({"vals", "set", CombineAttrs(fd.rhs)});
  aggs.push_back({"partition", "bag", Var(var)});
  // Violation: the LHS group maps to more than one distinct RHS value.
  ExprPtr having = Binary(BinaryOp::kGt, Call("count", {Var("vals")}), ConstInt(1));

  CleaningPlan out;
  out.op_name = "FD";
  out.plan = NestOp(Scan(table, var), std::move(group), std::move(aggs),
                    std::move(having));
  out.entity_vars = {"partition"};
  return out;
}

Result<CleaningPlan> BuildDedupPlan(const std::string& table, const std::string& var,
                                    const DedupClause& dedup,
                                    const FilteringOptions& options,
                                    std::vector<std::string> centers) {
  if (dedup.attributes.empty()) {
    return Status::InvalidArgument("DEDUP requires at least one attribute");
  }
  CLEANM_RETURN_NOT_OK(CheckFilteringOptions(dedup.op, options));
  ExprPtr term = CombineAttrs(dedup.attributes);
  GroupSpec group = MakeGroupSpec(dedup.op, term, options, std::move(centers));

  std::vector<NestAgg> aggs;
  aggs.push_back({"partition", "bag", Var(var)});
  ExprPtr having =
      Binary(BinaryOp::kGt, Call("count", {Var("partition")}), ConstInt(1));
  AlgOpPtr nest = NestOp(Scan(table, var), std::move(group), std::move(aggs),
                         std::move(having));

  // Pairwise comparison within each group: unnest the partition twice,
  // order the pair (p1 < p2) to emit each candidate once, then apply the
  // similarity predicate over the records' text.
  AlgOpPtr pairs = UnnestOp(UnnestOp(nest, Var("partition"), "p1"),
                            Var("partition"), "p2");
  ExprPtr ordered = Binary(BinaryOp::kLt, Var("p1"), Var("p2"));
  ExprPtr similar = Call("similar", {ConstString(MetricName(dedup.metric)),
                                     Call("to_string", {Var("p1")}),
                                     Call("to_string", {Var("p2")}),
                                     ConstDouble(dedup.theta)});
  CleaningPlan out;
  out.op_name = "DEDUP";
  out.plan = SelectOp(std::move(pairs), Binary(BinaryOp::kAnd, ordered, similar));
  out.entity_vars = {"p1", "p2"};
  return out;
}

Result<CleaningPlan> BuildTermValidationPlan(
    const std::string& data_table, const std::string& data_var,
    const std::string& dict_table, const std::string& dict_var,
    const std::string& dict_attr, const ClusterByClause& cb,
    const FilteringOptions& options, std::vector<std::string> centers) {
  if (!cb.term) return Status::InvalidArgument("CLUSTER BY requires a term");
  CLEANM_RETURN_NOT_OK(CheckFilteringOptions(cb.op, options));

  // A term found verbatim in the dictionary is clean: anti-join it away
  // before grouping (left outer join on term = entry, keep the unmatched).
  // The probe binds its own variable, distinct from data_var whatever the
  // dictionary's alias is.
  const std::string probe_var = data_var + "_dict";
  AlgOpPtr unknown =
      SelectOp(OuterJoinOp(Scan(data_table, data_var), Scan(dict_table, probe_var),
                           cb.term, FieldAccess(Var(probe_var), dict_attr)),
               Call("is_null", {Var(probe_var)}));

  // dataGroup := for(c <- unknown) yield filter(c.term, algo)
  GroupSpec data_group = MakeGroupSpec(cb.op, cb.term, options, centers);
  AlgOpPtr data_nest = NestOp(std::move(unknown), data_group,
                              {{"terms", "set", cb.term}}, nullptr, "key");

  // dictGroup := for(d <- dict) yield filter(d.attr, algo)
  ExprPtr dict_term = FieldAccess(Var(dict_var), dict_attr);
  GroupSpec dict_group = MakeGroupSpec(cb.op, dict_term, options, std::move(centers));
  AlgOpPtr dict_nest = NestOp(Scan(dict_table, dict_var), dict_group,
                              {{"dict_terms", "set", dict_term}}, nullptr, "dkey");

  // Compare only clusters with the same grouping key (Section 4.4).
  AlgOpPtr joined = EquiJoinOp(data_nest, dict_nest, Var("key"), Var("dkey"));
  AlgOpPtr exploded = UnnestOp(UnnestOp(joined, Var("terms"), "term"),
                               Var("dict_terms"), "suggestion");
  // A violation couples a dirty term with a similar dictionary term. No
  // term reaching here is in the dictionary, so it never equals its
  // suggestion.
  ExprPtr similar = Call("similar", {ConstString(MetricName(cb.metric)), Var("term"),
                                     Var("suggestion"), ConstDouble(cb.theta)});
  CleaningPlan out;
  out.op_name = "CLUSTER BY";
  out.plan = SelectOp(std::move(exploded), std::move(similar));
  out.entity_vars = {"term", "suggestion"};
  return out;
}

}  // namespace cleanm
