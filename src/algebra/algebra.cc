#include "algebra/algebra.h"

namespace cleanm {

const char* AlgKindName(AlgKind kind) {
  switch (kind) {
    case AlgKind::kScan: return "Scan";
    case AlgKind::kSelect: return "Select";
    case AlgKind::kJoin: return "Join";
    case AlgKind::kOuterJoin: return "OuterJoin";
    case AlgKind::kUnnest: return "Unnest";
    case AlgKind::kOuterUnnest: return "OuterUnnest";
    case AlgKind::kReduce: return "Reduce";
    case AlgKind::kNest: return "Nest";
  }
  return "?";
}

namespace {
AlgOpPtr Make(AlgKind kind) {
  auto op = std::make_shared<AlgOp>();
  op->kind = kind;
  return op;
}

const char* AlgoName(FilteringAlgo algo) {
  switch (algo) {
    case FilteringAlgo::kTokenFiltering: return "tf";
    case FilteringAlgo::kKMeans: return "kmeans";
    case FilteringAlgo::kExactKey: return "exact";
  }
  return "?";
}

void Print(const AlgOp& op, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += AlgHeadline(op);
  *out += '\n';
  if (op.input) Print(*op.input, indent + 1, out);
  if (op.right) Print(*op.right, indent + 1, out);
}
}  // namespace

std::string AlgHeadline(const AlgOp& op) {
  std::string out = AlgKindName(op.kind);
  switch (op.kind) {
    case AlgKind::kScan:
      out += '(' + op.table + " as " + op.var + ')';
      break;
    case AlgKind::kSelect:
      out += '[' + op.pred->ToString() + ']';
      break;
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin:
      out += '[';
      if (op.left_key) {
        out += op.left_key->ToString() + " = " + op.right_key->ToString();
        if (op.pred) out += " && " + op.pred->ToString();
      } else if (op.pred) {
        out += op.pred->ToString();
      } else {
        out += "true";
      }
      out += ']';
      break;
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest:
      out += '[' + op.path_var + " <- " + op.path->ToString() + ']';
      break;
    case AlgKind::kReduce:
      out += '[' + op.monoid + " / " + op.head->ToString() + ']';
      break;
    case AlgKind::kNest:
      out += std::string("[by ") + AlgoName(op.group.algo) + '(' +
             op.group.term->ToString() + ')';
      for (const auto& agg : op.aggs) {
        out += ", " + agg.name + "=" + agg.monoid + '(' + agg.expr->ToString() + ')';
      }
      if (op.having) out += ", having " + op.having->ToString();
      out += ']';
      break;
  }
  return out;
}

std::string AlgOp::ToString() const {
  std::string out;
  Print(*this, 0, &out);
  return out;
}

AlgOpPtr Scan(std::string table, std::string var) {
  auto op = Make(AlgKind::kScan);
  op->table = std::move(table);
  op->var = std::move(var);
  return op;
}

AlgOpPtr SelectOp(AlgOpPtr input, ExprPtr pred) {
  auto op = Make(AlgKind::kSelect);
  op->input = std::move(input);
  op->pred = std::move(pred);
  return op;
}

AlgOpPtr JoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr pred) {
  auto op = Make(AlgKind::kJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->pred = std::move(pred);
  return op;
}

AlgOpPtr EquiJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key,
                    ExprPtr residual_pred) {
  auto op = Make(AlgKind::kJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  op->pred = std::move(residual_pred);
  return op;
}

AlgOpPtr OuterJoinOp(AlgOpPtr left, AlgOpPtr right, ExprPtr left_key, ExprPtr right_key) {
  auto op = Make(AlgKind::kOuterJoin);
  op->input = std::move(left);
  op->right = std::move(right);
  op->left_key = std::move(left_key);
  op->right_key = std::move(right_key);
  return op;
}

AlgOpPtr UnnestOp(AlgOpPtr input, ExprPtr path, std::string path_var, bool outer) {
  auto op = Make(outer ? AlgKind::kOuterUnnest : AlgKind::kUnnest);
  op->input = std::move(input);
  op->path = std::move(path);
  op->path_var = std::move(path_var);
  return op;
}

AlgOpPtr ReduceOp(AlgOpPtr input, std::string monoid, ExprPtr head) {
  auto op = Make(AlgKind::kReduce);
  op->input = std::move(input);
  op->monoid = std::move(monoid);
  op->head = std::move(head);
  return op;
}

AlgOpPtr NestOp(AlgOpPtr input, GroupSpec group, std::vector<NestAgg> aggs,
                ExprPtr having, std::string key_name) {
  auto op = Make(AlgKind::kNest);
  op->input = std::move(input);
  op->group = std::move(group);
  op->aggs = std::move(aggs);
  op->having = std::move(having);
  op->key_name = std::move(key_name);
  return op;
}

bool AlgEquals(const AlgOpPtr& a, const AlgOpPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  if (a->table != b->table || a->var != b->var) return false;
  if (!ExprEquals(a->pred, b->pred)) return false;
  if (!ExprEquals(a->left_key, b->left_key)) return false;
  if (!ExprEquals(a->right_key, b->right_key)) return false;
  if (!ExprEquals(a->path, b->path) || a->path_var != b->path_var) return false;
  if (a->monoid != b->monoid || !ExprEquals(a->head, b->head)) return false;
  if (a->group.algo != b->group.algo || !ExprEquals(a->group.term, b->group.term) ||
      a->group.q != b->group.q || a->group.delta != b->group.delta ||
      a->group.centers != b->group.centers) {
    return false;
  }
  if (a->aggs.size() != b->aggs.size()) return false;
  for (size_t i = 0; i < a->aggs.size(); i++) {
    if (a->aggs[i].name != b->aggs[i].name || a->aggs[i].monoid != b->aggs[i].monoid ||
        !ExprEquals(a->aggs[i].expr, b->aggs[i].expr)) {
      return false;
    }
  }
  if (!ExprEquals(a->having, b->having) || a->key_name != b->key_name) return false;
  return AlgEquals(a->input, b->input) && AlgEquals(a->right, b->right);
}

AlgOpPtr AlgClone(const AlgOpPtr& op) {
  if (!op) return nullptr;
  auto c = std::make_shared<AlgOp>(*op);
  c->input = AlgClone(op->input);
  c->right = AlgClone(op->right);
  c->pred = CloneExpr(op->pred);
  c->left_key = CloneExpr(op->left_key);
  c->right_key = CloneExpr(op->right_key);
  c->path = CloneExpr(op->path);
  c->head = CloneExpr(op->head);
  c->group.term = CloneExpr(op->group.term);
  c->having = CloneExpr(op->having);
  for (auto& agg : c->aggs) agg.expr = CloneExpr(agg.expr);
  return c;
}

}  // namespace cleanm
