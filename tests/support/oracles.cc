#include "support/oracles.h"

#include "cleaning/plan_builder.h"

namespace cleanm::testsupport {

ExprPtr FdComprehension(const std::string& table, const std::string& var,
                        const FdClause& fd) {
  // for(c <- T, count(set{c2.rhs | c2 <- T, c2.lhs = c.lhs}) > 1) yield bag c
  auto inner = Comprehension(
      "set", Substitute(CombineAttrs(fd.rhs), var, Var(var + "2")),
      {Generator(var + "2", Var(table)),
       Predicate(Binary(BinaryOp::kEq,
                        Substitute(CombineAttrs(fd.lhs), var, Var(var + "2")),
                        CombineAttrs(fd.lhs)))});
  return Comprehension(
      "bag", Var(var),
      {Generator(var, Var(table)),
       Predicate(Binary(BinaryOp::kGt, Call("count", {inner}), ConstInt(1)))});
}

}  // namespace cleanm::testsupport
