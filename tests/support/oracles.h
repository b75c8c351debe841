// Clause oracles: each cleaning clause written as its Section 4.4
// comprehension, straight from the clause's definition and independent of
// the desugaring the engine and the reference evaluator share. Evaluate
// one with monoid/eval's EvalExpr (a nested loop by construction) over the
// table bound as a list of records (DatasetToRecords).
#pragma once

#include <string>

#include "language/ast.h"
#include "monoid/expr.h"

namespace cleanm::testsupport {

/// FD(lhs, rhs) over `table` bound as `var`: the bag of records whose lhs
/// group holds more than one distinct rhs value.
ExprPtr FdComprehension(const std::string& table, const std::string& var,
                        const FdClause& fd);

}  // namespace cleanm::testsupport
