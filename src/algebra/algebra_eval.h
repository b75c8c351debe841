// Driver-side reference evaluator for algebra plans.
//
// Single-threaded, nested-loop executable semantics for the nested
// relational algebra. The distributed physical plans (src/physical) must
// produce the same results; the integration tests compare the two.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "common/status.h"
#include "functions/function_registry.h"
#include "storage/dataset.h"

namespace cleanm {

struct TableEpoch;

/// One table bound in a Catalog.
struct CatalogTable {
  const Dataset* data = nullptr;
  /// Monotonic per-table version, bumped by the owning session on every
  /// (re-)registration *and* every mutation (AppendRows / UpdateRows /
  /// DeleteRows). The physical layer keys its partition cache on it; 0
  /// means the owner does not track generations.
  uint64_t generation = 0;
  /// The registration `data` descends from and its mutations since (see
  /// storage/delta.h); null when the owner does not track them.
  const TableEpoch* epoch = nullptr;
};

/// Name → table binding used to resolve Scan operators.
struct Catalog {
  std::map<std::string, CatalogTable> tables;
  /// Session function registry (may be null): plans referencing registered
  /// scalar/aggregate/repair functions resolve against it in both the
  /// reference evaluator and the physical executor.
  const FunctionRegistry* functions = nullptr;

  Catalog() = default;
  /// Tables-only form (the common shape in tests and baselines): no
  /// generations, no epochs.
  Catalog(const std::map<std::string, const Dataset*>& t) {  // NOLINT: implicit by design
    for (const auto& [name, data] : t) tables.emplace(name, CatalogTable{data});
  }

  /// The binding of `name`, or null when it is not bound.
  const CatalogTable* Lookup(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : &it->second;
  }

  Result<const Dataset*> Find(const std::string& name) const {
    const CatalogTable* table = Lookup(name);
    if (table == nullptr) return Status::KeyError("unknown table '" + name + "'");
    return table->data;
  }

  uint64_t GenerationOf(const std::string& name) const {
    const CatalogTable* table = Lookup(name);
    return table == nullptr ? 0 : table->generation;
  }
};

/// Converts a dataset row to a record Value using the schema's field names.
Value RowToRecord(const Schema& schema, const Row& row);

/// Evaluates a plan whose root is anything but Reduce; returns the bag of
/// output tuples, each a struct Value mapping bound variables to records.
Result<std::vector<Value>> EvalPlanTuples(const AlgOpPtr& plan, const Catalog& catalog);

/// Evaluates a full plan. A Reduce root folds to a single Value; any other
/// root returns the tuple bag as a list Value.
Result<Value> EvalPlan(const AlgOpPtr& plan, const Catalog& catalog);

/// All tuple variables a plan binds (scan vars, unnest vars, nest outputs).
std::vector<std::string> CollectVars(const AlgOpPtr& plan);

}  // namespace cleanm
