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

class DeltaLog;

/// Name → table binding used to resolve Scan operators.
struct Catalog {
  std::map<std::string, const Dataset*> tables;
  /// Monotonic per-table versions, bumped by the owning session on every
  /// (re-)registration *and* every mutation (AppendRows / UpdateRows /
  /// DeleteRows). The physical layer keys its partition cache on them; 0
  /// means the owner does not track generations.
  std::map<std::string, uint64_t> generations;
  /// Major registration epoch per table: bumped only by RegisterTable /
  /// UnregisterTable (the invalidating events), never by mutations.
  std::map<std::string, uint64_t> majors;
  /// Mutations since the table's last registration (reset to 0 by
  /// RegisterTable). generations[t] - minors[t] is the version the current
  /// major epoch started at.
  std::map<std::string, uint64_t> minors;
  /// Mutation delta logs of the current major epoch (absent or empty when
  /// the table has not been mutated since registration).
  std::map<std::string, const DeltaLog*> deltas;
  /// The dataset as registered at the current major epoch's start — the
  /// base the incremental validator bootstraps from (the effective,
  /// mutation-applied dataset lives in `tables`).
  std::map<std::string, const Dataset*> bases;
  /// Session function registry (may be null): plans referencing registered
  /// scalar/aggregate/repair functions resolve against it in both the
  /// reference evaluator and the physical executor.
  const FunctionRegistry* functions = nullptr;

  Catalog() = default;
  /// Tables-only form (the common shape in tests and baselines): all
  /// generations default to 0.
  Catalog(std::map<std::string, const Dataset*> t)  // NOLINT: implicit by design
      : tables(std::move(t)) {}

  Result<const Dataset*> Find(const std::string& name) const {
    auto it = tables.find(name);
    if (it == tables.end()) return Status::KeyError("unknown table '" + name + "'");
    return it->second;
  }

  uint64_t GenerationOf(const std::string& name) const {
    auto it = generations.find(name);
    return it == generations.end() ? 0 : it->second;
  }

  uint64_t MajorOf(const std::string& name) const {
    auto it = majors.find(name);
    return it == majors.end() ? 0 : it->second;
  }

  uint64_t MinorOf(const std::string& name) const {
    auto it = minors.find(name);
    return it == minors.end() ? 0 : it->second;
  }

  /// The mutation delta log of `name`, or null when it has none.
  const DeltaLog* FindDelta(const std::string& name) const {
    auto it = deltas.find(name);
    return it == deltas.end() ? nullptr : it->second;
  }

  /// The base (as-registered) dataset of `name`, or null when untracked.
  const Dataset* FindBase(const std::string& name) const {
    auto it = bases.find(name);
    return it == bases.end() ? nullptr : it->second;
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
