// Mutation delta log: the storage half of incremental cleaning.
//
// A table mutation (CleanDB::AppendRows / UpdateRows / DeleteRows) does not
// re-register the dataset — it publishes a new effective Dataset *and* a
// TableDelta describing exactly which rows the mutation added and removed.
// The per-table DeltaLog accumulates those entries between registrations;
// RegisterTable (a *major* generation bump) drops the log and starts a new
// epoch. Its one consumer, the driver-side incremental validator
// (cleaning/incremental.h), collects the entries between the version it
// last saw and the snapshot it is executing against, and applies only
// those rows instead of reprocessing the table.
//
// Logs are immutable snapshots: a mutation copies the entry vector (cheap —
// entries are shared_ptr-owned) and publishes a new DeltaLog, so an
// execution holding a snapshot lease reads a frozen log while later
// mutations append to newer copies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/value.h"

namespace cleanm {

/// One mutation's row-level effect. An update contributes its pre-image to
/// `removed` and its post-image to `added` (only rows that actually
/// changed); an append contributes to `added` only, a delete to `removed`
/// only. Rows are in the table's schema order (plain storage Rows, not
/// wrapped physical tuples).
struct TableDelta {
  /// The table version (CleanDB::TableGeneration) this mutation produced.
  uint64_t generation = 0;
  /// The minor ordinal within the current major epoch (1 = first mutation
  /// after the last RegisterTable).
  uint64_t minor = 0;
  std::vector<Row> added;
  std::vector<Row> removed;
};

/// \brief Immutable snapshot of a table's mutation history since its last
/// registration. Copy + Append to derive the successor log.
class DeltaLog {
 public:
  DeltaLog() = default;

  void Append(std::shared_ptr<const TableDelta> delta) {
    entries_.push_back(std::move(delta));
  }

  const std::vector<std::shared_ptr<const TableDelta>>& entries() const {
    return entries_;
  }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Flattens the entries covering versions (from_exclusive, to_inclusive]
  /// into `added`/`removed`, netting out rows that were added and then
  /// removed within the window (so `removed` only names rows that existed
  /// at `from_exclusive`, and `added` only rows that still exist at
  /// `to_inclusive`). Returns false — and leaves the outputs untouched —
  /// when the log does not contiguously cover the window (e.g. the caller's
  /// base version predates this epoch); callers then fall back to a full
  /// rebuild.
  bool Collect(uint64_t from_exclusive, uint64_t to_inclusive,
               std::vector<Row>* added, std::vector<Row>* removed) const;

 private:
  std::vector<std::shared_ptr<const TableDelta>> entries_;
};

}  // namespace cleanm
