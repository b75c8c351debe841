// Table epochs: the storage half of incremental cleaning.
//
// A table mutation (CleanDB::AppendRows / UpdateRows / DeleteRows) does not
// re-register the dataset — it publishes a new effective Dataset *and* a
// TableDelta describing exactly which rows the mutation added and removed.
// A table's TableEpoch is the dataset as registered plus every delta since:
// RegisterTable starts a new epoch at the generation it produced, and each
// effective mutation appends its delta and bumps the generation by one.
// Its one consumer, the driver-side incremental validator
// (cleaning/incremental.h), bootstraps from the epoch's base, then collects
// the deltas between the version it last saw and the snapshot it is
// executing against, and applies only those rows instead of reprocessing
// the table.
//
// Epochs are immutable snapshots: a mutation copies the delta vector
// (cheap — deltas are shared_ptr-owned) and publishes a new TableEpoch, so
// an execution holding a snapshot lease reads a frozen epoch while later
// mutations append to newer copies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/dataset.h"

namespace cleanm {

/// One mutation's row-level effect. An update contributes its pre-image to
/// `removed` and its post-image to `added` (only rows that actually
/// changed); an append contributes to `added` only, a delete to `removed`
/// only. Rows are in the table's schema order (plain storage Rows, not
/// wrapped physical tuples).
struct TableDelta {
  std::vector<Row> added;
  std::vector<Row> removed;
};

/// \brief One registration of a table and every mutation since. Copy and
/// push a delta to derive the successor epoch.
struct TableEpoch {
  /// The dataset as registered. Mutations never rewrite it in place.
  std::shared_ptr<const Dataset> base;
  /// The generation the registration produced.
  uint64_t start = 0;
  /// deltas[i] produced generation start + i + 1.
  std::vector<std::shared_ptr<const TableDelta>> deltas;

  /// Flattens the deltas covering generations (from_exclusive,
  /// to_inclusive] into `added`/`removed`, netting out rows that were added
  /// and then removed within the window (so `removed` only names rows that
  /// existed at `from_exclusive`, and `added` only rows that still exist at
  /// `to_inclusive`). Returns false — and leaves the outputs untouched —
  /// when the window reaches outside [start, start + deltas.size()];
  /// callers then fall back to a full rebuild.
  bool Collect(uint64_t from_exclusive, uint64_t to_inclusive,
               std::vector<Row>* added, std::vector<Row>* removed) const;
};

}  // namespace cleanm
