// Shared test support: canonical datasets, fast cluster/db options, plan
// shapes, random-data generators, and QueryMetrics assertion helpers.
//
// Every suite builds on these instead of re-declaring its own copies, so a
// schema change propagates to all tests from one place.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/algebra.h"
#include "cleaning/cleandb.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/cluster.h"
#include "storage/dataset.h"

namespace cleanm::testsupport {

// ---- Fast execution options (pure-compute: no simulated network cost) ----

CleanDBOptions FastCleanDBOptions(size_t nodes = 4);
engine::ClusterOptions FastClusterOptions(size_t nodes = 4);

// ---- Canonical datasets ----

/// Four customers: three share "rue de lausanne 1" (one with a deviating
/// phone prefix and one with a deviating nationkey), one lives alone.
/// Schema: name, address, phone, nationkey.
Dataset MakeCustomers();

/// Three publications with 2 / 1 / 0 authors (nested list column).
/// Schema: title, authors.
Dataset MakePublications();

/// Flat dataset exercising the CSV/JSON escapers: commas, quotes, a null.
/// Schema: id, name, score.
Dataset MakeFlatDataset();

/// Random flat dataset (int/double/string columns, ~10% nulls, strings over
/// an alphabet that stresses every format escaper). Deterministic in *rng.
Dataset RandomFlatDataset(Rng* rng, size_t rows);

/// Rows {0}, {1}, ..., {n-1} as single-int rows for engine-level tests.
std::vector<Row> IntRows(int n);

// ---- Morsel-size sweep ----

/// The morsel sizes every engine-vs-reference test runs at: a degenerate
/// 1-row morsel, a prime size that straddles every partition, and the
/// 4096-row default. Results must be bit-identical across all three.
inline constexpr size_t kMorselSizes[] = {1, 7, 4096};

// ---- Plan shapes ----

/// The FD-shaped Nest plan used throughout the cleaning layer: group
/// customer by address, aggregate distinct phone prefixes + the partition,
/// keep groups with > 1 prefix.
AlgOpPtr CustomerFdPlan();

/// Binds a dataset's rows as a list of record Values — the environment
/// representation the monoid interpreter consumes.
Value DatasetToRecords(const Dataset& dataset);

// ---- Comparisons / assertions ----

/// Exact cell-by-cell equality (types strict, nulls equal).
bool DatasetsEqual(const Dataset& a, const Dataset& b);

/// Point-in-time copy of the engine counters, for stability assertions
/// across runs. Now just the library's own snapshot type (the old
/// hand-copied struct duplicated it field by field).
using MetricsSnapshot = ::cleanm::MetricsCounters;
MetricsSnapshot Snapshot(const QueryMetrics& metrics);

/// Passes when the snapshot recorded nonzero shuffle traffic (rows + bytes).
::testing::AssertionResult ShuffledNonzero(const MetricsSnapshot& m);

/// Passes when two snapshots agree on every counter; the failure message
/// prints both. Use to assert a pipeline's traffic is run-to-run stable.
::testing::AssertionResult SnapshotsEqual(const MetricsSnapshot& a,
                                          const MetricsSnapshot& b);

// ---- Filesystem fixture ----

/// Test fixture owning a per-suite temp directory, removed on teardown.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override;
  void TearDown() override;
  std::string Path(const std::string& name) const;
  std::filesystem::path dir_;
};

}  // namespace cleanm::testsupport
