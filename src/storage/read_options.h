// Shared loader robustness knobs: bounded skipping of malformed input rows.
//
// Real dirty data is dirty at the *file* level too — broken quoting, bad
// escapes, ragged arity. The strict default (any malformed row fails the
// whole load) is right for curated inputs, but a cleaning system should be
// able to ingest a mostly-good file and report what it dropped; that is
// what `max_bad_rows` buys. Dropped rows are never silent: each one is
// recorded with its 1-based physical line number and the parse error, in a
// ReadReport returned alongside the Dataset.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cleanm {

/// One malformed input row skipped during a load.
struct BadRow {
  /// 1-based physical line number where the record starts (header counts
  /// as line 1 for CSV inputs that have one).
  size_t line = 0;
  std::string error;  ///< parse error that disqualified the row
};

/// What a tolerant load skipped. Filled (replacing previous contents) when
/// the caller passes a report out-param; bad_rows.size() <= max_bad_rows.
struct ReadReport {
  std::vector<BadRow> bad_rows;
  size_t rows_loaded = 0;  ///< rows that made it into the Dataset
};

/// Loader robustness knobs, embedded in each format's option struct.
struct ReadOptions {
  /// Maximum number of malformed rows to skip-and-record before the load
  /// fails. 0 (default) keeps the strict behavior: the first malformed
  /// row fails the whole load. When the count would exceed the cap, the
  /// load fails with a ParseError naming the cap and the offending line.
  size_t max_bad_rows = 0;
};

}  // namespace cleanm
