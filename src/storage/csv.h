// CSV reader/writer (RFC-4180-style quoting).
//
// CSV is the "flat text" access path of the evaluation (Figures 6a, 7).
// The reader can either infer column types from the data or apply a caller
// schema; list/struct values are not representable — writing a dataset with
// nested columns is an error (flatten first), which is exactly the
// inconvenience the paper attributes to relational formats.
#pragma once

#include <string>

#include "common/status.h"
#include "storage/dataset.h"
#include "storage/read_options.h"

namespace cleanm {

struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// When true, the reader parses numeric-looking fields into kInt/kDouble;
  /// otherwise everything is kString.
  bool infer_types = true;
  /// Bad-row tolerance (read.max_bad_rows): records with the wrong arity
  /// or an unterminated quoted field are skipped and recorded (with their
  /// line number) instead of failing the load. Default strict.
  ReadOptions read;
};

/// Parses a CSV file into a Dataset. Column names come from the header row
/// (or are synthesized as f0..fn when `has_header` is false). When
/// `report` is non-null it is filled with the rows skipped under
/// `options.read.max_bad_rows` (empty in strict mode).
Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options = {},
                        ReadReport* report = nullptr);

/// Parses CSV text held in memory (used by tests).
Result<Dataset> ParseCsvString(const std::string& text, const CsvOptions& options = {},
                               ReadReport* report = nullptr);

/// Serializes a flat dataset to a CSV file.
Status WriteCsv(const Dataset& dataset, const std::string& path,
                const CsvOptions& options = {});

}  // namespace cleanm
