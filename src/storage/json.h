// JSON-lines reader/writer for nested data.
//
// The nested access path of Figure 7: one JSON object per line, arrays map
// to kList values, objects to kStruct. The top-level objects of a file form
// the dataset's rows; the union of their keys forms the schema.
#pragma once

#include <string>

#include "common/status.h"
#include "storage/dataset.h"
#include "storage/read_options.h"

namespace cleanm {

/// Parses a single JSON value from `text` starting at `*pos`.
Result<Value> ParseJsonValue(const std::string& text, size_t* pos);

/// Parses a whole string holding one JSON value.
Result<Value> ParseJson(const std::string& text);

/// Reads a JSON-lines file (one object per line) into a Dataset. Under
/// `options.max_bad_rows`, lines that fail to parse (bad escapes, invalid
/// \uXXXX digits, truncated objects) or are not objects are skipped and
/// recorded with their line number in `report` instead of failing the load.
Result<Dataset> ReadJsonLines(const std::string& path,
                              const ReadOptions& options = {},
                              ReadReport* report = nullptr);

/// Parses JSON-lines text held in memory (used by tests).
Result<Dataset> ParseJsonLinesString(const std::string& text,
                                     const ReadOptions& options = {},
                                     ReadReport* report = nullptr);

/// Serializes one Value as JSON text (strings escaped). Non-ASCII bytes
/// pass through raw, so UTF-8 produced by ParseJson's \uXXXX decoding
/// round-trips byte-identically.
std::string WriteJson(const Value& value);

/// Writes a dataset as JSON lines; nested values serialize naturally.
Status WriteJsonLines(const Dataset& dataset, const std::string& path);

}  // namespace cleanm
