// Row serialization for the page store: an exact, bit-faithful round trip
// of the dynamic Value model.
//
// Exactness is load-bearing, not cosmetic: spilled Nest partials and
// paged-out cached partitionings re-enter the same monoid merges and
// Equals/Hash-keyed maps as their resident twins, and the engine's
// bit-identical-violations contract (CI-gated) requires a decoded value to
// be indistinguishable from the original — int 1 must come back as int 1
// (never double 1.0), doubles keep their exact IEEE bits, struct field
// order is preserved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace cleanm {

/// Appends the encoding of one value to `out` (1-byte type tag + payload).
void EncodeValue(const Value& v, std::string* out);

/// Appends one row (u32 arity + values).
void EncodeRow(const Row& row, std::string* out);

/// Appends a row chunk (u32 row count + rows) — the page payload format
/// of every spilled partition. `encoded_rows` holds the `count` rows
/// already encoded back to back by EncodeRow, so a writer can cut pages by
/// encoded size without encoding a row twice.
void EncodeRowChunk(uint32_t count, const std::string& encoded_rows,
                    std::string* out);

/// Decodes a value starting at `*pos`; advances `*pos`. Truncated or
/// malformed input is a kIOError (corrupt page payload), never UB.
Result<Value> DecodeValue(const std::string& buf, size_t* pos);

/// Decodes one row starting at `*pos`.
Result<Row> DecodeRow(const std::string& buf, size_t* pos);

/// Decodes a whole row chunk (the inverse of EncodeRowChunk), appending
/// onto `*out`.
Status DecodeRowChunk(const std::string& payload, std::vector<Row>* out);

}  // namespace cleanm
