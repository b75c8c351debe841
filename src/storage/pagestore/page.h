// Page layout of the out-of-core store (DESIGN.md, "Out-of-core storage
// & spill").
//
// A SingleFileStore is a flat array of fixed-size *slots* of `page_bytes`
// each. A logical page is one checksummed payload written at a slot
// boundary; a payload larger than one slot spans ceil(size / page_bytes)
// consecutive slots (so the page size is a granularity, not a hard cap —
// a single oversized row never wedges a spill). Every page starts with
// a PageHeader whose FNV-1a checksum covers the payload, making torn or
// corrupted reads detectable as a positioned kIOError instead of UB.
#pragma once

#include <cstdint>
#include <cstring>

namespace cleanm {

/// Default page granularity: 64 KiB, a few thousand customer rows.
inline constexpr size_t kDefaultPageBytes = 64 * 1024;

/// On-disk header preceding every page payload. Fixed-width fields,
/// written and read by the same process image (the store is session- or
/// execution-scoped scratch, never an interchange format), so the struct
/// bytes are the layout.
struct PageHeader {
  static constexpr uint64_t kMagic = 0x436c6e4d50616765ULL;  // "ClnMPage"

  uint64_t magic = kMagic;
  uint64_t page_id = 0;       ///< slot index; must match the read request
  uint64_t checksum = 0;      ///< Fnv1a over the payload bytes
  uint32_t payload_len = 0;   ///< bytes following the header
  uint32_t reserved = 0;
};
static_assert(sizeof(PageHeader) == 32, "page header layout");

/// A contiguous run of encoded rows inside a store: the unit a spilled
/// partition chunk is addressed by.
struct PageSpan {
  uint64_t page_id = 0;  ///< first slot of the chunk's page
  uint32_t rows = 0;     ///< decoded row count (redundant with the chunk
                         ///< header; lets readers reserve up front)
};

}  // namespace cleanm
