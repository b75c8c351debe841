// Spill context: where pipeline breakers (Nest partials, hash-join build
// sides) and the partition cache park partitions that exceed the pool
// budget.
//
// One SpillContext lives per execution (stack-owned inside
// ExecutePrepared) or per session (the partition cache's write-back
// target). Its backing SingleFileStore is created lazily on first spill
// and is remove-on-close, so the temp file disappears on *every* exit
// path — success, sink abort, deadline/cancel unwinds, retry
// exhaustion — purely by destructor order (the RAII satellite).
//
// Thread model: workers of different nodes spill concurrently. SpillRows
// takes the context mutex only to create the store lazily; it encodes
// unlocked, and the store's own append lock serializes the page writes.
// ReadBack pins pages through the shared BufferPool and takes no context
// lock beyond the lazy store check. Lock order: a caller may hold engine
// worker state but never the pool mutex when calling SpillRows (the
// cache write-back path holds the cache mutex, which is ordered *before*
// this context's mutex, the store's append mutex and the pool's — see
// DESIGN.md).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/pagestore/buffer_pool.h"
#include "storage/pagestore/page.h"
#include "storage/pagestore/row_codec.h"

namespace cleanm {

class SpillContext {
 public:
  /// `budget_bytes` is the pool byte budget spill decisions compare
  /// against (0 disables spilling); `pool` (non-null) serves the read-back
  /// pins and must outlive the context.
  SpillContext(std::string spill_dir, size_t page_bytes, uint64_t budget_bytes,
               BufferPool* pool)
      : spill_dir_(std::move(spill_dir)),
        page_bytes_(page_bytes),
        budget_bytes_(budget_bytes),
        pool_(pool) {}

  bool enabled() const { return budget_bytes_ > 0; }

  /// Should state holding `resident_bytes` spill, given that `shares`
  /// peers (e.g. the cluster's nodes) each hold a like amount? True when
  /// the summed estimate exceeds the budget.
  bool ShouldSpill(uint64_t resident_bytes, size_t shares) const {
    return enabled() && resident_bytes * shares > budget_bytes_;
  }

  /// Writes `rows` out as page-sized chunks; returns their spans in row
  /// order. Thread-safe.
  Result<std::vector<PageSpan>> SpillRows(const std::vector<Row>& rows);

  /// Reads spilled chunks back in order, appending onto `*out`. Pins one
  /// page at a time through the pool.
  Status ReadBack(const std::vector<PageSpan>& chunks,
                  std::vector<Row>* out) const;

  uint64_t bytes_spilled() const { return bytes_spilled_.load(); }

 private:
  const std::string spill_dir_;
  const size_t page_bytes_;
  const uint64_t budget_bytes_;
  BufferPool* const pool_;

  mutable std::mutex mu_;
  std::unique_ptr<SingleFileStore> store_;  ///< lazy; remove-on-close
  std::atomic<uint64_t> bytes_spilled_{0};
};

}  // namespace cleanm
