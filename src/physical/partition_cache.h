// Session-owned partition cache: the cross-query successor of the
// executor's per-query scan/wrap/nest maps.
//
// A CleanDB session owns one PartitionCache; every Executor the session
// creates shares it. Entries are keyed by (kind, table, var, node identity,
// table generation), so
//   * repeated executions of a PreparedQuery reuse the parallelized scans,
//     the {var: record} wrapped scans, and the outputs of coalesced Nest
//     stages instead of re-partitioning,
//   * a re-registered table (generation bump) can never be served stale —
//     RegisterTable invalidates eagerly AND the stale generation no longer
//     matches the key.
// Every partitioning has the session cluster's width, fixed when the
// session is built, so the width needs no place in the key.
//
// Memory is bounded by a byte budget with LRU eviction (ROADMAP
// "Scan-cache memory"): each Put charges the logical bytes of the inserted
// partitioning (engine::PartitionedLogicalBytes), counted by the nodes
// that built it and passed in by the caller — the cache never walks rows —
// and evicts least-recently-used entries until the cache fits.
// A single entry larger than the whole budget is admitted alone (evicting
// everything else); refusing it would livelock large-table sessions.
//
// Thread model: every operation takes the cache's internal mutex, and
// Find/Put hand out shared-ownership pins (PartitionPin) instead of raw
// pointers. The pin keeps the partitioning alive for as long as the caller
// streams from it; eviction, invalidation, and Clear merely drop the
// cache's own reference, so a concurrent reader can never dangle. Pins are
// snapshots: a pinned partitioning may no longer be resident (or even
// current) by the time it is read — generation keys guarantee a *stale*
// one is never handed out at Find time, which is the visibility rule the
// session layer documents (DESIGN.md, "Threading & session concurrency").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/algebra.h"
#include "engine/cluster.h"
#include "storage/pagestore/page.h"

namespace cleanm {

/// Shared-ownership pin on a cached partitioning: holding it keeps the data
/// alive across evictions/invalidations. Null = miss.
using PartitionPin = std::shared_ptr<const engine::Partitioned>;

/// \brief Write-back target for evicted cache entries — the out-of-core
/// hook (DESIGN.md, "Out-of-core storage & spill").
///
/// With a pager installed, eviction *pages out* a cold entry (writes its
/// partitions to the session spill store and drops only the resident copy)
/// instead of discarding the work; a later Find revives it from its spans.
/// Implementations are called with the cache mutex held, so they must not
/// call back into the cache (lock order: cache mutex → store/pool mutexes).
class PartitionPager {
 public:
  virtual ~PartitionPager() = default;
  /// Serializes each partition of `data` to pages; spans[n] addresses
  /// partition n ([] for an empty partition).
  virtual Result<std::vector<std::vector<PageSpan>>> Write(
      const engine::Partitioned& data) = 0;
  /// Revives a partitioning previously produced by Write.
  virtual Result<engine::Partitioned> Read(
      const std::vector<std::vector<PageSpan>>& spans) = 0;
};

class PartitionCache {
 public:
  /// Point-in-time counters. Hit/miss/eviction counters are cumulative for
  /// the cache's lifetime; resident_* describe the current contents.
  /// `Since` turns two snapshots into a per-execution delta.
  struct Stats {
    uint64_t scan_hits = 0;    ///< scan requests served without Parallelize
    uint64_t scan_misses = 0;  ///< Parallelize runs (tables partitioned)
    uint64_t nest_hits = 0;    ///< shared-Nest requests served from cache
    uint64_t nest_misses = 0;  ///< Nest stages executed
    uint64_t evictions = 0;    ///< entries dropped by the byte budget
    uint64_t invalidations = 0;  ///< entries dropped by table re-registration
    /// Entries paged out to the spill store instead of discarded (pager
    /// installed), and entries revived from their spans on a later Find.
    uint64_t page_writebacks = 0;
    uint64_t page_revivals = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_entries = 0;

    /// Counter-wise delta against an earlier snapshot (resident_* keep the
    /// later snapshot's values — they are gauges, not counters).
    Stats Since(const Stats& before) const;
    std::string ToString() const;
  };

  /// `byte_budget` bounds the resident partition bytes; 0 = unbounded.
  explicit PartitionCache(size_t byte_budget = 0) : byte_budget_(byte_budget) {}

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  // ---- Scans (a table parallelized across the cluster's nodes) ----

  PartitionPin FindScan(const std::string& table, uint64_t generation);
  /// Admits `data`, whose logical size is `bytes`, and returns a pin on it.
  PartitionPin PutScan(const std::string& table, uint64_t generation,
                       engine::Partitioned data, uint64_t bytes);

  // ---- Wrapped scans (the {var: record} tuple wrap of a scan) ----

  PartitionPin FindWrap(const std::string& table, const std::string& var,
                        uint64_t generation);
  /// Admits `data`, whose logical size is `bytes`, and returns a pin on it.
  PartitionPin PutWrap(const std::string& table, const std::string& var,
                       uint64_t generation, engine::Partitioned data, uint64_t bytes);

  /// Read-only residency probes (EXPLAIN): whether FindScan / FindWrap
  /// would be served without partitioning. A paged-out entry counts (the
  /// lookup revives it). They count no hit or miss and touch no LRU tick.
  bool HoldsScan(const std::string& table, uint64_t generation) const;
  bool HoldsWrap(const std::string& table, const std::string& var,
                 uint64_t generation) const;

  // ---- Nest outputs (keyed by node identity; the node is pinned) ----

  /// `generation_of` resolves a table name to its current generation; a hit
  /// requires every recorded dependency to still match. `generation_of` is
  /// called while the cache lock is held — it must not call back into the
  /// cache (resolving against a Catalog snapshot satisfies this).
  PartitionPin FindNest(
      const AlgOp* node,
      const std::function<uint64_t(const std::string&)>& generation_of);
  /// `node` is retained (shared ownership) while the entry lives, so a
  /// recycled heap address can never alias a cached result. `deps` lists
  /// every (table, generation) the Nest's input subtree read; `bytes` is
  /// `data`'s logical size. Returns a pin on the admitted entry (never
  /// evicted by its own budget pass), so the pipelined executor can stream
  /// from it without copying.
  PartitionPin PutNest(const AlgOpPtr& node,
                       std::vector<std::pair<std::string, uint64_t>> deps,
                       engine::Partitioned data, uint64_t bytes);

  /// Records a scan served from cache (wrap or base) / a Parallelize run.
  /// Exposed so the executor can count wrap-cache hits as scan hits.
  void CountScanHit();
  void CountScanMiss();

  /// Drops every entry that read `table` (any generation). Called by
  /// RegisterTable/UnregisterTable. Readers holding pins are unaffected.
  void InvalidateTable(const std::string& table);

  void Clear();

  /// Installs (or clears, with null) the write-back pager. The pager must
  /// outlive every cache operation that may evict or revive (the session
  /// owns both and destroys the cache first).
  void set_pager(std::shared_ptr<PartitionPager> pager);

  size_t byte_budget() const { return byte_budget_; }
  /// Consistent snapshot of the counters (by value: the live struct changes
  /// under concurrent executions).
  Stats stats() const;

 private:
  enum class Kind { kScan, kWrap, kNest };
  /// (kind, nest-node identity, table, var, generation).
  using Key = std::tuple<Kind, const AlgOp*, std::string, std::string, uint64_t>;

  struct Entry {
    /// Resident copy; null while the entry is paged out (`!paged.empty()`).
    PartitionPin data;
    uint64_t bytes = 0;
    uint64_t last_used = 0;
    /// Tables (with the generations seen) this entry depends on.
    std::vector<std::pair<std::string, uint64_t>> deps;
    /// Nest entries pin their plan node against address reuse.
    AlgOpPtr pinned;
    /// Page spans of the written-back copy (pager installed). Kept after a
    /// revival: the data under a key never changes, so the next eviction
    /// is free — drop the resident copy, the spans stay valid.
    std::vector<std::vector<PageSpan>> paged;
  };

  bool Holds(const Key& key) const;

  // The helpers below expect mu_ held by the caller.
  PartitionPin FindLocked(const Key& key);
  PartitionPin PutLocked(Key key, Entry entry);
  /// Revives a paged-out entry through the pager; null on read failure
  /// (treated as a miss — the caller recomputes).
  PartitionPin ReviveLocked(std::map<Key, Entry>::iterator it);
  void EraseLocked(std::map<Key, Entry>::iterator it, uint64_t* counter);
  void EvictToBudgetLocked(const Key& keep);

  size_t byte_budget_;
  std::shared_ptr<PartitionPager> pager_;

  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  uint64_t resident_bytes_ = 0;
  std::map<Key, Entry> entries_;
  Stats stats_;
};

}  // namespace cleanm
