#include "physical/partition_cache.h"

#include <sstream>

namespace cleanm {

PartitionCache::Stats PartitionCache::Stats::Since(const Stats& before) const {
  Stats delta = *this;
  delta.scan_hits -= before.scan_hits;
  delta.scan_misses -= before.scan_misses;
  delta.nest_hits -= before.nest_hits;
  delta.nest_misses -= before.nest_misses;
  delta.evictions -= before.evictions;
  delta.invalidations -= before.invalidations;
  delta.page_writebacks -= before.page_writebacks;
  delta.page_revivals -= before.page_revivals;
  return delta;
}

std::string PartitionCache::Stats::ToString() const {
  std::ostringstream out;
  out << "{scan_hits=" << scan_hits << " scan_misses=" << scan_misses
      << " nest_hits=" << nest_hits << " nest_misses=" << nest_misses
      << " evictions=" << evictions << " invalidations=" << invalidations
      << " page_writebacks=" << page_writebacks
      << " page_revivals=" << page_revivals
      << " resident_bytes=" << resident_bytes
      << " resident_entries=" << resident_entries << "}";
  return out.str();
}

void PartitionCache::set_pager(std::shared_ptr<PartitionPager> pager) {
  std::lock_guard<std::mutex> lock(mu_);
  pager_ = std::move(pager);
}

PartitionCache::Stats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PartitionCache::CountScanHit() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.scan_hits++;
}

void PartitionCache::CountScanMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.scan_misses++;
}

PartitionPin PartitionCache::FindLocked(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  if (!it->second.data) return ReviveLocked(it);
  return it->second.data;
}

PartitionPin PartitionCache::ReviveLocked(std::map<Key, Entry>::iterator it) {
  if (!pager_ || it->second.paged.empty()) {
    // Unreachable by construction (entries only lose their data via a
    // successful write-back); recover by dropping the husk.
    EraseLocked(it, &stats_.invalidations);
    return nullptr;
  }
  Result<engine::Partitioned> revived = pager_->Read(it->second.paged);
  if (!revived.ok()) {
    // Spill-store read failure (e.g. corruption): surface as a miss so the
    // caller recomputes from the source of truth.
    EraseLocked(it, &stats_.invalidations);
    return nullptr;
  }
  it->second.data =
      std::make_shared<const engine::Partitioned>(revived.MoveValue());
  resident_bytes_ += it->second.bytes;
  stats_.page_revivals++;
  stats_.resident_bytes = resident_bytes_;
  PartitionPin pin = it->second.data;
  const Key key = it->first;
  if (byte_budget_ > 0) EvictToBudgetLocked(key);
  return pin;
}

PartitionPin PartitionCache::FindScan(const std::string& table,
                                      uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(Key{Kind::kScan, nullptr, table, "", generation});
}

PartitionPin PartitionCache::PutScan(const std::string& table,
                                     uint64_t generation,
                                     engine::Partitioned data, uint64_t bytes) {
  Entry entry;
  entry.bytes = bytes;
  entry.data = std::make_shared<const engine::Partitioned>(std::move(data));
  entry.deps = {{table, generation}};
  std::lock_guard<std::mutex> lock(mu_);
  return PutLocked(Key{Kind::kScan, nullptr, table, "", generation},
                   std::move(entry));
}

PartitionPin PartitionCache::FindWrap(const std::string& table,
                                      const std::string& var,
                                      uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(Key{Kind::kWrap, nullptr, table, var, generation});
}

PartitionPin PartitionCache::PutWrap(const std::string& table,
                                     const std::string& var,
                                     uint64_t generation,
                                     engine::Partitioned data, uint64_t bytes) {
  Entry entry;
  entry.bytes = bytes;
  entry.data = std::make_shared<const engine::Partitioned>(std::move(data));
  entry.deps = {{table, generation}};
  std::lock_guard<std::mutex> lock(mu_);
  return PutLocked(Key{Kind::kWrap, nullptr, table, var, generation},
                   std::move(entry));
}

bool PartitionCache::Holds(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

bool PartitionCache::HoldsScan(const std::string& table, uint64_t generation) const {
  return Holds(Key{Kind::kScan, nullptr, table, "", generation});
}

bool PartitionCache::HoldsWrap(const std::string& table, const std::string& var,
                               uint64_t generation) const {
  return Holds(Key{Kind::kWrap, nullptr, table, var, generation});
}

PartitionPin PartitionCache::FindNest(
    const AlgOp* node,
    const std::function<uint64_t(const std::string&)>& generation_of) {
  const Key key{Kind::kNest, node, "", "", 0};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_.nest_misses++;
    return nullptr;
  }
  // Eager invalidation already drops stale entries; the generation re-check
  // is the belt-and-braces guarantee that a stale partitioning is
  // unreachable even if an invalidation path is ever missed.
  for (const auto& [table, generation] : it->second.deps) {
    if (generation_of(table) != generation) {
      EraseLocked(it, &stats_.invalidations);
      stats_.nest_misses++;
      return nullptr;
    }
  }
  it->second.last_used = ++tick_;
  PartitionPin pin = it->second.data ? it->second.data : ReviveLocked(it);
  if (!pin) {
    stats_.nest_misses++;
    return nullptr;
  }
  stats_.nest_hits++;
  return pin;
}

PartitionPin PartitionCache::PutNest(
    const AlgOpPtr& node, std::vector<std::pair<std::string, uint64_t>> deps,
    engine::Partitioned data, uint64_t bytes) {
  Entry entry;
  entry.bytes = bytes;
  entry.data = std::make_shared<const engine::Partitioned>(std::move(data));
  entry.deps = std::move(deps);
  entry.pinned = node;
  std::lock_guard<std::mutex> lock(mu_);
  return PutLocked(Key{Kind::kNest, node.get(), "", "", 0}, std::move(entry));
}

PartitionPin PartitionCache::PutLocked(Key key, Entry entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) EraseLocked(it, nullptr);  // replace, re-accounting
  entry.last_used = ++tick_;
  resident_bytes_ += entry.bytes;
  auto placed = entries_.emplace(key, std::move(entry)).first;
  stats_.resident_bytes = resident_bytes_;
  stats_.resident_entries = entries_.size();
  if (byte_budget_ > 0) EvictToBudgetLocked(key);
  // EvictToBudgetLocked never evicts the entry being admitted, so `placed`
  // is still valid (std::map iterators survive other erasures).
  return placed->second.data;
}

void PartitionCache::EraseLocked(std::map<Key, Entry>::iterator it,
                                 uint64_t* counter) {
  // Drops only the cache's reference: readers holding a pin keep the data.
  // A paged-out entry's bytes already left the resident gauge.
  if (it->second.data) resident_bytes_ -= it->second.bytes;
  entries_.erase(it);
  if (counter) (*counter)++;
  stats_.resident_bytes = resident_bytes_;
  stats_.resident_entries = entries_.size();
}

void PartitionCache::EvictToBudgetLocked(const Key& keep) {
  while (resident_bytes_ > byte_budget_) {
    // Victims are chosen among *resident* entries only; paged-out husks
    // hold no bytes. Never evict the entry being admitted, and keep at
    // least one resident entry (a single over-budget entry is admitted
    // alone rather than thrashing).
    auto victim = entries_.end();
    size_t resident = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.data) continue;
      resident++;
      if (it->first == keep) continue;
      if (victim == entries_.end() || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end() || resident <= 1) return;
    Entry& entry = victim->second;
    if (pager_) {
      // Page out instead of discarding: write the partitions back (first
      // eviction only — the spans stay valid across revivals, so repeat
      // evictions are free) and drop just the resident copy.
      if (entry.paged.empty()) {
        Result<std::vector<std::vector<PageSpan>>> spans = pager_->Write(*entry.data);
        if (spans.ok() && !spans.value().empty()) {
          entry.paged = spans.MoveValue();
          stats_.page_writebacks++;
        }
      }
      if (!entry.paged.empty()) {
        resident_bytes_ -= entry.bytes;
        entry.data.reset();
        stats_.evictions++;
        stats_.resident_bytes = resident_bytes_;
        continue;
      }
      // Write-back failed (or the partitioning was empty): plain eviction.
    }
    EraseLocked(victim, &stats_.evictions);
  }
}

void PartitionCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool depends = false;
    for (const auto& [dep_table, generation] : it->second.deps) {
      (void)generation;
      if (dep_table == table) {
        depends = true;
        break;
      }
    }
    if (depends) {
      auto doomed = it++;
      EraseLocked(doomed, &stats_.invalidations);
    } else {
      ++it;
    }
  }
}

void PartitionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += entries_.size();
  entries_.clear();
  resident_bytes_ = 0;
  stats_.resident_bytes = 0;
  stats_.resident_entries = 0;
}

}  // namespace cleanm
