// Single-file page store: append-only checksummed pages in one flat file.
//
// The store is scratch storage for one session (partition-cache
// write-back) or one execution (breaker spill): pages are
// immutable once written, ids are never recycled, and the whole file is
// unlinked when the store closes (remove-on-close) — there is no recovery
// story, by design, because everything in it can be recomputed from the
// registered datasets.
//
// Thread model: AppendPage serializes slot allocation + pwrite under a
// mutex; ReadPage uses pread and takes no lock, so concurrent readers
// (buffer-pool misses on different worker threads) never contend. A page
// id is only published to readers after its write completed, so a reader
// can never observe a partially written page of its own id.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/pagestore/page.h"

namespace cleanm {

class SingleFileStore {
 public:
  /// Creates (truncates) `path`. `remove_on_close` unlinks it in the
  /// destructor — the RAII guarantee the spill satellite relies on.
  static Result<std::unique_ptr<SingleFileStore>> Create(
      std::string path, size_t page_bytes = kDefaultPageBytes,
      bool remove_on_close = true);

  /// Creates a uniquely named remove-on-close store under `dir`
  /// (empty = the system temp directory).
  static Result<std::unique_ptr<SingleFileStore>> CreateTemp(
      const std::string& dir, const std::string& prefix,
      size_t page_bytes = kDefaultPageBytes);

  ~SingleFileStore();

  SingleFileStore(const SingleFileStore&) = delete;
  SingleFileStore& operator=(const SingleFileStore&) = delete;

  /// Writes `payload` as one page (spanning multiple slots when oversized)
  /// and returns its page id.
  Result<uint64_t> AppendPage(const std::string& payload);

  /// Reads back the page at `page_id`, verifying magic, id, length, and
  /// checksum; any mismatch is a kIOError naming the file, page, and byte
  /// offset. Thread-safe (pread, no lock).
  Result<std::string> ReadPage(uint64_t page_id) const;

  const std::string& path() const { return path_; }
  size_t page_bytes() const { return page_bytes_; }
  /// Process-unique store identity — the buffer pool's frame key. Ids are
  /// never recycled, so a destroyed store's stale frames can never alias a
  /// later store (unlike raw pointers).
  uint64_t store_id() const { return store_id_; }
  uint64_t pages_allocated() const { return next_slot_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }

 private:
  SingleFileStore(std::string path, int fd, size_t page_bytes,
                  bool remove_on_close);

  std::string path_;
  int fd_ = -1;
  size_t page_bytes_;
  bool remove_on_close_;
  uint64_t store_id_;
  std::mutex append_mu_;
  std::atomic<uint64_t> next_slot_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace cleanm
