#include "storage/pagestore/spill.h"

#include "common/trace.h"

namespace cleanm {

Result<std::vector<PageSpan>> SpillContext::SpillRows(
    const std::vector<Row>& rows) {
  TraceScope spill_span("io", "spill_write");
  spill_span.SetRowsIn(rows.size());
  // The context lock guards only the lazy store creation: encoding runs
  // unlocked, and AppendPage serializes the writes under the store's own
  // append lock, so nodes spilling at once encode in parallel.
  SingleFileStore* store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (store_ == nullptr) {
      CLEANM_ASSIGN_OR_RETURN(store_,
                              SingleFileStore::CreateTemp(spill_dir_, "spill",
                                                          page_bytes_));
    }
    store = store_.get();
  }
  std::vector<PageSpan> spans;
  std::string payload;
  uint32_t pending = 0;
  auto flush = [&]() -> Status {
    if (pending == 0) return Status::OK();
    std::string chunk;
    EncodeRowChunk(pending, payload, &chunk);
    CLEANM_ASSIGN_OR_RETURN(uint64_t page_id, store->AppendPage(chunk));
    spans.push_back(PageSpan{page_id, pending});
    bytes_spilled_.fetch_add(chunk.size());
    payload.clear();
    pending = 0;
    return Status::OK();
  };
  for (size_t i = 0; i < rows.size(); i++) {
    EncodeRow(rows[i], &payload);
    pending++;
    if (payload.size() + sizeof(PageHeader) + 4 >= store->page_bytes()) {
      CLEANM_RETURN_NOT_OK(flush());
    }
  }
  CLEANM_RETURN_NOT_OK(flush());
  return spans;
}

Status SpillContext::ReadBack(const std::vector<PageSpan>& chunks,
                              std::vector<Row>* out) const {
  TraceScope readback_span("io", "spill_readback");
  const SingleFileStore* store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store = store_.get();
  }
  if (store == nullptr) {
    return chunks.empty() ? Status::OK()
                          : Status::Internal("spill read-back before any spill");
  }
  for (const PageSpan& chunk : chunks) {
    CLEANM_ASSIGN_OR_RETURN(PagePin pin, pool_->Pin(*store, chunk.page_id));
    const size_t before = out->size();
    CLEANM_RETURN_NOT_OK(DecodeRowChunk(*pin, out));
    if (out->size() - before != chunk.rows) {
      return Status::IOError("spill: chunk row count mismatch");
    }
  }
  readback_span.SetRowsOut(out->size());
  return Status::OK();
}

}  // namespace cleanm
