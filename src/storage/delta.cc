#include "storage/delta.h"

namespace cleanm {

namespace {

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

}  // namespace

bool TableEpoch::Collect(uint64_t from_exclusive, uint64_t to_inclusive,
                         std::vector<Row>* added, std::vector<Row>* removed) const {
  if (from_exclusive < start || to_inclusive > start + deltas.size()) return false;
  std::vector<Row> add_acc, rm_acc;
  for (uint64_t g = from_exclusive; g < to_inclusive; g++) {
    const TableDelta& delta = *deltas[g - start];
    for (const auto& r : delta.removed) {
      // A removal of a row added earlier in the window nets out: the base
      // never saw it, so neither output should.
      bool netted = false;
      for (size_t i = 0; i < add_acc.size(); i++) {
        if (RowsEqual(add_acc[i], r)) {
          add_acc.erase(add_acc.begin() + static_cast<long>(i));
          netted = true;
          break;
        }
      }
      if (!netted) rm_acc.push_back(r);
    }
    for (const auto& r : delta.added) add_acc.push_back(r);
  }
  added->insert(added->end(), add_acc.begin(), add_acc.end());
  removed->insert(removed->end(), rm_acc.begin(), rm_acc.end());
  return true;
}

}  // namespace cleanm
