#include "engine/join.h"

#include <cmath>
#include <unordered_map>

#include "engine/fault.h"
#include "storage/pagestore/spill.h"

namespace cleanm::engine {

namespace {
using BuildTable = std::unordered_map<Value, std::vector<const Row*>, ValueHash, ValueEq>;

/// If the shuffled build side `r` is over the spill budget, writes each
/// node's build partition to the spill file and clears the resident copy.
/// Returns per-node page spans (empty when nothing was spilled). The probe
/// phase then revives one node's build side at a time via ReviveBuildSide,
/// so at most ~|r|/N build rows are resident at once instead of |r|.
std::vector<std::vector<PageSpan>> MaybeSpillBuildSide(SpillContext* spill,
                                                       Partitioned& r) {
  std::vector<std::vector<PageSpan>> spans(r.size());
  if (spill == nullptr || !spill->enabled()) return spans;
  uint64_t bytes = 0;
  for (const auto& part : r)
    for (const auto& row : part) bytes += RowByteSize(row);
  if (!spill->ShouldSpill(bytes, 1)) return spans;
  for (size_t n = 0; n < r.size(); n++) {
    if (r[n].empty()) continue;
    Result<std::vector<PageSpan>> s = spill->SpillRows(r[n]);
    if (!s.ok()) throw StatusException(s.status());
    spans[n] = s.MoveValue();
    Partition().swap(r[n]);
  }
  return spans;
}

/// Reads node `n`'s spilled build rows back into `revived` and returns a
/// reference to them; when nothing was spilled, returns the resident
/// partition untouched.
const Partition& ReviveBuildSide(SpillContext* spill,
                                 const std::vector<std::vector<PageSpan>>& spans,
                                 const Partitioned& r, size_t n,
                                 Partition* revived) {
  if (spans[n].empty()) return r[n];
  Status st = spill->ReadBack(spans[n], revived);
  if (!st.ok()) throw StatusException(st);
  return *revived;
}
}  // namespace

Partitioned HashEquiJoin(Cluster& cluster, const Partitioned& left,
                         const Partitioned& right,
                         const std::function<Value(const Row&)>& left_key,
                         const std::function<Value(const Row&)>& right_key,
                         const std::function<Row(const Row&, const Row&)>& emit,
                         SpillContext* spill) {
  Partitioned l = cluster.Shuffle(left, [&](const Row& r) { return left_key(r).Hash(); });
  Partitioned r = cluster.Shuffle(right, [&](const Row& x) { return right_key(x).Hash(); });
  const std::vector<std::vector<PageSpan>> spilled = MaybeSpillBuildSide(spill, r);
  Partitioned out(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    Partition revived;
    const Partition& build = ReviveBuildSide(spill, spilled, r, n, &revived);
    BuildTable table;
    table.reserve(build.size());
    for (const auto& row : build) table[right_key(row)].push_back(&row);
    for (const auto& lrow : l[n]) {
      auto it = table.find(left_key(lrow));
      if (it == table.end()) continue;
      for (const Row* rrow : it->second) out[n].push_back(emit(lrow, *rrow));
    }
  });
  return out;
}

Partitioned HashLeftOuterJoin(
    Cluster& cluster, const Partitioned& left, const Partitioned& right,
    const std::function<Value(const Row&)>& left_key,
    const std::function<Value(const Row&)>& right_key,
    const std::function<Row(const Row&, const Row&)>& emit,
    const std::function<Row(const Row&)>& emit_unmatched,
    SpillContext* spill) {
  Partitioned l = cluster.Shuffle(left, [&](const Row& r) { return left_key(r).Hash(); });
  Partitioned r = cluster.Shuffle(right, [&](const Row& x) { return right_key(x).Hash(); });
  const std::vector<std::vector<PageSpan>> spilled = MaybeSpillBuildSide(spill, r);
  Partitioned out(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    Partition revived;
    const Partition& build = ReviveBuildSide(spill, spilled, r, n, &revived);
    BuildTable table;
    table.reserve(build.size());
    for (const auto& row : build) table[right_key(row)].push_back(&row);
    for (const auto& lrow : l[n]) {
      auto it = table.find(left_key(lrow));
      if (it == table.end()) {
        out[n].push_back(emit_unmatched(lrow));
        continue;
      }
      for (const Row* rrow : it->second) out[n].push_back(emit(lrow, *rrow));
    }
  });
  return out;
}

const char* ThetaJoinAlgoName(ThetaJoinAlgo a) {
  switch (a) {
    case ThetaJoinAlgo::kCartesian: return "cartesian";
    case ThetaJoinAlgo::kMinMax: return "minmax";
    case ThetaJoinAlgo::kMatrix: return "matrix";
  }
  return "?";
}

namespace {

/// Spark SQL fallback: broadcast the right side, each node crosses its
/// left slice against everything.
Partitioned CartesianJoin(Cluster& cluster, const Partitioned& left,
                          const Partitioned& right,
                          const std::function<bool(const Row&, const Row&)>& pred,
                          const std::function<Row(const Row&, const Row&)>& emit) {
  const Partition all_right = cluster.BroadcastAll(right);
  Partitioned out(cluster.num_nodes());
  cluster.RunOnNodes([&](size_t n) {
    uint64_t checks = 0;
    for (const auto& lrow : left[n]) {
      for (const auto& rrow : all_right) {
        checks++;
        if (pred(lrow, rrow)) out[n].push_back(emit(lrow, rrow));
      }
    }
    cluster.metrics().comparisons += checks;
  });
  return out;
}

struct Bounds {
  Value min, max;
  bool empty = true;
  void Add(const Value& v) {
    if (empty) {
      min = v;
      max = v;
      empty = false;
      return;
    }
    if (v.Compare(min) < 0) min = v;
    if (v.Compare(max) > 0) max = v;
  }
};

/// BigDansing: per-partition min/max pruning. Partition pairs whose bounds
/// may match are co-located (right chunk shipped to the left chunk's node)
/// and fully compared.
Partitioned MinMaxJoin(Cluster& cluster, const Partitioned& left,
                       const Partitioned& right,
                       const std::function<bool(const Row&, const Row&)>& pred,
                       const std::function<Row(const Row&, const Row&)>& emit,
                       const ThetaJoinOptions& options) {
  const size_t n_nodes = cluster.num_nodes();
  std::vector<Bounds> lb(n_nodes), rb(n_nodes);
  const bool have_bounds =
      options.left_bound && options.right_bound && options.ranges_may_match;
  if (have_bounds) {
    cluster.RunOnNodes([&](size_t n) {
      for (const auto& row : left[n]) lb[n].Add(options.left_bound(row));
      for (const auto& row : right[n]) rb[n].Add(options.right_bound(row));
    });
  }
  auto pair_may_match = [&](size_t li, size_t ri) {
    if (left[li].empty() || right[ri].empty()) return false;
    if (!have_bounds) return true;  // no pruning possible
    if (lb[li].empty || rb[ri].empty) return false;
    return options.ranges_may_match(lb[li].min, lb[li].max, rb[ri].min, rb[ri].max);
  };

  // Ship every right chunk that survives pruning to the matching left node;
  // this is the "excessive data shuffling" the paper observes when pruning
  // is ineffective. Each receiving node assembles (and accounts) its own
  // incoming chunks concurrently.
  Partitioned out(n_nodes);
  std::vector<Partition> shipped(n_nodes);
  cluster.RunOnNodes([&](size_t li) {
    uint64_t bytes = 0;
    size_t total = 0;
    for (size_t ri = 0; ri < n_nodes; ri++) {
      if (pair_may_match(li, ri)) total += right[ri].size();
    }
    shipped[li].reserve(total);
    const size_t batch = cluster.options().shuffle_batch_rows;
    for (size_t ri = 0; ri < n_nodes; ri++) {
      if (!pair_may_match(li, ri)) continue;
      for (const auto& row : right[ri]) {
        if (ri != li) bytes += RowByteSize(row);
        shipped[li].push_back(row);
      }
      if (ri != li) {
        cluster.metrics().rows_shuffled += right[ri].size();
        // One chunk transfer = ceil(rows / batch) network messages.
        cluster.metrics().shuffle_batches += (right[ri].size() + batch - 1) / batch;
      }
    }
    cluster.metrics().bytes_shuffled += bytes;
  });
  cluster.RunOnNodes([&](size_t n) {
    uint64_t checks = 0;
    for (const auto& lrow : left[n]) {
      for (const auto& rrow : shipped[n]) {
        checks++;
        if (pred(lrow, rrow)) out[n].push_back(emit(lrow, rrow));
      }
    }
    cluster.metrics().comparisons += checks;
  });
  return out;
}

/// CleanDB: Okcan & Riedewald matrix partitioning. The |L|×|S| matrix is
/// tiled into a g_r × g_c grid with g_r * g_c >= N and near-square tiles
/// (minimizing per-node input), each tile assigned round-robin to a node.
Partitioned MatrixJoin(Cluster& cluster, const Partitioned& left,
                       const Partitioned& right,
                       const std::function<bool(const Row&, const Row&)>& pred,
                       const std::function<Row(const Row&, const Row&)>& emit) {
  const size_t n_nodes = cluster.num_nodes();
  // Statistics phase: exact input cardinalities (the paper's "global data
  // statistics" step).
  const size_t n_left = Cluster::TotalRows(left);
  const size_t n_right = Cluster::TotalRows(right);
  if (n_left == 0 || n_right == 0) return Partitioned(n_nodes);

  // Choose grid dimensions: tiles as square as possible subject to
  // g_r * g_c >= N, g_r <= n_left, g_c <= n_right.
  const double target = std::sqrt(static_cast<double>(n_nodes) *
                                  static_cast<double>(n_left) /
                                  static_cast<double>(n_right));
  size_t g_r = static_cast<size_t>(std::llround(target));
  g_r = std::max<size_t>(1, std::min<size_t>(n_left, g_r));
  size_t g_c = (n_nodes + g_r - 1) / g_r;
  g_c = std::max<size_t>(1, std::min<size_t>(n_right, g_c));
  while (g_r * g_c < n_nodes && g_r < n_left) g_r++;

  // Row/column ranges per tile (equi-sized stripes over the collected
  // inputs; collection is metered as shuffle traffic below).
  std::vector<Row> lrows;
  lrows.reserve(n_left);
  for (const auto& p : left) lrows.insert(lrows.end(), p.begin(), p.end());
  std::vector<Row> rrows;
  rrows.reserve(n_right);
  for (const auto& p : right) rrows.insert(rrows.end(), p.begin(), p.end());

  // Each node receives one stripe of L rows and one stripe of S rows per
  // tile it owns; meter that traffic (each row travels to every tile that
  // needs it, i.e. L rows g_c times, S rows g_r times, minus local copies).
  uint64_t bytes = 0;
  for (const auto& r : lrows) bytes += RowByteSize(r) * g_c;
  for (const auto& r : rrows) bytes += RowByteSize(r) * g_r;
  cluster.metrics().rows_shuffled += n_left * g_c + n_right * g_r;
  cluster.metrics().bytes_shuffled += bytes;

  struct Tile {
    size_t l_begin, l_end, r_begin, r_end;
  };
  std::vector<std::vector<Tile>> tiles_per_node(n_nodes);
  size_t tile_idx = 0;
  uint64_t tile_batches = 0;
  const size_t batch = cluster.options().shuffle_batch_rows;
  for (size_t tr = 0; tr < g_r; tr++) {
    const size_t l_begin = tr * n_left / g_r;
    const size_t l_end = (tr + 1) * n_left / g_r;
    for (size_t tc = 0; tc < g_c; tc++) {
      const size_t r_begin = tc * n_right / g_c;
      const size_t r_end = (tc + 1) * n_right / g_c;
      tiles_per_node[tile_idx % n_nodes].push_back({l_begin, l_end, r_begin, r_end});
      tile_idx++;
      // Each tile receives one L stripe and one S stripe; a stripe of k
      // rows moves as ceil(k / batch) network messages (coarse like the
      // row/byte metering above: local copies are not subtracted).
      if (l_end > l_begin) tile_batches += (l_end - l_begin + batch - 1) / batch;
      if (r_end > r_begin) tile_batches += (r_end - r_begin + batch - 1) / batch;
    }
  }
  cluster.metrics().shuffle_batches += tile_batches;

  Partitioned out(n_nodes);
  cluster.RunOnNodes([&](size_t n) {
    uint64_t checks = 0;
    for (const auto& tile : tiles_per_node[n]) {
      for (size_t i = tile.l_begin; i < tile.l_end; i++) {
        for (size_t j = tile.r_begin; j < tile.r_end; j++) {
          checks++;
          if (pred(lrows[i], rrows[j])) out[n].push_back(emit(lrows[i], rrows[j]));
        }
      }
    }
    cluster.metrics().comparisons += checks;
  });
  return out;
}

}  // namespace

Partitioned ThetaJoin(Cluster& cluster, const Partitioned& left,
                      const Partitioned& right,
                      const std::function<bool(const Row&, const Row&)>& pred,
                      const std::function<Row(const Row&, const Row&)>& emit,
                      const ThetaJoinOptions& options) {
  switch (options.algo) {
    case ThetaJoinAlgo::kCartesian:
      return CartesianJoin(cluster, left, right, pred, emit);
    case ThetaJoinAlgo::kMinMax:
      return MinMaxJoin(cluster, left, right, pred, emit, options);
    case ThetaJoinAlgo::kMatrix:
      return MatrixJoin(cluster, left, right, pred, emit);
  }
  CLEANM_CHECK(false);
  return {};
}

}  // namespace cleanm::engine
