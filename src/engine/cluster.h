// Virtual cluster: the scale-out execution substrate.
//
// The paper executes CleanM plans on Spark over 10 worker nodes. This module
// substitutes a *virtual cluster*: N nodes, each a worker thread owning one
// partition set. Data moves between nodes only through explicit shuffle
// calls, which (a) meter rows/bytes/batches moved into QueryMetrics and
// (b) charge a configurable simulated network cost, so that the
// shuffle-volume and load-balance differences the evaluation studies are
// visible in both the counters and the wall clock. See DESIGN.md,
// "Substitutions" and "Thread model & shuffle batching".
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/fault.h"
#include "engine/worker_pool.h"
#include "storage/dataset.h"

namespace cleanm::engine {

/// One node's slice of a distributed collection.
using Partition = std::vector<Row>;
/// A distributed collection: element i lives on node i.
using Partitioned = std::vector<Partition>;

/// Morsel-pump parameters (see Cluster::PumpToDriver / PumpOnWorkers).
struct MorselSpec {
  /// Rows accumulated per output morsel before it is flushed. A single
  /// input row that expands past the target (an Unnest blow-up) still
  /// flushes as one morsel, so the bound is morsel_rows plus one row's
  /// expansion, never a whole operator output.
  size_t morsel_rows = 4096;
  /// Flushed morsels a producing node may buffer ahead of the consumer
  /// (PumpToDriver only). Total in-flight pipeline memory is bounded by
  /// nodes × queue_window × morsel bytes.
  size_t queue_window = 4;
};

/// Per-row expansion applied on the producing worker: appends zero or more
/// output rows for one input row of node `node`.
using MorselExpand = std::function<void(size_t node, const Row&, Partition*)>;

/// Logical footprint (RowByteSize) of a partition / a whole partitioning —
/// the one accounting shared by the shuffle meter, the partition cache,
/// and the peak_bytes_materialized gauge.
uint64_t PartitionLogicalBytes(const Partition& rows);
uint64_t PartitionedLogicalBytes(const Partitioned& data);

/// \brief RAII: routes Cluster::metrics() on the calling thread to a
/// per-execution QueryMetrics for the scope's lifetime.
///
/// Concurrent executions share one Cluster; without a scope they would
/// interleave their counters in the session-cumulative QueryMetrics. A
/// driver thread installs its execution's metrics here; every Cluster
/// fan-out (RunOnNodes, the morsel pumps) re-installs the dispatching
/// driver's override on the workers running its closures, so counters
/// charged from worker code land in the right execution. Passing nullptr
/// (or using no scope) resolves metrics() to the Cluster's own counters.
class MetricsScope {
 public:
  explicit MetricsScope(QueryMetrics* metrics);
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  /// The calling thread's active override (nullptr when none) — what a
  /// fan-out captures on the driver to re-install on its workers.
  static QueryMetrics* Current();

 private:
  QueryMetrics* prev_;
};

struct ClusterOptions {
  /// Number of virtual worker nodes (the paper uses 10).
  size_t num_nodes = 10;
  /// Simulated network cost charged to a sending node per shuffled byte.
  /// The default models a ~1 GB/s effective interconnect. Set to 0 to
  /// benchmark pure compute.
  double shuffle_ns_per_byte = 1.0;
  /// Rows accumulated per (source, destination) buffer before a shuffle
  /// batch is flushed to its destination. The simulated network cost is
  /// charged once per flushed batch. 1 degenerates to row-at-a-time.
  size_t shuffle_batch_rows = 1024;
  /// Deterministic fault injection + retry/blacklist knobs (off by
  /// default). See engine/fault.h.
  FaultOptions fault;
};

/// \brief N-node virtual cluster. All engine operators run through it.
///
/// Thread model: the cluster owns persistent worker pools of one thread per
/// node (see WorkerPool). Every operator call leases an idle pool,
/// dispatches one task epoch on it, blocks on its completion latch, and
/// returns the pool once the epoch has drained. The constructor builds the
/// first pool, so a single driver never creates another; a driver that
/// finds every pool leased creates one more, so N concurrent drivers run on
/// at most N pools and never wait for each other's epochs. A call made on a
/// worker thread (an operator nested in a task) runs inline on that worker.
/// Shuffles accumulate outgoing rows into per-destination batches, charge
/// the simulated network cost per flushed batch, and destinations splice
/// whole batches via std::move.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  /// Nodes, fixed at construction. All Partitioned widths follow this
  /// value.
  size_t num_nodes() const { return options_.num_nodes; }
  const ClusterOptions& options() const { return options_; }

  /// The calling thread's metrics destination: the MetricsScope override
  /// when one is installed (per-execution counters), else the cluster's
  /// session-cumulative counters.
  QueryMetrics& metrics() const;

  /// The session-cumulative counters, bypassing any MetricsScope override —
  /// where completed executions fold their per-execution totals.
  QueryMetrics& session_metrics() const { return metrics_; }

  /// True when `node` was blacklisted after node_blacklist_threshold
  /// consecutive failures. New partitionings route around such nodes.
  bool NodeBlacklisted(size_t node) const { return fault_->blacklisted(node); }

  /// Worker pools created so far: the most drivers that ever held a pool
  /// lease at the same time (at least 1). For tests and bench gates.
  size_t worker_pools() const;

  /// Runs fn(node_id) on every node concurrently and waits for all.
  /// Worker exceptions propagate to the caller (first one wins). Each
  /// node's task attempt passes through the fault injector: an injected
  /// kUnavailable failure is retried with capped exponential backoff (the
  /// attempt fails *before* fn runs, so the retry re-executes that node's
  /// partition from its still-resident input and partials stay exact);
  /// retries exhausted throws NodeUnavailableError. An installed
  /// ExecControlScope is checked per attempt (epoch-boundary cancellation).
  void RunOnNodes(const std::function<void(size_t)>& fn) const;

  /// Distributes rows round-robin across nodes ("parallelize"), routed
  /// around blacklisted nodes.
  Partitioned Parallelize(const std::vector<Row>& rows) const;

  /// Parallelize for rows built where they will live: each node calls
  /// `build(node, placed)` once, with the ascending indices of the rows
  /// i < `rows` that Parallelize would place on it. The placement is taken
  /// before the dispatch, so a node blacklisted mid-dispatch cannot make
  /// two tasks disagree about a row.
  void ParallelizeOnNodes(
      size_t rows,
      const std::function<void(size_t node, const std::vector<size_t>& placed)>& build)
      const;

  /// Gathers all partitions to the driver (order: node 0..N-1).
  std::vector<Row> Collect(const Partitioned& data) const;

  static size_t TotalRows(const Partitioned& data);

  /// Per-node row counts, for imbalance analysis.
  LoadReport Load(const Partitioned& data) const;

  // ---- Narrow-dependency transformations (no shuffle) ----

  Partitioned Filter(const Partitioned& in,
                     const std::function<bool(const Row&)>& pred) const;

  // ---- Wide dependencies (shuffle; metered + charged) ----

  /// Routes every row to the node chosen by `route(row) % num_nodes`.
  /// Each source accumulates per-destination batches of
  /// `shuffle_batch_rows` rows; the network charge lands once per flushed
  /// remote batch. Row-level metrics are identical to an unbatched shuffle.
  Partitioned Shuffle(const Partitioned& in,
                      const std::function<uint64_t(const Row&)>& route);

  /// The same shuffle over rows the caller gives up: each row moves into
  /// its batch instead of being copied, and each source partition is freed
  /// on its own node once routed. Routing and metering are identical.
  Partitioned Shuffle(Partitioned&& in,
                      const std::function<uint64_t(const Row&)>& route);

  /// Replicates every row of `in` to all nodes (broadcast); traffic is
  /// charged once per (row, receiving node), concurrently per sending node.
  Partition BroadcastAll(const Partitioned& in);

  // ---- Morsel-driven pipelining (operator-level streaming) ----
  //
  // Both pumps stream `source` through `expand` in fixed-size morsels on
  // the persistent workers instead of materializing a whole transformed
  // Partitioned. They meter morsels_processed and charge each in-flight
  // morsel's logical bytes to the peak_bytes_materialized gauge.

  /// Workers expand their own node's rows concurrently; the *calling
  /// thread* consumes the transformed morsels in deterministic node-major
  /// order (node 0's morsels in row order, then node 1's, ...), exactly the
  /// order Collect() would deliver. Producers run ahead of the consumer by
  /// at most `spec.queue_window` morsels per node. A non-OK status from
  /// `consume` aborts the producers early and is returned; worker
  /// exceptions rethrow on the caller.
  Status PumpToDriver(const Partitioned& source, const MorselSpec& spec,
                      const MorselExpand& expand,
                      const std::function<Status(size_t node, Partition&&)>& consume);

  /// Same production loop, but each node's morsels are consumed on that
  /// node's own worker thread with no cross-node ordering — the shape
  /// pipeline *breakers* want (fold each morsel straight into node-local
  /// aggregation state). `consume` must tolerate concurrent calls for
  /// distinct nodes; per node, calls arrive in row order.
  void PumpOnWorkers(const Partitioned& source, const MorselSpec& spec,
                     const MorselExpand& expand,
                     const std::function<void(size_t node, Partition&&)>& consume) const;

 private:
  const ClusterOptions options_;
  mutable QueryMetrics metrics_;
  /// Guards pools_ and idle_pools_.
  mutable std::mutex pools_mu_;
  /// Every pool created so far; each lives for the Cluster's lifetime.
  mutable std::vector<std::unique_ptr<WorkerPool>> pools_;
  /// The pools no driver holds a lease on (capacity ≥ pools_.size(), so
  /// returning a lease never allocates).
  mutable std::vector<WorkerPool*> idle_pools_;
  /// Seeded fault state; always constructed (injection disabled by default).
  mutable std::unique_ptr<FaultInjector> fault_;

  /// \brief RAII lease of one worker pool for a dispatching driver.
  ///
  /// Takes an idle pool from the free list, or creates one when every pool
  /// is leased. On a worker thread of this cluster (an operator nested in a
  /// task) it borrows that worker's own pool instead, whose Dispatch runs
  /// inline on the calling thread. The destructor returns a taken pool to
  /// the free list, so the lease must outlive the epoch it dispatched: Run,
  /// or Dispatch paired with Wait, on the error paths too.
  class PoolLease {
   public:
    explicit PoolLease(const Cluster& cluster);
    ~PoolLease();
    PoolLease(const PoolLease&) = delete;
    PoolLease& operator=(const PoolLease&) = delete;

    WorkerPool& pool() const { return *pool_; }
    /// True when the calling thread is one of this cluster's workers.
    bool nested() const { return nested_; }

   private:
    const Cluster& cluster_;
    WorkerPool* pool_ = nullptr;
    bool nested_ = false;
  };

  /// One node's task attempt loop: ExecControl check, fault injection,
  /// retry with capped exponential backoff, blacklist bookkeeping. Runs
  /// `body(n)` at most 1 + max_task_retries times; only injector-thrown
  /// unavailability retries (real worker errors propagate immediately).
  void RunWithFaults(size_t n, const std::function<void(size_t)>& body) const;

  /// Destination remap for new partitionings: a blacklisted node receives
  /// nothing; its share re-routes to the next surviving node.
  size_t SurvivorFor(size_t dst) const;

  /// Round-robin placement of a new partitioning, read once: row i goes to
  /// node_of(i), routed around the nodes blacklisted when it was taken.
  struct Placement {
    std::vector<size_t> slots;  ///< surviving node for each i % num_nodes
    size_t node_of(size_t row) const { return slots[row % slots.size()]; }
  };
  Placement RoundRobinPlacement() const;

  /// The one shuffle loop behind both Shuffle overloads: `Source` is
  /// `const Partitioned` (rows are copied) or `Partitioned` (rows are
  /// moved and each source partition is freed on its node).
  template <typename Source>
  Partitioned ShuffleRows(Source& in, const std::function<uint64_t(const Row&)>& route);

  /// Sleeps for the simulated transfer time of `bytes`. Pure wall-clock
  /// charge; metering is the caller's job. Sleeps in small slices, checking
  /// the installed ExecControl between slices, so deadlines stay prompt in
  /// shuffle-dominated epochs.
  void ChargeNetwork(uint64_t bytes) const;
};

}  // namespace cleanm::engine
