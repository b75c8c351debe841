// Persistent worker pool: the thread substrate of the virtual cluster.
//
// One long-lived thread per virtual node. Operators dispatch a task epoch
// (one closure invocation per worker) instead of spawning fresh threads, so
// a multi-operator unified plan pays thread startup once per query session
// rather than once per operator call. See DESIGN.md, "Thread model".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cleanm::engine {

/// \brief Fixed-size pool of long-lived workers driven by task epochs.
///
/// Dispatch model: the driver publishes one closure per epoch; every worker
/// runs it exactly once with its own worker id, then decrements a completion
/// latch. Epochs are serialized — dispatching while one is in flight first
/// waits for it to drain. Exceptions thrown by workers are captured and the
/// first one is rethrown on the driver in Wait()/Run().
///
/// One driver at a time: the latch and the captured error belong to the
/// single epoch in flight, so two threads publishing epochs concurrently
/// would adopt each other's completion and errors. The pool does not
/// arbitrate between drivers; its owner does. Cluster leases each pool to
/// one dispatching driver and creates another pool when every existing one
/// is leased (see Cluster, "Thread model").
///
/// Re-entrancy: Dispatch()/Run() called from inside one of this pool's own
/// workers (an operator nested in a task) executes the closure inline on the
/// calling thread for all worker ids instead of deadlocking on the busy
/// pool. The inline run never touches the outer epoch's completion latch;
/// its first exception parks in a thread-local slot that the paired Wait()
/// rethrows, so the enclosing task surfaces it like any other worker error.
class WorkerPool {
 public:
  explicit WorkerPool(size_t num_workers);

  /// Drains any in-flight epoch, then stops and joins all workers. Errors
  /// from an unwaited epoch are swallowed (destructors cannot throw).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Dispatches fn as the next epoch and blocks until every worker has run
  /// fn(worker_id). Rethrows the first worker exception, if any.
  void Run(const std::function<void(size_t)>& fn);

  /// Publishes fn as the next epoch without waiting for completion (blocks
  /// only until any *previous* epoch drains). Pair with Wait().
  void Dispatch(std::function<void(size_t)> fn);

  /// Blocks until the in-flight epoch (if any) completes; rethrows the
  /// first captured worker exception.
  void Wait();

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

 private:
  void WorkerLoop(size_t id);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a new epoch is published
  std::condition_variable done_cv_;  ///< driver: the epoch latch reached zero
  std::function<void(size_t)> task_;
  uint64_t epoch_ = 0;
  size_t pending_ = 0;  ///< completion latch for the current epoch
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace cleanm::engine
