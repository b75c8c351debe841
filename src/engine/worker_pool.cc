#include "engine/worker_pool.h"

#include "common/status.h"

namespace cleanm::engine {

namespace {
/// Set for the duration of each worker's life; lets Run() detect calls made
/// from inside a task of the same pool and fall back to inline execution.
thread_local const WorkerPool* tls_current_pool = nullptr;

/// First exception of a nested inline Dispatch made from a worker thread.
/// The nested run must not touch the outer epoch's completion latch or
/// first_error_ slot, so its error parks here until the paired Wait().
thread_local std::exception_ptr tls_nested_error = nullptr;
}  // namespace

WorkerPool::WorkerPool(size_t num_workers) {
  CLEANM_CHECK(num_workers > 0);
  workers_.reserve(num_workers);
  for (size_t id = 0; id < num_workers; id++) {
    workers_.emplace_back(&WorkerPool::WorkerLoop, this, id);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Let a dispatched-but-unwaited epoch drain before stopping: workers
    // always prefer a pending epoch over the stop flag, but waiting here
    // keeps the shutdown ordering obvious and the latch accounting simple.
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::WorkerLoop(size_t id) {
  tls_current_pool = this;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (epoch_ != seen) {
      seen = epoch_;
      lock.unlock();
      try {
        task_(id);
      } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stop_) return;
  }
}

void WorkerPool::Dispatch(std::function<void(size_t)> fn) {
  CLEANM_CHECK(fn != nullptr);
  if (OnWorkerThread()) {
    // Nested dispatch from one of our own tasks: the pool is busy running
    // the enclosing epoch, so execute inline on the calling thread. The
    // completion latch belongs to the outer epoch and must not be touched;
    // the first exception parks in the thread-local slot for Wait().
    // Starting a new nested dispatch discards any error a previous,
    // never-waited-for nested dispatch abandoned — mirroring how the driver
    // path resets first_error_ per epoch.
    tls_nested_error = nullptr;
    for (size_t id = 0; id < workers_.size(); id++) {
      try {
        fn(id);
      } catch (...) {
        if (!tls_nested_error) tls_nested_error = std::current_exception();
      }
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });  // serialize epochs
    task_ = std::move(fn);
    first_error_ = nullptr;
    pending_ = workers_.size();
    epoch_++;
  }
  work_cv_.notify_all();
}

void WorkerPool::Wait() {
  if (OnWorkerThread()) {
    // Completing a nested inline Dispatch: surface its parked error to the
    // enclosing task (which the outer epoch then captures as usual).
    std::exception_ptr error = tls_nested_error;
    tls_nested_error = nullptr;
    if (error) std::rethrow_exception(error);
    return;
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

bool WorkerPool::OnWorkerThread() const { return tls_current_pool == this; }

void WorkerPool::Run(const std::function<void(size_t)>& fn) {
  Dispatch(fn);
  Wait();
}

}  // namespace cleanm::engine
