// Fault model for the virtual cluster: deterministic fault injection,
// cooperative cancellation/deadlines, and the poison-row quarantine.
//
// The paper's comprehensions compile to per-node local phases merged by
// associative monoid merges, so re-executing one node's partition after a
// failed task attempt reproduces the exact same partial — the property the
// retry path below relies on (see DESIGN.md, "Fault model & recovery").
// Failures are *injected* (this cluster is a simulator): a seeded
// FaultInjector decides per task attempt whether the attempt fails with
// kUnavailable, deterministically in (seed, node, attempt#), so every
// failure scenario replays bit-identically in tests and CI.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cleanm::engine {

/// \brief Exception carrying a Status through the worker substrate.
///
/// The engine propagates worker errors as exceptions (WorkerPool captures
/// and rethrows them on the driver); the session layer catches this type at
/// its boundary and returns the carried Status, so kUnavailable /
/// kCancelled / kDeadlineExceeded surface as ordinary error Statuses.
class StatusException : public std::runtime_error {
 public:
  explicit StatusException(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Thrown when a node's task attempt fails (injected kUnavailable) and, if
/// retries were available, stayed failed past max_task_retries.
class NodeUnavailableError : public StatusException {
 public:
  NodeUnavailableError(size_t node, std::string msg)
      : StatusException(Status::Unavailable(std::move(msg))), node_(node) {}
  size_t node() const { return node_; }

 private:
  size_t node_;
};

/// Fault-injection and recovery knobs (ClusterOptions::fault, fixed for the
/// cluster's lifetime).
struct FaultOptions {
  /// Probability that any one task attempt fails with kUnavailable.
  double failure_probability = 0.0;
  /// Seed for the deterministic per-(node, attempt) failure decisions.
  uint64_t seed = 0;
  /// When ≥ 0, faults fire only on this node (targeted-node trigger).
  int target_node = -1;
  /// Targeted trigger: a node's first K task attempts fail deterministically
  /// (on top of failure_probability). Combined with target_node this scripts
  /// exact retry / blacklist scenarios.
  uint64_t fail_first_attempts = 0;
  /// Failed attempts retried per task before the failure is fatal
  /// (kUnavailable propagates to the execution).
  size_t max_task_retries = 3;
  /// Base of the capped exponential retry backoff: attempt k sleeps
  /// retry_backoff_ns << min(k, 6). 0 disables the sleep.
  uint64_t retry_backoff_ns = 20000;
  /// Consecutive failures after which a node is blacklisted: it stops
  /// failing (its partitions' work runs on the surviving pool) and new
  /// partitionings route around it. 0 = never blacklist.
  size_t node_blacklist_threshold = 0;

  /// True when any injection can fire — the retry wrapper's fast-path gate.
  bool enabled() const {
    return failure_probability > 0 || fail_first_attempts > 0;
  }
};

/// \brief Seeded per-node fault state owned by Cluster. Thread-safe for
/// concurrent task attempts; its options are fixed at construction, and a
/// blacklisted node stays out of service for the injector's lifetime.
class FaultInjector {
 public:
  explicit FaultInjector(size_t num_nodes, FaultOptions options = {});

  const FaultOptions& options() const { return options_; }

  struct AttemptOutcome {
    bool fail = false;               ///< attempt must fail with kUnavailable
    bool newly_blacklisted = false;  ///< this failure crossed the threshold
  };

  /// Called at the start of each task attempt on `node`: decides
  /// deterministically whether the attempt fails, updating the
  /// consecutive-failure / blacklist state.
  AttemptOutcome OnTaskAttempt(size_t node);

  bool blacklisted(size_t node) const {
    return node < nodes_ && state_[node].blacklisted.load(std::memory_order_acquire);
  }
  /// Cheap gate for the shuffle/parallelize re-routing paths.
  bool AnyBlacklisted() const {
    return blacklisted_count_.load(std::memory_order_acquire) > 0;
  }

 private:
  struct NodeState {
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> consecutive_failures{0};
    std::atomic<bool> blacklisted{false};
  };

  const FaultOptions options_;
  size_t nodes_;
  std::unique_ptr<NodeState[]> state_;
  std::atomic<size_t> blacklisted_count_{0};
};

/// \brief Cooperative cancellation flag shared between a driver and the
/// threads that may cancel it. Exposed on PreparedQuery; sticky until
/// Reset().
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  void Reset() { cancelled_.store(false, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief One execution's cancellation sources: a CancelToken and/or a
/// deadline. Checked at epoch boundaries (every task attempt), at morsel
/// boundaries (PumpToDriver's drain loop), and inside simulated network
/// sleeps, so a cancelled or overdue execution unwinds promptly through the
/// existing abort/join protocol.
struct ExecControl {
  const CancelToken* token = nullptr;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  Status Check() const {
    if (token && token->cancelled()) {
      return Status::Cancelled("execution cancelled via CancelToken");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("ExecOptions::deadline_ns elapsed");
    }
    return Status::OK();
  }
};

/// \brief RAII: installs an ExecControl for the calling thread, exactly the
/// MetricsScope pattern — Cluster fan-outs capture Current() on the driver
/// and re-install it on the workers running that driver's closures.
class ExecControlScope {
 public:
  explicit ExecControlScope(const ExecControl* control);
  ~ExecControlScope();
  ExecControlScope(const ExecControlScope&) = delete;
  ExecControlScope& operator=(const ExecControlScope&) = delete;

  static const ExecControl* Current();

 private:
  const ExecControl* prev_;
};

/// One poison row recorded by the quarantine.
struct QuarantinedRow {
  std::string table;  ///< source label: scan table name, "join", or "nest"
  size_t node = 0;    ///< node whose partition held the row
  size_t row = 0;     ///< row ordinal within that node's source stream
  std::string error;  ///< what the compiled expression / UDF threw
};

/// \brief Per-execution record of poison rows: a row whose compiled
/// expression or UDF throws is recorded here and skipped instead of
/// aborting the execution, up to a hard cap. Thread-safe (producers on
/// several nodes quarantine concurrently).
class QuarantineSink {
 public:
  explicit QuarantineSink(size_t max_rows) : max_rows_(max_rows) {}

  /// Records one poison row. OK = row quarantined, caller skips it; error
  /// (kInternal) = the cap is exhausted and the execution must abort.
  Status Record(QuarantinedRow row);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_.size();
  }
  std::vector<QuarantinedRow> TakeRows() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(rows_);
  }

 private:
  size_t max_rows_;
  mutable std::mutex mu_;
  std::vector<QuarantinedRow> rows_;
};

}  // namespace cleanm::engine
