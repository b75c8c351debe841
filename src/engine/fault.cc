#include "engine/fault.h"

namespace cleanm::engine {

namespace {

/// Counter-based deterministic PRNG (splitmix64): the decision for
/// (seed, node, attempt#) is a pure function, so a failure scenario replays
/// identically regardless of thread scheduling.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) draw for one (seed, node, attempt, stream) tuple.
double Draw(uint64_t seed, size_t node, uint64_t attempt, uint64_t stream) {
  uint64_t h = Mix64(seed ^ Mix64(node * 0x9e3779b97f4a7c15ULL) ^
                     Mix64(attempt) ^ Mix64(stream * 0xda942042e4dd58b5ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Per-thread ExecControl installed by ExecControlScope; nullptr = none.
thread_local const ExecControl* tls_exec_control = nullptr;

}  // namespace

ExecControlScope::ExecControlScope(const ExecControl* control)
    : prev_(tls_exec_control) {
  tls_exec_control = control;
}

ExecControlScope::~ExecControlScope() { tls_exec_control = prev_; }

const ExecControl* ExecControlScope::Current() { return tls_exec_control; }

FaultInjector::FaultInjector(size_t num_nodes, FaultOptions options)
    : options_(options),
      nodes_(num_nodes),
      state_(std::make_unique<NodeState[]>(num_nodes)) {}

FaultInjector::AttemptOutcome FaultInjector::OnTaskAttempt(size_t node) {
  AttemptOutcome out;
  if (node >= nodes_ || !options_.enabled()) return out;
  // A blacklisted node is out of service: the simulator runs its partition's
  // work on the surviving pool thread without injecting further faults.
  NodeState& st = state_[node];
  if (st.blacklisted.load(std::memory_order_acquire)) return out;
  const uint64_t attempt = st.attempts.fetch_add(1, std::memory_order_relaxed);
  const bool targeted =
      options_.target_node < 0 || node == static_cast<size_t>(options_.target_node);
  if (!targeted) return out;
  out.fail = attempt < options_.fail_first_attempts ||
             (options_.failure_probability > 0 &&
              Draw(options_.seed, node, attempt, /*stream=*/0) <
                  options_.failure_probability);
  if (!out.fail) {
    st.consecutive_failures.store(0, std::memory_order_relaxed);
    return out;
  }
  const uint64_t streak =
      st.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.node_blacklist_threshold > 0 &&
      streak >= options_.node_blacklist_threshold &&
      !st.blacklisted.exchange(true, std::memory_order_acq_rel)) {
    blacklisted_count_.fetch_add(1, std::memory_order_release);
    out.newly_blacklisted = true;
  }
  return out;
}

Status QuarantineSink::Record(QuarantinedRow row) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rows_.size() >= max_rows_) {
    return Status::Internal(
        "poison-row quarantine cap exceeded (max_quarantined_rows=" +
        std::to_string(max_rows_) + "): " + row.error);
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

}  // namespace cleanm::engine
