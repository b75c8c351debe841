// Status / Result error-handling primitives, in the style of Arrow / RocksDB.
//
// Library entry points return Status (or Result<T> when they produce a
// value) instead of throwing. Internal invariant violations use CLEANM_CHECK,
// which aborts: a broken invariant is a bug, not an error condition.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace cleanm {

/// Machine-readable error category carried by Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kTypeError,
  kIOError,
  kNotImplemented,
  kKeyError,
  kInternal,
  kCancelled,          ///< execution cancelled via CancelToken
  kDeadlineExceeded,   ///< ExecOptions::deadline_ns elapsed mid-execution
  kUnavailable,        ///< a node stayed unavailable past max_task_retries
};

/// \brief Lightweight success/error value returned by fallible operations.
///
/// A default-constructed Status is OK and carries no allocation. Error
/// statuses carry a code and a human-readable message.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + msg_;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kParseError: return "ParseError";
      case StatusCode::kTypeError: return "TypeError";
      case StatusCode::kIOError: return "IOError";
      case StatusCode::kNotImplemented: return "NotImplemented";
      case StatusCode::kKeyError: return "KeyError";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kCancelled: return "Cancelled";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// \brief Either a value of type T or an error Status.
///
/// Mirrors arrow::Result: `ValueOrDie()` asserts success (tests, examples),
/// while production call sites branch on `ok()` first.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : v_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(v_);
  }
  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T&& MoveValue() { return std::move(std::get<T>(v_)); }

  /// Returns the value or aborts with the error message. On a temporary
  /// Result the value is moved out and returned by value, so a reference
  /// taken from `Make().ValueOrDie()` cannot outlive its Result.
  T& ValueOrDie() & {
    if (!ok()) {
      std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                   status().ToString().c_str());
      std::abort();
    }
    return value();
  }
  T ValueOrDie() && { return std::move(ValueOrDie()); }

 private:
  std::variant<T, Status> v_;
};

#define CLEANM_RETURN_NOT_OK(expr)            \
  do {                                        \
    ::cleanm::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

#define CLEANM_CONCAT_IMPL(a, b) a##b
#define CLEANM_CONCAT(a, b) CLEANM_CONCAT_IMPL(a, b)

#define CLEANM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = tmp.MoveValue()

#define CLEANM_ASSIGN_OR_RETURN(lhs, rexpr) \
  CLEANM_ASSIGN_OR_RETURN_IMPL(CLEANM_CONCAT(_res_, __LINE__), lhs, rexpr)

/// Invariant check: aborts on violation. For programmer errors only.
#define CLEANM_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CLEANM_CHECK failed at %s:%d: %s\n",        \
                   __FILE__, __LINE__, #cond);                          \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

}  // namespace cleanm
