// Status / Result error-handling primitives (Arrow/RocksDB idiom).
//
// DeepLens does not throw exceptions across public API boundaries. Every
// fallible operation returns a `Status`, or a `Result<T>` which is either a
// value or a `Status`.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace deeplens {

/// Error categories used across the system.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kIOError = 4,
  kCorruption = 5,
  kNotImplemented = 6,
  kOutOfRange = 7,
  kTypeError = 8,
  kInternal = 9,
  /// The serving layer is at its concurrency bound and the admission
  /// deadline expired — retry later. A load-shedding signal, distinct
  /// from a real failure: the query itself was never started.
  kSaturated = 10,
};

/// Returns a human-readable name for a status code ("OK", "IOError", ...).
const char* StatusCodeName(StatusCode code);

/// \brief Outcome of a fallible operation.
///
/// An OK status carries no allocation; error statuses carry a code plus a
/// message. Statuses are cheap to copy (shared message payload).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg);

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Saturated(std::string msg) {
    return Status(StatusCode::kSaturated, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// The error message; empty for OK.
  const std::string& message() const;

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsTypeError() const { return code() == StatusCode::kTypeError; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsSaturated() const { return code() == StatusCode::kSaturated; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<const State> state_;  // nullptr == OK
};

/// \brief Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value.
  Result(T value) : v_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status. `s` must not be OK.
  Result(Status s) : v_(std::move(s)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(v_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }

  /// Access the value; undefined if !ok().
  T& value() & { return std::get<T>(v_); }
  const T& value() const& { return std::get<T>(v_); }
  /// Moves the value out. Returned by value, not as T&&, so a temporary's
  /// value outlives the full expression: `for (auto& x : F().value())`
  /// iterates a live object.
  T value() && { return std::get<T>(std::move(v_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Moves the value out, or returns `alt` on error.
  T ValueOr(T alt) const& { return ok() ? value() : std::move(alt); }

 private:
  std::variant<T, Status> v_;
};

// Propagate-on-error macros (Arrow idiom).
#define DL_RETURN_NOT_OK(expr)                 \
  do {                                         \
    ::deeplens::Status _st = (expr);           \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define DL_CONCAT_IMPL(a, b) a##b
#define DL_CONCAT(a, b) DL_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on error returns the status, otherwise
/// move-assigns the value into `lhs` (which may be a declaration).
#define DL_ASSIGN_OR_RETURN(lhs, expr)                        \
  DL_ASSIGN_OR_RETURN_IMPL(DL_CONCAT(_dl_res_, __LINE__), lhs, expr)
#define DL_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return tmp.status();            \
  lhs = std::move(tmp).value();

/// Aborts the process if `expr` is not OK. For use in tests/benchmarks and
/// unrecoverable invariant violations only.
#define DL_CHECK_OK(expr)                                              \
  do {                                                                 \
    ::deeplens::Status _st = (expr);                                   \
    if (!_st.ok()) {                                                   \
      ::deeplens::internal::FatalStatus(_st.ToString(), __FILE__,      \
                                        __LINE__);                     \
    }                                                                  \
  } while (0)

namespace internal {
[[noreturn]] void FatalStatus(const std::string& what, const char* file,
                              int line);
}  // namespace internal

}  // namespace deeplens
