#ifndef MLLIBSTAR_COMMON_STATUS_H_
#define MLLIBSTAR_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace mllibstar {

/// Error categories used across the library. Public APIs never throw;
/// they return Status (or Result<T>) instead.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnimplemented,
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy in the success case.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or an error Status. Analogous to
/// absl::StatusOr / arrow::Result.
template <typename T>
class Result {
 public:
  /// Implicit so functions can `return value;` or `return status;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : value_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(value_); }

  /// Returns the error status; OK if this holds a value.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(value_);
  }

  /// Precondition: ok(). Checked via CHECK in debug use; callers must
  /// test ok() first on untrusted paths.
  const T& value() const& { return std::get<T>(value_); }
  T& value() & { return std::get<T>(value_); }
  T&& value() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> value_;
};

/// Propagates a non-OK Status out of the current function.
#define MLLIBSTAR_RETURN_NOT_OK(expr)                \
  do {                                               \
    ::mllibstar::Status _st = (expr);                \
    if (!_st.ok()) return _st;                       \
  } while (false)

/// Assigns the value of a Result<T> expression or propagates its error.
#define MLLIBSTAR_ASSIGN_OR_RETURN(lhs, expr)        \
  MLLIBSTAR_ASSIGN_OR_RETURN_IMPL_(                  \
      MLLIBSTAR_CONCAT_(_result_, __LINE__), lhs, expr)

#define MLLIBSTAR_CONCAT_INNER_(a, b) a##b
#define MLLIBSTAR_CONCAT_(a, b) MLLIBSTAR_CONCAT_INNER_(a, b)
#define MLLIBSTAR_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                     \
  if (!tmp.ok()) return tmp.status();                    \
  lhs = std::move(tmp).value();

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_STATUS_H_
