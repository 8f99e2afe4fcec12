#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace elephant {

/// Error codes used across the engine. Modeled after the RocksDB convention:
/// functions that can fail return a `Status` (or `Result<T>`), never throw.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruption,
  kNotSupported,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kInternal,
  kParseError,
  kBindError,
  kPlanError,
  kExecError,
  kIoError,
  kAborted,
};

/// Returns a human-readable name for a status code (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success/error carrier. `Status::OK()` is the success value;
/// every other constructor captures a code and a message.
///
/// Typical use:
/// ```
/// Status s = table->Insert(row);
/// if (!s.ok()) return s;
/// ```
///
/// `[[nodiscard]]`: a dropped Status is a silently swallowed failure — in
/// the WAL/commit paths it is the difference between "durable" and
/// "acknowledged but lost". Every producer must be consumed (the build
/// passes -Werror=unused-result); genuinely intentional discards are
/// spelled `(void)expr;` with a `// lint:allow(discarded-status): reason`
/// justification, which the discarded-status lint rule requires.
class [[nodiscard]] Status {
 public:
  /// Constructs a success status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  /// Success value.
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
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status PlanError(std::string msg) {
    return Status(StatusCode::kPlanError, std::move(msg));
  }
  static Status ExecError(std::string msg) {
    return Status(StatusCode::kExecError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Value-or-error carrier. Holds either a `T` or a non-OK `Status`.
///
/// ```
/// Result<int> r = Parse(s);
/// if (!r.ok()) return r.status();
/// Use(r.value());
/// ```
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a success result holding `value`.
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Constructs an error result. `status` must not be OK.
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(state_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// The error status. Returns OK if this result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(state_);
  }

  /// The held value; must only be called when `ok()`.
  T& value() & {
    assert(ok());
    return std::get<T>(state_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(state_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(state_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> state_;
};

/// Propagates a non-OK `Status` from the current function.
#define ELE_RETURN_NOT_OK(expr)           \
  do {                                    \
    ::elephant::Status _s = (expr);       \
    if (!_s.ok()) return _s;              \
  } while (0)

/// Evaluates a `Result<T>` expression, propagating errors, else assigns
/// the value to `lhs` (which must be a declaration or assignable lvalue).
#define ELE_ASSIGN_OR_RETURN(lhs, expr)   \
  auto ELE_CONCAT_(_res_, __LINE__) = (expr);              \
  if (!ELE_CONCAT_(_res_, __LINE__).ok())                  \
    return ELE_CONCAT_(_res_, __LINE__).status();          \
  lhs = std::move(ELE_CONCAT_(_res_, __LINE__)).value()

#define ELE_CONCAT_IMPL_(a, b) a##b
#define ELE_CONCAT_(a, b) ELE_CONCAT_IMPL_(a, b)

}  // namespace elephant
