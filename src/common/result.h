// Result<T>: a value-or-Status, the library's counterpart to arrow::Result.
#pragma once

#include <utility>
#include <variant>

#include "common/status.h"

namespace xdbft {

namespace internal {
/// Prints `status` to stderr and aborts: a Result's value was read while
/// it held an error. Out of line to keep the accessors small.
[[noreturn]] void DieOnErrorResult(const Status& status);
}  // namespace internal

/// \brief Holds either a successfully computed value of type T or the Status
/// describing why the computation failed.
///
/// Constructing from a value yields ok(); constructing from a non-OK Status
/// yields an error. Constructing from an OK Status is a programming error and
/// is converted to an Internal error so misuse is still observable.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (std::get<Status>(v_).ok()) {
      v_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  /// \brief The error status; OK() when this Result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(v_);
  }

  /// \brief Access the contained value. Requires ok(): on an error the
  /// process aborts with the status message, in every build type.
  const T& ValueOrDie() const& {
    if (!ok()) internal::DieOnErrorResult(std::get<Status>(v_));
    return *std::get_if<T>(&v_);
  }
  T& ValueOrDie() & {
    if (!ok()) internal::DieOnErrorResult(std::get<Status>(v_));
    return *std::get_if<T>(&v_);
  }
  T ValueOrDie() && {
    if (!ok()) internal::DieOnErrorResult(std::get<Status>(v_));
    return std::move(*std::get_if<T>(&v_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// \brief Returns the value, or `fallback` if this Result is an error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace xdbft

/// Propagate the error of a Result, or assign its value to `lhs`.
#define XDBFT_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).ValueOrDie()

#define XDBFT_ASSIGN_OR_RETURN(lhs, rexpr) \
  XDBFT_ASSIGN_OR_RETURN_IMPL(             \
      XDBFT_CONCAT_(_result_, __LINE__), lhs, rexpr)

#define XDBFT_CONCAT_INNER_(a, b) a##b
#define XDBFT_CONCAT_(a, b) XDBFT_CONCAT_INNER_(a, b)
