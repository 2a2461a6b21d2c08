#ifndef DATABLOCKS_UTIL_STATUS_H_
#define DATABLOCKS_UTIL_STATUS_H_

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/macros.h"

namespace datablocks {

/// Typed error codes for the storage / lifecycle / serving fault paths.
/// Internal invariant violations stay DB_CHECK aborts; *environmental*
/// failures — corrupted bytes on disk, a full disk, a missing block — are
/// recoverable events and travel as Status so one bad byte cannot take a
/// server (and every session on it) down.
enum class StatusCode : uint8_t {
  kOk = 0,
  kCorruption,          // bytes on disk fail validation (magic/checksum/...)
  kIoError,             // the OS refused or truncated an I/O
  kNoSpace,             // short write / ENOSPC; target left readable
  kNotFound,            // no such block / file
  kUnavailable,         // transiently unusable (quarantined, no fetcher)
  kFailedPrecondition,  // API misuse that is data-dependent, not a bug
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kCorruption: return "corruption";
    case StatusCode::kIoError: return "io error";
    case StatusCode::kNoSpace: return "no space";
    case StatusCode::kNotFound: return "not found";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kFailedPrecondition: return "failed precondition";
  }
  return "unknown";
}

/// Value-semantic error carrier. Default-constructed Status is OK and costs
/// nothing beyond an empty string.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status NoSpace(std::string m) {
    return Status(StatusCode::kNoSpace, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  std::string ToString() const {
    if (ok()) return "ok";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or the Status explaining why there is none. Supports
/// move-only payloads (Table, BlockArchive).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    DB_CHECK(!status_.ok());  // an OK StatusOr must carry a value
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    DB_CHECK(ok());
    return *value_;
  }
  const T& value() const& {
    DB_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    DB_CHECK(ok());
    return *std::move(value_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }

 private:
  Status status_;  // OK iff value_ holds
  std::optional<T> value_;
};

/// The exception that carries a storage Status through the execution layer:
/// thrown when an evicted chunk's block cannot be read from the archive (by
/// a scan's Table::OpenForScan or a Table::Get* point read), propagated
/// across pool workers by TaskGroup, and mapped to an error *response* (not
/// an aborted process) by serve::Server.
class StorageException : public std::runtime_error {
 public:
  explicit StorageException(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

inline void ThrowIfError(const Status& status) {
  if (!status.ok()) throw StorageException(status);
}

}  // namespace datablocks

#endif  // DATABLOCKS_UTIL_STATUS_H_
