// Result<T>: lightweight expected-like return type used across NeST.
//
// std::expected is C++23; this project targets C++20, so we carry a small
// purpose-built variant. Error payloads are an Errc plus a human-readable
// message so protocol handlers can map failures onto wire status codes.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

// Marks a function whose Errc/Status/Result return value is part of the
// error-path contract: callers must consume it, and every preset builds
// with -Werror=unused-result so a dropped return is a compile error. The
// Result/Status class types are [[nodiscard]] themselves, but Errc is a
// plain enum, and the per-function marker keeps the contract visible at
// the declaration; nest-lint's `nodiscard` rule rejects any src/ header
// function returning one of the three without it. Genuinely
// fire-and-forget call sites use `(void)` with a same-line reason
// comment (nest-lint's `voidcast` rule counts and caps those).
#define NEST_NODISCARD [[nodiscard]]

namespace nest {

// Error categories shared by every NeST component. Protocol handlers map
// these onto their wire protocol's status codes (HTTP 404, NFSERR_NOENT, ...).
enum class Errc {
  ok = 0,
  not_found,
  exists,
  not_dir,
  is_dir,
  permission_denied,
  not_authenticated,
  no_space,          // lot capacity or unguaranteed space exhausted
  lot_expired,
  lot_unknown,
  invalid_argument,
  protocol_error,    // malformed wire request
  io_error,
  would_block,
  connection_closed,
  timed_out,
  unsupported,
  busy,
  staging,           // data is on the cold tier; recall in progress, retry
  internal,
};

// Short stable identifier, suitable for logs and wire error strings.
const char* errc_name(Errc e) noexcept;

struct Error {
  Errc code = Errc::internal;
  std::string message;

  std::string to_string() const {
    return message.empty() ? std::string(errc_name(code))
                           : std::string(errc_name(code)) + ": " + message;
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : v_(std::move(err)) {}  // NOLINT(google-explicit-constructor)
  Result(Errc code, std::string msg = {}) : v_(Error{code, std::move(msg)}) {}

  bool ok() const noexcept { return std::holds_alternative<T>(v_); }
  explicit operator bool() const noexcept { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }
  T value_or(T alt) const& { return ok() ? std::get<T>(v_) : std::move(alt); }

  const Error& error() const& {
    assert(!ok());
    return std::get<Error>(v_);
  }
  Errc code() const noexcept { return ok() ? Errc::ok : error().code; }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, Error> v_;
};

// Specialization-free void flavor.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(Error err)  // NOLINT(google-explicit-constructor)
      : err_(std::move(err)), fail_(true) {}
  Status(Errc code, std::string msg = {})
      : err_{code, std::move(msg)}, fail_(code != Errc::ok) {}

  static Status success() { return {}; }

  bool ok() const noexcept { return !fail_; }
  explicit operator bool() const noexcept { return ok(); }
  const Error& error() const {
    assert(fail_);
    return err_;
  }
  Errc code() const noexcept { return fail_ ? err_.code : Errc::ok; }
  std::string to_string() const { return fail_ ? err_.to_string() : "ok"; }

 private:
  Error err_;
  bool fail_ = false;
};

}  // namespace nest
