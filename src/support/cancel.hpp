// Cooperative cancellation for long-running work (sweeps, simulations).
//
// A CancelToken is a cheap shared handle; a default-constructed token is
// inert (never cancels, no allocation), so code paths that thread a token
// through pay nothing unless the caller opted in. Tokens cancel either
// explicitly (cancel()) or by a wall-clock deadline (with_deadline_ms);
// the experiment harness builds one per sweep from
// SweepOptions::deadline_ms and polls it in the executor's segment loops — a tripped deadline stops
// both running simulations and the queuing of new sweep cells.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "support/diagnostics.hpp"

namespace dct::support {

class CancelToken {
 public:
  /// Inert token: valid() is false, expired() is always false, zero cost.
  CancelToken() = default;

  /// Manually cancellable token.
  static CancelToken make();
  /// Token that expires `ms` milliseconds from now. Saturating: ms <= 0
  /// or NaN expires immediately, and a wait past the clock's range (up to
  /// +inf) never expires.
  static CancelToken with_deadline_ms(double ms);

  bool valid() const { return s_ != nullptr; }

  /// Trip the token (idempotent; safe from any thread).
  void cancel() const;

  /// True when cancelled or past the deadline. A deadline trip latches the
  /// flag so later polls skip the clock read.
  bool expired() const;

  /// The code expired() tripped with: kCancelled for explicit cancels,
  /// kDeadlineExceeded for deadline trips. Meaningful only after expired().
  Error::Code reason() const;

  /// Throw Error(reason()) mentioning `where` when expired; no-op
  /// otherwise (and always a no-op for an inert token).
  void check(const char* where) const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<int> reason{0};  ///< static_cast<int>(Error::Code)
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };
  std::shared_ptr<State> s_;
};

}  // namespace dct::support
