// Wall-clock deadlines for long-running work: a dctd request's
// deadline_ms and a sweep's SweepOptions::deadline_ms. A Deadline is a
// plain value holding the instant it expires at; a default one never
// expires, and checking it is one compare with no clock read.
#pragma once

#include <chrono>
#include <string>

#include "support/diagnostics.hpp"

namespace dct::support {

class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// Expires `ms` milliseconds from now. Saturating: ms <= 0 or NaN
  /// expires at once, and a wait past the clock's range (up to +inf)
  /// never expires.
  static Deadline in_ms(double ms) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, std::milli> wait(ms);
    Deadline d;
    // Converting a wait beyond the clock's range to ticks would overflow.
    // Half the remaining range leaves slack for the double's rounding.
    if (!(ms > 0))
      d.at_ = now;
    else if (wait < (Clock::time_point::max() - now) / 2)
      d.at_ = now + std::chrono::duration_cast<Clock::duration>(wait);
    return d;
  }

  bool expired() const {
    return at_ != std::chrono::steady_clock::time_point::max() &&
           std::chrono::steady_clock::now() >= at_;
  }

  /// Throw Error(kDeadlineExceeded) mentioning `where` once expired.
  void check(const char* where) const {
    if (expired())
      throw Error(Error::Code::kDeadlineExceeded,
                  std::string("deadline exceeded in ") + where);
  }

 private:
  std::chrono::steady_clock::time_point at_ =
      std::chrono::steady_clock::time_point::max();
};

}  // namespace dct::support
