#include "support/cancel.hpp"

#include <string>

namespace dct::support {

CancelToken CancelToken::make() {
  CancelToken t;
  t.s_ = std::make_shared<State>();
  return t;
}

CancelToken CancelToken::with_deadline_ms(double ms) {
  CancelToken t = make();
  t.s_->has_deadline = true;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double, std::milli> wait(ms);
  // Converting a wait beyond the clock's range to ticks would overflow.
  // Half the remaining range leaves slack for the double's rounding.
  if (!(ms > 0))
    t.s_->deadline = now;
  else if (wait >= (Clock::time_point::max() - now) / 2)
    t.s_->deadline = Clock::time_point::max();
  else
    t.s_->deadline = now + std::chrono::duration_cast<Clock::duration>(wait);
  return t;
}

void CancelToken::cancel() const {
  if (s_ == nullptr) return;
  s_->reason.store(static_cast<int>(Error::Code::kCancelled),
                   std::memory_order_relaxed);
  s_->cancelled.store(true, std::memory_order_release);
}

bool CancelToken::expired() const {
  if (s_ == nullptr) return false;
  if (s_->cancelled.load(std::memory_order_acquire)) return true;
  if (s_->has_deadline &&
      std::chrono::steady_clock::now() >= s_->deadline) {
    s_->reason.store(static_cast<int>(Error::Code::kDeadlineExceeded),
                     std::memory_order_relaxed);
    s_->cancelled.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

Error::Code CancelToken::reason() const {
  if (s_ == nullptr) return Error::Code::kCancelled;
  const int r = s_->reason.load(std::memory_order_relaxed);
  return r == 0 ? Error::Code::kCancelled : static_cast<Error::Code>(r);
}

void CancelToken::check(const char* where) const {
  if (!expired()) return;
  const Error::Code code = reason();
  throw Error(code, std::string(code == Error::Code::kDeadlineExceeded
                                    ? "deadline exceeded in "
                                    : "cancelled in ") +
                        where);
}

}  // namespace dct::support
