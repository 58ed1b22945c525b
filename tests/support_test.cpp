// Tests for the support utilities (string formatting, RNG,
// structured errors, cancellation tokens, parallel-for fault collection).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>

#include "support/cancel.hpp"
#include "support/diagnostics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace dct {
namespace {

TEST(Str, Strf) {
  EXPECT_EQ(strf("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(strf("%s", ""), "");
  // Long output beyond any small internal buffer.
  const std::string big(500, 'a');
  EXPECT_EQ(strf("%s!", big.c_str()).size(), 501u);
}

TEST(Str, Join) {
  EXPECT_EQ(join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<int>{1, 2}, "-"), "1-2");
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
}

TEST(Rng, DeterministicAndSpread) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());

  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit

  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Error, CodesAndContextChain) {
  Error e(Error::Code::kUnsupportedConfig, "too many processors");
  EXPECT_EQ(e.code(), Error::Code::kUnsupportedConfig);
  e.with_context("simulate").with_context("sweep cell");
  ASSERT_EQ(e.context().size(), 2u);
  EXPECT_EQ(e.context()[0], "simulate");  // innermost first
  const std::string full = e.full_message();
  EXPECT_NE(full.find("too many processors"), std::string::npos);
  EXPECT_NE(full.find("simulate"), std::string::npos);
  EXPECT_NE(full.find("sweep cell"), std::string::npos);
  // Plain-message constructor stays kGeneric (DCT_CHECK's path).
  EXPECT_EQ(Error("x").code(), Error::Code::kGeneric);
  EXPECT_STREQ(to_string(Error::Code::kDeadlineExceeded),
               "deadline-exceeded");
}

TEST(Cancel, InertTokenNeverExpires) {
  const support::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.expired());
  EXPECT_NO_THROW(t.check("anywhere"));
}

TEST(Cancel, ExplicitCancelAndDeadline) {
  const support::CancelToken t = support::CancelToken::make();
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.expired());
  t.cancel();
  EXPECT_TRUE(t.expired());
  EXPECT_EQ(t.reason(), Error::Code::kCancelled);
  try {
    t.check("unit test");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kCancelled);
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
  }

  const support::CancelToken d = support::CancelToken::with_deadline_ms(0);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.reason(), Error::Code::kDeadlineExceeded);
}

TEST(Cancel, HugeDeadlinesSaturateInsteadOfOverflowing) {
  // Converting these waits to clock ticks would overflow; the token must
  // saturate to "never expires", not wrap into the past.
  for (const double ms : {std::numeric_limits<double>::infinity(), 1e300}) {
    const support::CancelToken t = support::CancelToken::with_deadline_ms(ms);
    EXPECT_FALSE(t.expired()) << ms;
  }
}

TEST(Parallel, RethrowsLowestIndexForDirectCallers) {
  // A failing index stops nothing: every index runs, then the lowest
  // failure is rethrown whatever the scheduling.
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      support::parallel_for(8, threads, [&](int i) {
        ++ran;
        if (i >= 2) throw Error(strf("fail %d", i));
      });
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "fail 2");
    }
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(Parallel, CancelledTokenStopsDispatch) {
  // Pre-cancelled token: no index is dispatched at all.
  for (int threads : {1, 4}) {
    const support::CancelToken t = support::CancelToken::make();
    t.cancel();
    std::atomic<int> ran{0};
    const std::vector<char> started =
        support::parallel_for(100, threads, [&](int) { ++ran; }, t);
    EXPECT_EQ(ran.load(), 0);
    ASSERT_EQ(started.size(), 100u);
    for (char s : started) EXPECT_FALSE(s);
  }

  // Mid-run cancellation (serial, so the cut point is deterministic):
  // indices after the trip are drained and marked unstarted.
  const support::CancelToken t = support::CancelToken::make();
  std::atomic<int> ran{0};
  const std::vector<char> started = support::parallel_for(
      100, 1,
      [&](int i) {
        ++ran;
        if (i == 0) t.cancel();
      },
      t);
  EXPECT_EQ(ran.load(), 1);
  ASSERT_EQ(started.size(), 100u);
  EXPECT_TRUE(started[0]);
  for (size_t i = 1; i < started.size(); ++i) EXPECT_FALSE(started[i]);
}

TEST(Rng, InclusiveBoundsAndNegatives) {
  Rng r(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform(-2, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

}  // namespace
}  // namespace dct
