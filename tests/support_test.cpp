// Tests for the support utilities (string formatting, RNG,
// structured errors and their crash-boundary conversion, deadlines,
// parallel-for fault collection).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "support/deadline.hpp"
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

TEST(Support, CurrentErrorMapsEveryExceptionKind) {
  // A dct::Error keeps its code and context.
  try {
    throw Error(Error::Code::kOracleViolation, "bad values")
        .with_context("verify cell");
  } catch (...) {
    const Error e = current_error();
    EXPECT_EQ(e.code(), Error::Code::kOracleViolation);
    EXPECT_STREQ(e.what(), "bad values");
    ASSERT_EQ(e.context().size(), 1u);
    EXPECT_EQ(e.context()[0], "verify cell");
  }
  // Any other std::exception becomes a fault with its message.
  try {
    throw std::runtime_error("vector::at");
  } catch (...) {
    const Error e = current_error();
    EXPECT_EQ(e.code(), Error::Code::kFault);
    EXPECT_STREQ(e.what(), "vector::at");
    EXPECT_TRUE(e.context().empty());
  }
  // Anything else thrown becomes a fault too.
  try {
    throw 7;
  } catch (...) {
    const Error e = current_error();
    EXPECT_EQ(e.code(), Error::Code::kFault);
    EXPECT_STREQ(e.what(), "unknown exception");
  }
}

TEST(Deadline, DefaultNeverExpires) {
  const support::Deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_NO_THROW(d.check("anywhere"));
}

TEST(Deadline, NonPositiveOrNaNExpiresAtOnce) {
  for (const double ms : {0.0, -5.0, std::nan("")})
    EXPECT_TRUE(support::Deadline::in_ms(ms).expired()) << ms;
}

TEST(Deadline, HugeDeadlinesSaturateInsteadOfOverflowing) {
  // Converting these waits to clock ticks would overflow; the deadline
  // must saturate to "never expires", not wrap into the past.
  for (const double ms : {std::numeric_limits<double>::infinity(), 1e300}) {
    const support::Deadline d = support::Deadline::in_ms(ms);
    EXPECT_FALSE(d.expired()) << ms;
    EXPECT_NO_THROW(d.check("anywhere")) << ms;
  }
}

TEST(Deadline, CheckThrowsDeadlineExceededNamingWhere) {
  try {
    support::Deadline::in_ms(0).check("unit test");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
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
