// Unit and property tests for the exact integer linear algebra substrate.
#include "linalg/int_matrix.hpp"

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace dct::linalg {
namespace {

TEST(CheckedArith, OverflowThrows) {
  EXPECT_THROW(checked_mul(INT64_MAX, 2), Error);
  EXPECT_THROW(checked_add(INT64_MAX, 1), Error);
  EXPECT_THROW(checked_sub(INT64_MIN, 1), Error);
  EXPECT_EQ(checked_mul(1'000'000, 1'000'000), 1'000'000'000'000);
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(Vec{4, -6, 10}), 2);
  EXPECT_EQ(gcd(Vec{}), 0);
}

TEST(FloorOps, MatchMathematicalDefinition) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(7, -2), -4);
  EXPECT_EQ(floor_mod(-7, 2), 1);
  EXPECT_EQ(floor_mod(7, 4), 3);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_THROW(floor_div(1, 0), Error);
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const Int a = rng.uniform(-100, 100);
    const Int b = rng.uniform(1, 20);
    const Int q = floor_div(a, b);
    const Int m = floor_mod(a, b);
    EXPECT_EQ(q * b + m, a);
    EXPECT_EQ(ceil_div(a, b) - q, m == 0 ? 0 : 1);
    EXPECT_GE(m, 0);
    EXPECT_LT(m, b);
  }
}

TEST(IntMatrix, ConstructionAndAccess) {
  IntMatrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(1, 2), 6);
  const std::span<const Int> row = m.row(0);
  EXPECT_EQ(Vec(row.begin(), row.end()), (Vec{1, 2, 3}));
  EXPECT_THROW((void)m.row(2), Error);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 3), Error);
}

TEST(IntMatrix, MulAndTranspose) {
  IntMatrix a{{1, 2}, {3, 4}};
  IntMatrix b{{0, 1}, {1, 0}};
  EXPECT_EQ(a * b, (IntMatrix{{2, 1}, {4, 3}}));
  EXPECT_EQ(a * Vec({1, 1}), (Vec{3, 7}));
  EXPECT_EQ(IntMatrix::identity(2) * a, a);
}

TEST(IntMatrix, Submatrix) {
  const IntMatrix a{{1, 2, 5}, {3, 4, 6}};
  EXPECT_EQ(a.submatrix(0, 2, 1, 3), (IntMatrix{{2, 5}, {4, 6}}));
  EXPECT_EQ(a.submatrix(1, 2, 0, 3), (IntMatrix{{3, 4, 6}}));
  EXPECT_EQ(a.submatrix(0, 0, 0, 3).rows(), 0);
  EXPECT_THROW(a.submatrix(0, 3, 0, 1), Error);
}

/// Full column rank is decided by the elimination that solves; only a
/// unique integral solution is returned.
TEST(SolveUniqueIntegral, RankAndIntegrality) {
  const auto full_rank = [](const IntMatrix& a) {
    bool full = false;
    solve_unique_integral(a, Vec(static_cast<size_t>(a.rows()), 0), full);
    return full;
  };
  EXPECT_FALSE(full_rank(IntMatrix{{1, 2}, {2, 4}}));
  EXPECT_TRUE(full_rank(IntMatrix{{1, 0}, {0, 1}}));
  EXPECT_FALSE(full_rank(IntMatrix(3, 3)));
  EXPECT_FALSE(full_rank(IntMatrix{{2, 4, 6}, {1, 2, 3}, {0, 0, 1}}));
  EXPECT_TRUE(full_rank(IntMatrix{{1, 0}, {2, 1}, {0, 3}}));

  bool full = false;
  const IntMatrix diag{{1, 1}, {1, -1}};
  EXPECT_EQ(solve_unique_integral(diag, Vec{2, 0}, full), (Vec{1, 1}));
  EXPECT_TRUE(full);
  EXPECT_FALSE(solve_unique_integral(diag, Vec{1, 0}, full).has_value());
  EXPECT_TRUE(full);  // x = (1/2, 1/2): unique but not integral
  EXPECT_FALSE(
      solve_unique_integral(IntMatrix{{1}, {1}}, Vec{1, 2}, full).has_value());
  EXPECT_TRUE(full);  // inconsistent
  EXPECT_EQ(solve_unique_integral(IntMatrix{{3, 0}, {0, -2}, {3, -2}},
                                  Vec{-6, 4, -2}, full),
            (Vec{-2, -2}));
  EXPECT_FALSE(solve_unique_integral(IntMatrix{{0, 1}}, Vec{1}, full));
  EXPECT_FALSE(full);
}

TEST(Determinant, Basics) {
  EXPECT_EQ(determinant(IntMatrix{{2, 0}, {0, 3}}), 6);
  EXPECT_EQ(determinant(IntMatrix{{0, 1}, {1, 0}}), -1);
  EXPECT_EQ(determinant(IntMatrix{{1, 2}, {2, 4}}), 0);
  EXPECT_EQ(determinant(IntMatrix::identity(5)), 1);
  EXPECT_THROW(determinant(IntMatrix(2, 3)), Error);
}

}  // namespace
}  // namespace dct::linalg
