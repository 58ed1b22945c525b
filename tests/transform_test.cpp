// Tests for unimodular loop transformations: the transformed nest must
// execute exactly the same set of statement instances (same array touches)
// in a new order.
#include "ir/transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace dct::ir {
namespace {

using linalg::IntMatrix;

/// Collect the multiset of (array, element index) touches of a nest.
std::multiset<std::pair<int, Vec>> touches(const LoopNest& nest) {
  std::multiset<std::pair<int, Vec>> out;
  for_each_iteration(nest, [&](std::span<const Int> it, std::span<const Int>) {
    for (const Stmt& s : nest.stmts) {
      for (const ArrayRef& r : s.reads) out.insert({r.array, r.index(it)});
      out.insert({s.write.array, s.write.index(it)});
    }
  });
  return out;
}

LoopNest rect_nest(Int n, Int m) {
  LoopNest nest;
  nest.name = "rect";
  nest.loops.push_back(loop("i", cst(0), cst(n - 1)));
  nest.loops.push_back(loop("j", cst(0), cst(m - 1)));
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(0, 2, {{0, 0}, {1, 1}})};
  nest.stmts.push_back(std::move(s));
  return nest;
}

LoopNest tri_nest(Int n) {
  LoopNest nest;
  nest.name = "tri";
  nest.loops.push_back(loop("i", cst(0), cst(n - 1)));
  nest.loops.push_back(loop("j", var(0) + 1, cst(n - 1)));
  Stmt s;
  s.write = simple_ref(0, 2, {{1, 0}, {0, 0}});
  nest.stmts.push_back(std::move(s));
  return nest;
}

TEST(Matrices, Constructors) {
  EXPECT_EQ(permutation_matrix({1, 0}), (IntMatrix{{0, 1}, {1, 0}}));
  EXPECT_EQ(skew_matrix(2, 1, 0, 3), (IntMatrix{{1, 0}, {3, 1}}));
  EXPECT_THROW(permutation_matrix({0, 0}), Error);
  EXPECT_THROW(skew_matrix(2, 1, 1, 1), Error);
}

TEST(UnimodularInverse, RoundTrips) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    // Random unimodular: product of elementary skews and permutations.
    const int n = static_cast<int>(rng.uniform(2, 4));
    IntMatrix u = IntMatrix::identity(n);
    for (int k = 0; k < 5; ++k) {
      const int a = static_cast<int>(rng.uniform(0, n - 1));
      int b = static_cast<int>(rng.uniform(0, n - 1));
      if (a == b) b = (b + 1) % n;
      u = u * skew_matrix(n, a, b, rng.uniform(-2, 2));
    }
    const IntMatrix inv = unimodular_inverse(u);
    EXPECT_EQ(u * inv, IntMatrix::identity(n));
    EXPECT_EQ(inv * u, IntMatrix::identity(n));
  }
  EXPECT_THROW(unimodular_inverse(IntMatrix{{2, 0}, {0, 1}}), Error);
}

/// A permutation's inverse is its transpose, taken without a solve, for
/// every permutation up to depth 4.
TEST(UnimodularInverse, PermutationIsTranspose) {
  for (int n = 1; n <= 4; ++n) {
    std::vector<int> perm(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) perm[static_cast<size_t>(k)] = k;
    int seen = 0;
    do {
      const IntMatrix u = permutation_matrix(perm);
      ASSERT_TRUE(is_permutation(u));
      IntMatrix transpose(n, n);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) transpose.at(c, r) = u.at(r, c);
      EXPECT_EQ(unimodular_inverse(u), transpose) << u.to_string();
      EXPECT_EQ(u * unimodular_inverse(u), IntMatrix::identity(n));
      ++seen;
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(seen, n == 1 ? 1 : n == 2 ? 2 : n == 3 ? 6 : 24);
  }
  // One 1 per row but a repeated column: singular, not a permutation.
  EXPECT_FALSE(is_permutation(IntMatrix{{1, 0}, {1, 0}}));
  EXPECT_THROW(unimodular_inverse(IntMatrix{{1, 0}, {1, 0}}), Error);
  EXPECT_FALSE(is_permutation(IntMatrix{{0, -1}, {1, 0}}));
  EXPECT_FALSE(is_permutation(IntMatrix{{0, 1}}));
}

/// Skews composed with permutations, as the wavefront search builds
/// them, are no permutations: they keep the per-column solves.
TEST(UnimodularInverse, SkewedPermutationsRoundTrip) {
  for (int n = 2; n <= 4; ++n) {
    std::vector<int> perm(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) perm[static_cast<size_t>(k)] = k;
    do {
      for (int t = 1; t < n; ++t)
        for (int s = 0; s < t; ++s)
          for (const Int f : {-2, 1, 2}) {
            const IntMatrix u =
                permutation_matrix(perm) * skew_matrix(n, t, s, f);
            ASSERT_FALSE(is_permutation(u));
            EXPECT_EQ(u * unimodular_inverse(u), IntMatrix::identity(n))
                << u.to_string();
          }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(ApplyUnimodular, InterchangePreservesTouches) {
  const LoopNest nest = rect_nest(5, 7);
  const LoopNest t = apply_unimodular(nest, permutation_matrix({1, 0}));
  EXPECT_EQ(touches(nest), touches(t));
  // The interchanged nest iterates j outermost: 7 * 5 iterations.
  long long n = 0;
  for_each_iteration(t,
                     [&](std::span<const Int>, std::span<const Int>) { ++n; });
  EXPECT_EQ(n, 35);
}

TEST(ApplyUnimodular, InterchangeTriangular) {
  const LoopNest nest = tri_nest(6);
  const LoopNest t = apply_unimodular(nest, permutation_matrix({1, 0}));
  EXPECT_EQ(touches(nest), touches(t));
}

TEST(ApplyUnimodular, SkewPreservesTouches) {
  const LoopNest nest = rect_nest(4, 5);
  const LoopNest t = apply_unimodular(nest, skew_matrix(2, 1, 0, 1));
  EXPECT_EQ(touches(nest), touches(t));
}

TEST(ApplyUnimodular, ReversalPreservesTouches) {
  const LoopNest nest = rect_nest(4, 5);
  const LoopNest t = apply_unimodular(nest, IntMatrix{{1, 0}, {0, -1}});
  EXPECT_EQ(touches(nest), touches(t));
}

TEST(ApplyUnimodular, RandomCompositions) {
  Rng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    const LoopNest nest = trial % 2 == 0 ? rect_nest(4, 4) : tri_nest(5);
    IntMatrix u = IntMatrix::identity(2);
    for (int k = 0; k < 3; ++k) {
      switch (rng.uniform(0, 2)) {
        case 0:
          u = permutation_matrix({1, 0}) * u;
          break;
        case 1:
          u = skew_matrix(2, 1, 0, rng.uniform(-1, 2)) * u;
          break;
        default:
          u = skew_matrix(2, 0, 1, rng.uniform(-1, 1)) * u;
          break;
      }
    }
    const LoopNest t = apply_unimodular(nest, u);
    EXPECT_EQ(touches(nest), touches(t)) << "transform\n" << u.to_string();
  }
}

TEST(ApplyUnimodular, RejectsNonUnimodular) {
  EXPECT_THROW(apply_unimodular(rect_nest(3, 3), IntMatrix{{2, 0}, {0, 1}}),
               Error);
}

TEST(ApplyUnimodular, ThreeDeep) {
  LoopNest nest;
  nest.loops.push_back(loop("i", cst(0), cst(3)));
  nest.loops.push_back(loop("j", cst(1), cst(4)));
  nest.loops.push_back(loop("k", var(0), var(1) + 2));
  Stmt s;
  s.write = simple_ref(0, 3, {{0, 0}, {1, 0}, {2, 0}});
  nest.stmts.push_back(std::move(s));
  const LoopNest t = apply_unimodular(nest, permutation_matrix({2, 0, 1}));
  EXPECT_EQ(touches(nest), touches(t));
}

/// Every regenerated bound of `nest` with its raw coefficient list, in
/// the order apply_unimodular emits them.
std::string bound_text(const LoopNest& nest) {
  std::ostringstream os;
  auto put = [&os](const char* kind, const Bound& b) {
    os << ' ' << kind << " [";
    for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
      os << (i ? "," : "") << b.expr.coeffs[i];
    os << '|' << b.expr.constant << "]/" << b.divisor;
  };
  for (const Loop& lp : nest.loops) {
    os << lp.var_name << ':';
    for (const Bound& b : lp.lowers) put("lo", b);
    for (const Bound& b : lp.uppers) put("hi", b);
    os << '\n';
  }
  return os.str();
}

/// The Fourier–Motzkin bound regeneration, row for row: rows with
/// coefficients of both signs, divisors above 1, redundant bounds, several
/// combined rows bounding one level and gcd-tightened rows all appear
/// here, which permutations of the applications' nests never produce. The
/// text was recorded before bound regeneration moved onto flat rows.
TEST(Transform, BoundsArePinned) {
  // SOR, A(i,j) = A(i-1,j) + A(i,j-1), under the wavefront transform
  // dep::parallelize picks for it.
  LoopNest sor;
  sor.loops.push_back(loop("i", cst(1), cst(6)));
  sor.loops.push_back(loop("j", cst(1), cst(6)));
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(0, 2, {{0, -1}, {1, 0}}),
             simple_ref(0, 2, {{0, 0}, {1, -1}})};
  sor.stmts.push_back(s);
  EXPECT_EQ(bound_text(apply_unimodular(sor, IntMatrix{{1, 1}, {1, 0}})),
            "j0: lo [|2]/1 hi [|12]/1\n"
            "j1: lo [0|1]/1 lo [1|-6]/1 hi [0|6]/1 hi [1|-1]/1\n");

  // A skew by -2 composed with a rotation of a 3-deep nest whose
  // innermost bounds depend on both outer loops.
  LoopNest deep;
  deep.loops.push_back(loop("i", cst(0), cst(3)));
  deep.loops.push_back(loop("j", cst(1), cst(4)));
  deep.loops.push_back(loop("k", var(0), var(1) + 2));
  s.write = simple_ref(0, 3, {{0, 0}, {1, 0}, {2, 0}});
  s.reads.clear();
  deep.stmts = {s};
  EXPECT_EQ(bound_text(apply_unimodular(
                deep, permutation_matrix({2, 0, 1}) * skew_matrix(3, 2, 0, -2))),
            "j0: lo [|-3]/1 lo [|-6]/1 hi [|6]/1\n"
            "j1: lo [0|0]/1 lo [-1|0]/1 hi [0|3]/1 hi [-1|6]/2\n"
            "j2: lo [0,0|1]/1 lo [1,2|-2]/1 hi [0,0|4]/1\n");

  // LU's triangular nest (k, i > k, j > k) permuted to (i, j, k).
  LoopNest lu;
  lu.loops.push_back(loop("k", cst(0), cst(7)));
  lu.loops.push_back(loop("i", var(0) + 1, cst(7)));
  lu.loops.push_back(loop("j", var(0) + 1, cst(7)));
  s.write = simple_ref(0, 3, {{1, 0}, {2, 0}});
  s.reads = {simple_ref(0, 3, {{1, 0}, {0, 0}}),
             simple_ref(0, 3, {{0, 0}, {2, 0}})};
  lu.stmts = {s};
  EXPECT_EQ(bound_text(apply_unimodular(lu, permutation_matrix({1, 2, 0}))),
            "j0: lo [|1]/1 hi [|7]/1\n"
            "j1: lo [0|1]/1 hi [0|7]/1\n"
            "j2: lo [0,0|0]/1 hi [0,0|7]/1 hi [1,0|-1]/1 hi [0,1|-1]/1\n");

  // The same nest with k skewed by i and by j: eliminating j2 yields
  // several lower bounds of j1, so their order fixes the order in which
  // lower and upper rows are combined.
  EXPECT_EQ(bound_text(apply_unimodular(
                lu, skew_matrix(3, 0, 1, 1) * skew_matrix(3, 0, 2, 1))),
            "j0: lo [|2]/1 lo [|-4]/1 hi [|21]/1 hi [|20]/1 hi [|20]/1\n"
            "j1: lo [1|-14]/1 lo [0|1]/1 lo [1|-6]/2 lo [1|-13]/1 "
            "hi [0|7]/1 hi [1|-1]/1\n"
            "j2: lo [1,-1|-7]/1 lo [1,-2|1]/1 lo [1,-1|1]/2 hi [1,-1|0]/1 "
            "hi [0,0|7]/1\n");

  // Bounds with divisors, 3/2 <= i <= 13/2 and (2i + 1)/2 <= j <= 8,
  // interchanged: the gcd tightening of each substituted row shows.
  LoopNest halves;
  halves.loops.push_back(Loop{"i", {Bound{cst(3), 2}}, {Bound{cst(13), 2}}});
  halves.loops.push_back(
      Loop{"j", {Bound{var(0, 2) + 1, 2}}, {Bound{cst(8), 1}}});
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads.clear();
  halves.stmts = {s};
  EXPECT_EQ(bound_text(apply_unimodular(halves, permutation_matrix({1, 0}))),
            "j0: lo [|3]/1 hi [|8]/1\n"
            "j1: lo [0|2]/1 hi [0|6]/1 hi [1|-1]/1\n");
}

}  // namespace
}  // namespace dct::ir
