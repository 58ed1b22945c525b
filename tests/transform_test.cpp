// Tests for unimodular loop transformations: the transformed nest must
// execute exactly the same set of statement instances (same array touches)
// in a new order.
#include "ir/transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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
  EXPECT_EQ(reversal_matrix(2, 0), (IntMatrix{{-1, 0}, {0, 1}}));
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
  const LoopNest t = apply_unimodular(nest, reversal_matrix(2, 1));
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

}  // namespace
}  // namespace dct::ir
