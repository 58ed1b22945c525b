// Tests for the affine kernel IR: expressions, bounds, iteration walking,
// references and the builder.
#include "ir/program.hpp"

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

namespace dct::ir {
namespace {

TEST(AffineExpr, EvalAndOps) {
  const AffineExpr e = var(0) * 2 + var(1, -1) + 3;
  const Vec iter{5, 4};
  EXPECT_EQ(e.eval(iter), 2 * 5 - 4 + 3);
  EXPECT_EQ(cst(7).eval(iter), 7);
  EXPECT_EQ((var(1) - var(0)).eval(iter), -1);
  EXPECT_EQ((var(0) - 2).eval(iter), 3);
}

TEST(AffineExpr, ToString) {
  EXPECT_EQ((var(0) * 2 + 3).to_string(), "2*i0+3");
  EXPECT_EQ(cst(0).to_string(), "0");
  EXPECT_EQ((var(1, -1)).to_string(), "-i1");
}

TEST(Loop, MultiBoundEval) {
  // lower = max(2, i0+1), upper = min(10, 2*i0)
  Loop lp;
  lp.lowers = {Bound{cst(2), 1}, Bound{var(0) + 1, 1}};
  lp.uppers = {Bound{cst(10), 1}, Bound{var(0) * 2, 1}};
  const Vec at3{3, 0};
  EXPECT_EQ(lp.lower_bound(at3), 4);
  EXPECT_EQ(lp.upper_bound(at3), 6);
  const Vec at9{9, 0};
  EXPECT_EQ(lp.upper_bound(at9), 10);
}

TEST(Loop, DivisorBounds) {
  // i in ceil((i0+1)/2) .. floor(7/2)
  Loop lp;
  lp.lowers = {Bound{var(0) + 1, 2}};
  lp.uppers = {Bound{cst(7), 2}};
  const Vec at2{2, 0};
  EXPECT_EQ(lp.lower_bound(at2), 2);  // ceil(3/2)
  EXPECT_EQ(lp.upper_bound(at2), 3);  // floor(7/2)
}

LoopNest triangular_nest(Int n) {
  LoopNest nest;
  nest.name = "tri";
  nest.loops.push_back(loop("i", cst(0), cst(n - 1)));
  nest.loops.push_back(loop("j", var(0), cst(n - 1)));
  return nest;
}

long long iterations(const LoopNest& nest) {
  long long n = 0;
  for_each_iteration(nest,
                     [&](std::span<const Int>, std::span<const Int>) { ++n; });
  return n;
}

TEST(Iteration, TriangularCount) {
  EXPECT_EQ(iterations(triangular_nest(5)), 5 * 6 / 2);
}

TEST(Iteration, LexicographicOrder) {
  LoopNest nest;
  nest.loops.push_back(loop("i", cst(0), cst(1)));
  nest.loops.push_back(loop("j", cst(0), cst(2)));
  std::vector<Vec> seen;
  for_each_iteration(nest, [&](std::span<const Int> it, std::span<const Int>) {
    seen.emplace_back(it.begin(), it.end());
  });
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.front(), (Vec{0, 0}));
  EXPECT_EQ(seen.back(), (Vec{1, 2}));
  for (size_t i = 1; i < seen.size(); ++i)
    EXPECT_TRUE(std::lexicographical_compare(seen[i - 1].begin(),
                                             seen[i - 1].end(),
                                             seen[i].begin(), seen[i].end()));
}

TEST(Iteration, EmptyRangeSkipped) {
  LoopNest nest;
  nest.loops.push_back(loop("i", cst(0), cst(3)));
  nest.loops.push_back(loop("j", var(0), cst(1)));  // empty for i >= 2
  int count = 0;
  for_each_iteration(
      nest, [&](std::span<const Int>, std::span<const Int>) { ++count; });
  EXPECT_EQ(count, 2 + 1);  // i=0: j in 0..1; i=1: j=1
}

TEST(Iteration, LowerBoundsDriveTheFiringRule) {
  // j starts at i: a depth-1 statement fires once per i, at j == i.
  const LoopNest nest = triangular_nest(4);
  Stmt outer;
  outer.depth = 1;
  std::vector<Vec> fired;
  for_each_iteration(nest, [&](std::span<const Int> it,
                               std::span<const Int> lower) {
    EXPECT_EQ(lower[0], 0);
    EXPECT_EQ(lower[1], it[0]);
    if (outer.fires(it, lower)) fired.emplace_back(it.begin(), it.end());
  });
  EXPECT_EQ(fired, (std::vector<Vec>{{0, 0}, {1, 1}, {2, 2}, {3, 3}}));
}

TEST(Elements, ColumnMajorAndEmpty) {
  ArrayDecl decl;
  decl.dims = {2, 3};
  Int calls = 0;
  for_each_element(decl, [&](std::span<const Int> idx, Int linear) {
    EXPECT_EQ(linear, calls++);
    EXPECT_EQ(idx[0] + 2 * idx[1], linear);  // first dimension fastest
  });
  EXPECT_EQ(calls, 6);
  decl.dims = {4, 0};
  calls = 0;
  for_each_element(decl, [&](std::span<const Int>, Int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ArrayRefs, SimpleRefIndexing) {
  const ArrayRef r = simple_ref(0, 3, {{2, 0}, {0, 1}});
  const Vec iter{4, 5, 6};
  EXPECT_EQ(r.index(iter), (Vec{6, 5}));
  const ArrayRef c = simple_ref(0, 3, {{-1, 9}, {1, 0}});
  EXPECT_EQ(c.index(iter), (Vec{9, 5}));
}

TEST(Builder, BuildsProgram) {
  ProgramBuilder pb("demo");
  const int a = pb.array("A", {8, 8}, 4);
  const int b = pb.array("B", {8, 8});
  EXPECT_THROW(pb.array("A", {2}), Error);
  EXPECT_THROW(pb.array("Z", {0}), Error);
  LoopNest& nest = pb.nest("init", 10);
  nest.loops.push_back(loop("j", cst(0), cst(7)));
  nest.loops.push_back(loop("i", cst(0), cst(7)));
  Stmt s;
  s.reads = {simple_ref(b, 2, {{1, 0}, {0, 0}})};
  s.write = simple_ref(a, 2, {{1, 0}, {0, 0}});
  s.eval = [](std::span<const double> r) { return r[0]; };
  nest.stmts.push_back(std::move(s));
  pb.set_time_steps(3);
  const Program prog = pb.build();
  EXPECT_EQ(prog.array(a).name, "A");
  EXPECT_EQ(prog.array(a).elem_size, 4);
  EXPECT_EQ(prog.array(a).elem_count(), 64);
  EXPECT_EQ(prog.array_id("B"), b);
  EXPECT_THROW(prog.array_id("C"), Error);
  EXPECT_EQ(prog.time_steps, 3);
  EXPECT_EQ(iterations(prog.nests[0]), 64);
  EXPECT_FALSE(prog.to_string().empty());
}

}  // namespace
}  // namespace dct::ir
