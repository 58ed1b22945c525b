// Tests for the data transformation framework, including exact
// reproductions of the index/address tables in Figures 2 and 3 of the
// paper.
#include "layout/layout.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace dct::layout {
namespace {

using decomp::ArrayDecomposition;
using decomp::DimDistribution;
using decomp::DistKind;

TEST(Layout, IdentityLinearizesColumnMajor) {
  const Layout l = Layout::identity({4, 3});
  EXPECT_TRUE(l.is_identity());
  EXPECT_EQ(l.size(), 12);
  // Column-major: dim0 fastest.
  EXPECT_EQ(l.linearize(std::vector<Int>{1, 0}), 1);
  EXPECT_EQ(l.linearize(std::vector<Int>{0, 1}), 4);
  EXPECT_EQ(l.linearize(std::vector<Int>{3, 2}), 11);
}

TEST(Layout, PaperFigure2StripMineAndTranspose) {
  // A 12-element array strip-mined with b = 4 becomes 4 x 3 (Figure 2b);
  // transposing yields 3 x 4 where every fourth element is contiguous
  // (Figure 2c).
  Layout l = Layout::identity({12});
  l.apply(StripMine{0, 4});
  EXPECT_EQ(l.dims(), (std::vector<Int>{4, 3}));
  // Figure 2(b): element i has coordinates (i mod 4, i div 4).
  EXPECT_EQ(l.map_index(std::vector<Int>{6}), (std::vector<Int>{2, 1}));
  // Strip-mining alone does not change the layout: address is unchanged.
  for (Int i = 0; i < 12; ++i)
    EXPECT_EQ(l.linearize(std::vector<Int>{i}), i);

  l.apply(Permute{{1, 0}});
  EXPECT_EQ(l.dims(), (std::vector<Int>{3, 4}));
  // Figure 2(c): linear addresses of elements 0..11.
  const std::vector<Int> expected = {0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11};
  for (Int i = 0; i < 12; ++i)
    EXPECT_EQ(l.linearize(std::vector<Int>{i}), expected[static_cast<size_t>(i)])
        << "element " << i;
}

ir::ArrayDecl decl8x4() {
  return ir::ArrayDecl{"A", {8, 4}, 4, true};
}

ArrayDecomposition dist(DistKind kind, Int block = 0) {
  ArrayDecomposition ad;
  ad.dims = {DimDistribution{kind, kind == DistKind::Serial ? -1 : 0, block},
             DimDistribution{}};
  return ad;
}

TEST(Layout, PaperFigure3Block) {
  // (BLOCK, *) on an 8x4 array over P=2: new indices
  // (i1 mod 4, i2, i1 div 4), dims (4, 4, 2) — Figure 3(b),(d).
  const int grid[] = {2};
  const Layout l = derive_layout(decl8x4(), dist(DistKind::Block), grid);
  EXPECT_EQ(l.dims(), (std::vector<Int>{4, 4, 2}));
  EXPECT_EQ(l.map_index(std::vector<Int>{5, 2}), (std::vector<Int>{1, 2, 1}));
  // Figure 3(c) addresses: (4,0) -> 16, (0,1) -> 4, (7,3) -> 31.
  EXPECT_EQ(l.linearize(std::vector<Int>{4, 0}), 16);
  EXPECT_EQ(l.linearize(std::vector<Int>{0, 1}), 4);
  EXPECT_EQ(l.linearize(std::vector<Int>{7, 3}), 31);
  // Processor 0's share (rows 0..3) is exactly addresses 0..15.
  std::set<Int> p0;
  for (Int i1 = 0; i1 < 4; ++i1)
    for (Int i2 = 0; i2 < 4; ++i2)
      p0.insert(l.linearize(std::vector<Int>{i1, i2}));
  EXPECT_EQ(*p0.begin(), 0);
  EXPECT_EQ(*p0.rbegin(), 15);
  EXPECT_EQ(p0.size(), 16u);
}

TEST(Layout, PaperFigure3Cyclic) {
  // (CYCLIC, *) over P=2: new indices (i1 div 2, i2, i1 mod 2),
  // dims (4, 4, 2).
  const int grid[] = {2};
  const Layout l = derive_layout(decl8x4(), dist(DistKind::Cyclic), grid);
  EXPECT_EQ(l.dims(), (std::vector<Int>{4, 4, 2}));
  // Figure 3(c): (1,0) -> 16, (0,1) -> 4, (2,0) -> 1.
  EXPECT_EQ(l.linearize(std::vector<Int>{1, 0}), 16);
  EXPECT_EQ(l.linearize(std::vector<Int>{0, 1}), 4);
  EXPECT_EQ(l.linearize(std::vector<Int>{2, 0}), 1);
  // Processor 0 owns the even rows: addresses 0..15.
  std::set<Int> p0;
  for (Int i1 = 0; i1 < 8; i1 += 2)
    for (Int i2 = 0; i2 < 4; ++i2)
      p0.insert(l.linearize(std::vector<Int>{i1, i2}));
  EXPECT_EQ(*p0.rbegin(), 15);
}

TEST(Layout, PaperFigure3BlockCyclic) {
  // (BLOCK-CYCLIC, *) with b=2 over P=2: new indices
  // (i1 mod 2, i1 div 4, i2, (i1 div 2) mod 2), dims (2, 2, 4, 2).
  const int grid[] = {2};
  const Layout l =
      derive_layout(decl8x4(), dist(DistKind::BlockCyclic, 2), grid);
  EXPECT_EQ(l.dims(), (std::vector<Int>{2, 2, 4, 2}));
  // Figure 3(c): (2,0) -> 16, (1,0) -> 1, (4,0) -> 2, (0,1) -> 4.
  EXPECT_EQ(l.linearize(std::vector<Int>{2, 0}), 16);
  EXPECT_EQ(l.linearize(std::vector<Int>{1, 0}), 1);
  EXPECT_EQ(l.linearize(std::vector<Int>{4, 0}), 2);
  EXPECT_EQ(l.linearize(std::vector<Int>{0, 1}), 4);
}

TEST(Layout, HighestDimBlockIsNoOp) {
  // Section 4.2 local optimization: (*, BLOCK) on column-major needs no
  // transform at all.
  ir::ArrayDecl decl{"X", {8, 8}, 8, true};
  ArrayDecomposition ad;
  ad.dims = {DimDistribution{}, DimDistribution{DistKind::Block, 0, 0}};
  const int grid[] = {4};
  const Layout l = derive_layout(decl, ad, grid);
  EXPECT_TRUE(l.is_identity());
}

TEST(Layout, NonTransformableKeepsIdentity) {
  ir::ArrayDecl decl{"X", {8, 8}, 8, /*transformable=*/false};
  ArrayDecomposition ad;
  ad.dims = {DimDistribution{DistKind::Cyclic, 0, 0}, DimDistribution{}};
  const int grid[] = {4};
  EXPECT_TRUE(derive_layout(decl, ad, grid).is_identity());
}

TEST(Layout, BijectionProperty) {
  // Every layout produced by the algorithm maps distinct elements to
  // distinct addresses within bounds.
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const Int d0 = rng.uniform(3, 9), d1 = rng.uniform(3, 9);
    ir::ArrayDecl decl{"X", {d0, d1}, 4, true};
    ArrayDecomposition ad;
    ad.dims.resize(2);
    const int which = static_cast<int>(rng.uniform(0, 1));
    const auto kind = static_cast<DistKind>(rng.uniform(1, 3));
    ad.dims[static_cast<size_t>(which)] =
        DimDistribution{kind, 0, kind == DistKind::BlockCyclic ? 2 : 0};
    const int grid[] = {static_cast<int>(rng.uniform(2, 4))};
    const Layout l = derive_layout(decl, ad, grid);
    std::set<Int> seen;
    for (Int i = 0; i < d0; ++i)
      for (Int j = 0; j < d1; ++j) {
        const Int addr = l.linearize(std::vector<Int>{i, j});
        EXPECT_GE(addr, 0);
        EXPECT_LT(addr, l.size());
        EXPECT_TRUE(seen.insert(addr).second) << "duplicate address";
      }
  }
}

TEST(Layout, ClosedFormMatchesStepInterpretation) {
  // linearize() evaluates the closed form dim_functions(); map_index()
  // interprets steps(). Over random strip-mine/permute compositions both
  // must name the same in-range address for every element. A strip that
  // would leave no closed form is rejected and changes nothing.
  Rng rng(33);
  int rejected = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<Int> dims(static_cast<size_t>(rng.uniform(1, 3)));
    for (Int& d : dims) d = rng.uniform(1, 9);
    Layout l = Layout::identity(dims);
    for (int s = static_cast<int>(rng.uniform(1, 4)); s > 0; --s) {
      const int n = static_cast<int>(l.dims().size());
      if (rng.uniform(0, 1) == 0) {
        const std::string before = l.to_string();
        try {
          l.apply(StripMine{static_cast<int>(rng.uniform(0, n - 1)),
                            rng.uniform(1, 4)});
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), Error::Code::kInvalidArgument);
          EXPECT_EQ(l.to_string(), before);
          ++rejected;
        }
      } else {
        std::vector<int> perm(static_cast<size_t>(n));
        std::iota(perm.begin(), perm.end(), 0);
        for (int k = n - 1; k > 0; --k)
          std::swap(perm[static_cast<size_t>(k)],
                    perm[static_cast<size_t>(rng.uniform(0, k))]);
        l.apply(Permute{perm});
      }
    }
    Int count = 1;
    for (Int d : dims) count *= d;
    for (Int e = 0; e < count; ++e) {
      std::vector<Int> idx(dims.size());
      for (size_t k = 0, rest = static_cast<size_t>(e); k < dims.size(); ++k) {
        idx[k] = static_cast<Int>(rest % static_cast<size_t>(dims[k]));
        rest /= static_cast<size_t>(dims[k]);
      }
      const std::vector<Int> mapped = l.map_index(idx);
      ASSERT_EQ(mapped.size(), l.dims().size());
      Int addr = 0, stride = 1;
      for (size_t k = 0; k < mapped.size(); ++k) {
        ASSERT_GE(mapped[k], 0);
        ASSERT_LT(mapped[k], l.dims()[k]);
        addr += mapped[k] * stride;
        stride *= l.dims()[k];
      }
      ASSERT_EQ(l.linearize(idx), addr) << l.to_string() << " element " << e;
    }
  }
  // Rejection stays the exception.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kTrials / 4);
}

TEST(Layout, RejectsStripThatBreaksClosedForm) {
  // Stripping (i mod 4) by 3 would need (i mod 4) mod 3 and
  // (i mod 4) div 3, which no (i / div) mod m has: apply refuses it and
  // leaves the layout as it was.
  Layout l = Layout::identity({12});
  l.apply(StripMine{0, 4});  // (i mod 4, i div 4)
  const std::string before = l.to_string();
  try {
    l.apply(StripMine{0, 3});
    ADD_FAILURE() << "strip by 3 of a modulus-4 dimension accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kInvalidArgument);
  }
  EXPECT_EQ(l.to_string(), before);
  // A strip that divides the modulus, and one of the part without a
  // modulus, keep the closed form.
  l.apply(StripMine{0, 2});  // (i mod 2, (i / 2) mod 2, i div 4)
  l.apply(StripMine{2, 2});  // ..., (i / 4) mod 2, i div 8
  ASSERT_EQ(l.dims(), (std::vector<Int>{2, 2, 2, 2}));
  for (Int i = 0; i < 12; ++i) {
    const std::vector<Int> mapped = l.map_index(std::vector<Int>{i});
    EXPECT_EQ(l.linearize(std::vector<Int>{i}),
              mapped[0] + 2 * mapped[1] + 4 * mapped[2] + 8 * mapped[3])
        << i;
  }
}

TEST(Layout, OwnersContiguousProperty) {
  // The whole point of the algorithm: each processor's elements occupy a
  // contiguous address range in the restructured array.
  Rng rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    const Int d0 = rng.uniform(4, 12), d1 = rng.uniform(4, 12);
    ir::ArrayDecl decl{"X", {d0, d1}, 4, true};
    ArrayDecomposition ad;
    ad.dims.resize(2);
    const int which = static_cast<int>(rng.uniform(0, 1));
    const auto kind = static_cast<DistKind>(rng.uniform(1, 2));  // B or C
    ad.dims[static_cast<size_t>(which)] = DimDistribution{kind, 0, 0};
    const int p = static_cast<int>(rng.uniform(2, 4));
    const int grid[] = {p};
    const int stride[] = {1};
    const Layout l = derive_layout(decl, ad, grid);
    const Partition part = make_partition(decl, ad, grid, stride, 1);
    std::vector<std::set<Int>> per_proc(static_cast<size_t>(p));
    for (Int i = 0; i < d0; ++i)
      for (Int j = 0; j < d1; ++j) {
        const std::vector<Int> idx{i, j};
        const int owner = part.fold(which, idx[static_cast<size_t>(which)]);
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, p);
        per_proc[static_cast<size_t>(owner)].insert(l.linearize(idx));
      }
    // Contiguity: the processors' address ranges are pairwise disjoint —
    // no foreign element interleaves with a processor's region. (ceil
    // padding may leave unused holes inside a processor's own region when
    // extents do not divide evenly.)
    std::vector<std::pair<Int, Int>> ranges;
    for (const auto& addrs : per_proc)
      if (!addrs.empty()) ranges.push_back({*addrs.begin(), *addrs.rbegin()});
    std::sort(ranges.begin(), ranges.end());
    for (size_t r = 1; r < ranges.size(); ++r)
      EXPECT_GT(ranges[r].first, ranges[r - 1].second)
          << "processor regions interleave";
  }
}

TEST(Partition, Folding) {
  ir::ArrayDecl decl{"X", {16, 16}, 4, true};
  ArrayDecomposition ad;
  ad.dims = {DimDistribution{DistKind::Cyclic, 0, 0},
             DimDistribution{DistKind::Block, 1, 0}};
  const int grid[] = {4, 2};
  const int stride[] = {1, 4};  // one clique: rank = c0 + 4 * c1
  const Partition part = make_partition(decl, ad, grid, stride, 2);
  EXPECT_EQ(part.fold(0, 5), 1);   // cyclic: 5 mod 4
  EXPECT_EQ(part.fold(1, 7), 0);   // block of 8: 7 / 8
  EXPECT_EQ(part.fold(1, 8), 1);
  EXPECT_EQ(part.fold(0, 6), 2);
  EXPECT_EQ(part.fold(1, 9), 1);
  EXPECT_EQ(part.rank(std::vector<Int>{6, 9}), 2 + 4 * 1);
}

TEST(AddressOverhead, StrategyOrdering) {
  // naive >= hoisted >= optimized, and identity layouts cost nothing.
  ir::ArrayDecl decl{"X", {64, 64}, 4, true};
  ArrayDecomposition ad;
  ad.dims = {DimDistribution{DistKind::Cyclic, 0, 0}, DimDistribution{}};
  const int grid[] = {4};
  const Layout l = derive_layout(decl, ad, grid);

  ir::LoopNest nest;
  nest.loops.push_back(ir::loop("J", ir::cst(0), ir::cst(63)));
  nest.loops.push_back(ir::loop("I", ir::cst(0), ir::cst(63)));
  const ir::ArrayRef ref = ir::simple_ref(0, 2, {{1, 0}, {0, 0}});

  const double naive = address_overhead(nest, ref, l, AddrStrategy::Naive);
  const double hoisted = address_overhead(nest, ref, l, AddrStrategy::Hoisted);
  const double opt = address_overhead(nest, ref, l, AddrStrategy::Optimized);
  EXPECT_GT(naive, 0);
  EXPECT_GE(naive, hoisted);
  EXPECT_GE(hoisted, opt);
  EXPECT_LT(opt, 10.0);

  const Layout id = Layout::identity({64, 64});
  EXPECT_EQ(address_overhead(nest, ref, id, AddrStrategy::Naive), 0.0);
}

}  // namespace
}  // namespace dct::layout
