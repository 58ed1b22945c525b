// Property tests for Partition::fold — the array-element ownership map —
// and regression tests for Layout::linearize bounds checking.
//
// Partition::fold delegates to its dimension's CoordFold, whose Euclidean
// (floored) division semantics it must keep: with C++ truncating / and %,
// negative indices produce a negative Block "owner" (aliasing the -1
// unbound marker) and mis-wrap CYCLIC/BLOCK-CYCLIC coordinates. The
// references here are brute-force restatements of the distribution
// definitions, mirroring coordfold_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "layout/layout.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace dct::layout {
namespace {

using decomp::CoordFold;
using decomp::DistKind;

// BLOCK: processor p owns [p*block, (p+1)*block); out-of-range
// coordinates clamp to the boundary processors (totality, matching
// CoordFold::fold).
int block_ref(Int x, int procs, Int block) {
  block = std::max<Int>(1, block);
  if (x < 0) return 0;
  for (int p = 0; p < procs; ++p)
    if (x < static_cast<Int>(p + 1) * block) return p;
  return procs - 1;
}

// CYCLIC: processor p owns every coordinate congruent to p modulo procs.
int cyclic_ref(Int x, int procs) {
  for (int p = 0; p < procs; ++p)
    if ((x - p) % procs == 0) return p;
  ADD_FAILURE() << "no congruent processor for " << x;
  return -1;
}

// BLOCK-CYCLIC(b): blocks of b dealt out cyclically, floor semantics for
// negative coordinates.
int block_cyclic_ref(Int x, int procs, Int block) {
  block = std::max<Int>(1, block);
  Int q = 0;
  while (q * block > x) --q;
  while ((q + 1) * block <= x) ++q;
  return cyclic_ref(q, procs);
}

Partition one_dim(DistKind kind, int procs, Int extent, Int block) {
  Partition part;
  part.num_proc_dims = 1;
  Partition::Dim d;
  d.proc_dim = 0;
  d.extent = extent;
  d.fold.kind = kind;
  d.fold.procs = procs;
  d.fold.block = block;
  part.dims.push_back(d);
  return part;
}

int reference(const Partition::Dim& d, Int idx) {
  const CoordFold& f = d.fold;
  switch (f.kind) {
    case DistKind::Serial: return -1;
    case DistKind::Block: return block_ref(idx, f.procs, f.block);
    case DistKind::Cyclic: return cyclic_ref(idx, f.procs);
    case DistKind::BlockCyclic:
      return block_cyclic_ref(idx, f.procs, f.block);
  }
  return -1;
}

TEST(PartitionFold, MatchesBruteForceIncludingNegatives) {
  Rng rng(20260807);
  const DistKind kinds[] = {DistKind::Block, DistKind::Cyclic,
                            DistKind::BlockCyclic};
  for (int trial = 0; trial < 500; ++trial) {
    const DistKind kind = kinds[rng.uniform(0, 2)];
    const int procs = static_cast<int>(rng.uniform(1, 9));
    const Int extent = rng.uniform(1, 64);
    const Int block = kind == DistKind::Block
                          ? (extent + procs - 1) / procs
                          : rng.uniform(1, 7);
    const Partition part = one_dim(kind, procs, extent, block);
    for (Int idx = -3 * extent; idx <= 3 * extent; ++idx) {
      const int got = part.fold(0, idx);
      ASSERT_EQ(got, reference(part.dims[0], idx))
          << "kind=" << static_cast<int>(kind) << " procs=" << procs
          << " block=" << block << " idx=" << idx;
      // Totality: every index folds into [0, procs).
      ASSERT_GE(got, 0);
      ASSERT_LT(got, procs);
    }
  }
}

TEST(PartitionFold, SerialDimIsUnbound) {
  const Partition part = one_dim(DistKind::Serial, 4, 16, 1);
  EXPECT_EQ(part.fold(0, 0), -1);
  EXPECT_EQ(part.fold(0, -5), -1);
  EXPECT_EQ(part.fold(0, 100), -1);
}

TEST(PartitionFold, NegativeIndexNeverAliasesUnboundMarker) {
  // The truncating-division bug made Block fold return idx/block < 0 for
  // negative indices — indistinguishable from the -1 "unbound" marker
  // consumed by rank().
  const Partition part = one_dim(DistKind::Block, 4, 16, 4);
  for (Int idx = -20; idx < 0; ++idx) {
    EXPECT_EQ(part.fold(0, idx), 0) << "idx=" << idx;
    EXPECT_EQ(part.rank(std::vector<Int>{idx}), 0) << "idx=" << idx;
  }
}

// ---------------------------------------------------------------------------
// Layout::linearize bounds checking: the closed form must reject
// out-of-range indices exactly where the step-interpreted map_index leaves
// the restructured dims, instead of silently wrapping into another
// element's address.
// ---------------------------------------------------------------------------

TEST(LayoutLinearize, OutOfRangeFailsOnFastPath) {
  Layout l = Layout::identity({16, 8});
  l.apply(StripMine{0, 4});   // (i mod 4, i div 4, j)
  l.apply(Permute{{0, 2, 1}});
  const std::vector<Int> in_range = {15, 7};
  (void)l.linearize(in_range);  // must not throw
  for (const std::vector<Int>& bad :
       {std::vector<Int>{16, 0}, std::vector<Int>{0, 8},
        std::vector<Int>{-1, 0}, std::vector<Int>{0, -1},
        std::vector<Int>{64, 3}}) {
    EXPECT_THROW((void)l.linearize(bad), Error)
        << "(" << bad[0] << "," << bad[1] << ")";
  }
}

TEST(LayoutLinearize, OutOfRangeFailsIdenticallyOnBothPaths) {
  // A strip of a strip (i mod 4 split by 2) beside the closed form's
  // reference, map_index: over indices inside and outside the extent,
  // linearize throws exactly when a step-interpreted coordinate leaves
  // dims(), and otherwise names the same address.
  Layout l = Layout::identity({12});
  l.apply(StripMine{0, 4});  // (i mod 4, i div 4): dims (4, 3)
  l.apply(StripMine{0, 2});  // (i mod 2, (i / 2) mod 2, i div 4): (2, 2, 3)
  int rejected = 0;
  for (Int idx = -9; idx < 49; ++idx) {
    const std::vector<Int> index = {idx};
    const std::vector<Int> mapped = l.map_index(index);
    bool in = true;
    Int addr = 0, stride = 1;
    for (size_t k = 0; k < mapped.size(); ++k) {
      in &= mapped[k] >= 0 && mapped[k] < l.dims()[k];
      addr += mapped[k] * stride;
      stride *= l.dims()[k];
    }
    if (in) {
      EXPECT_EQ(l.linearize(index), addr) << idx;
    } else {
      EXPECT_THROW((void)l.linearize(index), Error) << idx;
      ++rejected;
    }
  }
  // Every index outside [0, 12) is rejected, every one inside accepted.
  EXPECT_EQ(rejected, 58 - 12);
}

TEST(LayoutLinearize, CeilPaddingSlackAgreesAcrossPaths) {
  // Strip size 5 over extent 12 pads to 3 strips of 5 = 15 elements.
  // Indices 12..14 land in the padding: linearize accepts them, as
  // map_index does (they map inside the restructured extents) — the
  // contract is agreement with map_index, not original-extent checking.
  Layout fast = Layout::identity({12});
  fast.apply(StripMine{0, 5});  // dims (5, 3)
  for (Int idx = 12; idx < 15; ++idx)
    (void)fast.linearize(std::vector<Int>{idx});  // must not throw
  EXPECT_THROW((void)fast.linearize(std::vector<Int>{15}), Error);
}

}  // namespace
}  // namespace dct::layout
