// Tests for the incremental address walkers and the fast execution engine:
// driven run by run the way the traversal kernel drives it, the walker
// must agree with Layout::linearize at every visited position (across
// strip boundaries, for negative inner-loop coefficients, owned strides
// above 1 and jumps), and the fast engine must be bit-identical to the
// interpreter on every application under every compilation mode.
#include "runtime/walker.hpp"

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace dct::runtime {
namespace {

using core::Mode;
using layout::Layout;

/// A reference to array 0 with the given access matrix and offsets.
ir::ArrayRef make_ref(linalg::IntMatrix access, std::vector<Int> offset) {
  ir::ArrayRef ref;
  ref.array = 0;
  ref.access = std::move(access);
  ref.offset = std::move(offset);
  return ref;
}

/// Evaluate the affine subscripts of `ref` at `iter` and linearize them
/// through the layout — the address the interpreter would produce.
Int reference_addr(const ir::ArrayRef& ref, const Layout& lay,
                   std::span<const Int> iter) {
  return lay.linearize(ref.index(iter));
}

/// Walk `trips` positions of the innermost loop, `stride` iterations
/// apart, from `start` the way the traversal kernel does: take
/// min(run(), left) steps, then finish_run. With `rng`, jump over a few
/// positions now and then. Compares the walker against subscript
/// evaluation + linearize at every visited position; returns the number of
/// runs taken.
Int check_walk(const ir::ArrayRef& ref, const Layout& lay,
               std::span<const Int> start, Int trips, Int stride = 1,
               Rng* rng = nullptr) {
  RefWalker w;
  w.build(ref, lay);
  std::vector<Int> iter(start.begin(), start.end());
  Int& inner = iter.back();
  w.init(iter, stride);
  Int runs = 0;
  for (Int left = trips; left > 0;) {
    const Int n = std::min(w.run(), left);
    EXPECT_GE(n, 1);
    for (Int k = 0; k < n; ++k, inner += stride) {
      const Int want = reference_addr(ref, lay, iter);
      EXPECT_EQ(w.addr(), want) << "layout " << lay.to_string() << " stride "
                                << stride << " at inner " << inner;
      if (w.addr() != want) return runs;  // one report per walk
      w.step();
    }
    left -= n;
    w.finish_run(n);
    ++runs;
    if (rng != nullptr && left > 1 && rng->uniform(0, 3) == 0) {
      const Int gap = rng->uniform(1, std::min<Int>(left - 1, 9));
      w.jump(gap);
      inner += gap * stride;
      left -= gap;
    }
  }
  return runs;
}

TEST(Walker, MatchesLinearizeOnRandomLayouts) {
  Rng rng(20260807);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Random affine reference first: its subscript span on the walked
    // (innermost) loop decides how big each extent must be, now that
    // linearize rejects out-of-range indices on both paths.
    const int rank = static_cast<int>(rng.uniform(1, 3));
    const int depth = static_cast<int>(rng.uniform(1, 3));
    const Int trips = rng.uniform(8, 40);
    const Int stride = rng.uniform(1, 5);  // owned stride: CYCLIC slices
    ir::ArrayRef ref = make_ref(linalg::IntMatrix(rank, depth),
                                std::vector<Int>(static_cast<size_t>(rank)));
    std::vector<Int> start(static_cast<size_t>(depth), 0);
    for (int k = 0; k + 1 < depth; ++k)
      start[static_cast<size_t>(k)] = rng.uniform(0, 4);
    std::vector<Int> dims;
    for (int r = 0; r < rank; ++r) {
      Int min_sub = 0;
      Int max_sub = 0;
      for (int k = 0; k < depth; ++k) {
        const Int c = rng.uniform(-2, 2);
        ref.access.at(r, k) = c;
        const Int hi =
            k == depth - 1 ? trips * stride : start[static_cast<size_t>(k)];
        min_sub += std::min<Int>(0, c * hi);
        max_sub += std::max<Int>(0, c * hi);
      }
      // Offset lifts the minimum to zero; the extent covers the whole
      // span plus slack so strip boundaries land unevenly.
      ref.offset[static_cast<size_t>(r)] = -min_sub;
      dims.push_back(max_sub - min_sub + rng.uniform(4, 12));
    }
    Layout lay = Layout::identity(dims);

    // Random sequence of the Section 4.2 primitives: strip-mines in the
    // BLOCK / CYCLIC / BLOCK-CYCLIC shapes, interleaved with permutations.
    // A strip that would break the closed form is rejected and skipped.
    const int nops = static_cast<int>(rng.uniform(0, 3));
    for (int op = 0; op < nops; ++op) {
      if (rng.uniform(0, 2) != 0) {
        const int d =
            static_cast<int>(rng.uniform(0, static_cast<int>(lay.dims().size()) - 1));
        try {
          lay.apply(layout::StripMine{d, rng.uniform(2, 6)});
        } catch (const Error&) {
          ++rejected;
        }
      } else {
        std::vector<int> perm(lay.dims().size());
        for (size_t k = 0; k < perm.size(); ++k) perm[k] = static_cast<int>(k);
        for (size_t k = perm.size(); k > 1; --k)
          std::swap(perm[k - 1],
                    perm[static_cast<size_t>(rng.uniform(0, static_cast<int>(k) - 1))]);
        lay.apply(layout::Permute{perm});
      }
    }
    check_walk(ref, lay, start, trips, stride, &rng);
  }
  EXPECT_LT(rejected, 100);  // rejection must stay the exception
}

TEST(Walker, JumpsMatchSingleSteps) {
  // jump(n) carries the native backend's restricted walks across the gaps
  // between BLOCK-CYCLIC runs: it must land on exactly the address n
  // single steps reach, across several strip boundaries included.
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Int> dims{rng.uniform(24, 48), rng.uniform(8, 16)};
    Layout lay = Layout::identity(dims);
    lay.apply(layout::StripMine{0, rng.uniform(2, 6)});
    if (rng.uniform(0, 1) != 0) lay.apply(layout::Permute{{1, 0, 2}});

    const ir::ArrayRef ref = make_ref({{0, 1}, {1, 0}}, {0, 0});  // A(i1, i0)
    RefWalker jumper;
    RefWalker stepper;
    jumper.build(ref, lay);
    stepper.build(ref, lay);
    const std::vector<Int> start{rng.uniform(0, dims[1] - 1), 0};
    jumper.init(start);
    stepper.init(start);
    Int pos = 0;
    while (true) {
      const Int gap = rng.uniform(1, 7);
      if (pos + gap >= dims[0]) break;
      for (Int s = 0; s < gap; ++s) {
        stepper.step();
        stepper.finish_run(1);
      }
      jumper.jump(gap);
      pos += gap;
      ASSERT_EQ(jumper.addr(), stepper.addr())
          << "layout " << lay.to_string() << " at i1=" << pos;
      std::vector<Int> iter{start[0], pos};
      ASSERT_EQ(jumper.addr(), reference_addr(ref, lay, iter));
    }
  }
}

TEST(Walker, CyclicStrideMultipleOfModulusIsOneRun) {
  // LU's FULL layout at 4 threads: the CYCLIC column dimension strip-mined
  // by 4 and the strip index moved outermost. A thread's slice walks
  // j = t, t + 4, ...: j mod 4 never changes and j / 4 advances by one, so
  // the address is affine over the whole slice. Values stay right when
  // the walker splits here anyway; only the run count catches it.
  Layout lay = Layout::identity({96, 96});
  lay.apply(layout::StripMine{1, 4});
  lay.apply(layout::Permute{{0, 2, 1}});
  ASSERT_EQ(lay.to_string(), "dims(96,24,4) strip(dim=1, b=4) permute(0,2,1)");
  const ir::ArrayRef ref = make_ref({{1, 0}, {0, 1}}, {0, 0});  // A(i, j)
  for (Int t = 0; t < 4; ++t) {
    const std::vector<Int> start{17, t};
    EXPECT_EQ(check_walk(ref, lay, start, 24, /*stride=*/4), 1)
        << "thread " << t;
    RefWalker w;
    w.build(ref, lay);
    w.init(start, 4);
    EXPECT_EQ(w.run(), kEndlessRun);
  }
}

TEST(Walker, DerivedLayoutsAcrossDistributions) {
  // The Section 4.2 layouts the executor actually sees: BLOCK, CYCLIC and
  // BLOCK-CYCLIC on each dimension of a 2-D array, walked across many
  // strip boundaries.
  const std::vector<int> grid = {4};
  for (const decomp::DistKind kind :
       {decomp::DistKind::Block, decomp::DistKind::Cyclic,
        decomp::DistKind::BlockCyclic}) {
    for (int dim = 0; dim < 2; ++dim) {
      ir::ArrayDecl decl;
      decl.name = "A";
      decl.dims = {33, 19};  // non-divisible extents: ceil padding
      decomp::ArrayDecomposition ad;
      ad.dims.resize(2);
      ad.dims[static_cast<size_t>(dim)].kind = kind;
      ad.dims[static_cast<size_t>(dim)].proc_dim = 0;
      ad.dims[static_cast<size_t>(dim)].block = 3;
      const Layout lay = layout::derive_layout(decl, ad, grid);

      // Row walk and column walk, each crossing strip boundaries.
      for (int inner_row = 0; inner_row < 2; ++inner_row) {
        const ir::ArrayRef ref =
            inner_row != 0 ? make_ref({{0, 1}, {1, 0}}, {0, 0})
                           : make_ref({{1, 0}, {0, 1}}, {0, 0});
        const std::vector<Int> start = {0, 0};
        check_walk(ref, lay, start, inner_row != 0 ? 33 : 19);
      }
    }
  }
}

TEST(Walker, FastEngineMatchesInterpreterOnAllApps) {
  const std::vector<std::pair<const char*, ir::Program>> programs = [] {
    std::vector<std::pair<const char*, ir::Program>> ps;
    ps.emplace_back("figure1", apps::figure1(20, 2));
    ps.emplace_back("lu", apps::lu(16));
    ps.emplace_back("stencil5", apps::stencil5(18, 2));
    ps.emplace_back("adi", apps::adi(14, 2));
    ps.emplace_back("vpenta", apps::vpenta(12));
    ps.emplace_back("erlebacher", apps::erlebacher(8, 1));
    ps.emplace_back("swm256", apps::swm256(14, 2));
    ps.emplace_back("tomcatv", apps::tomcatv(14, 2));
    return ps;
  }();
  for (const auto& [name, prog] : programs) {
    const auto reference = run_reference(prog);
    for (const Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      const auto cp = core::compile(prog, mode, 4);
      const verify::OracleReport rep = verify::check_differential(
          cp, machine::MachineConfig::dash(4), reference);
      EXPECT_TRUE(rep.ok()) << name << "/" << core::to_string(mode) << ": "
                            << rep.to_string();
    }
  }
}

TEST(Walker, FastEngineUsesWalkersOnTransformedLayouts) {
  const auto cp = core::compile(apps::stencil5(32, 2), Mode::Full, 8);
  ExecOptions opts;
  opts.fast_exec = true;
  const auto r = simulate(cp, machine::MachineConfig::dash(8), opts);
  // Every address comes from a walker, none from Layout::linearize: the
  // mechanism behind the fast engine's speedup over the interpreter.
  EXPECT_EQ(r.mem.accesses, 14400);
  EXPECT_EQ(r.counters.walker_fast, r.mem.accesses);
  EXPECT_EQ(r.counters.linearize_fallback, 0);
  EXPECT_GT(r.counters.dir_fast, 0);
  // The trace record must carry the same numbers.
  ASSERT_EQ(r.trace.passes.size(), 1u);
  EXPECT_EQ(r.trace.passes[0].name, "simulate");
  EXPECT_EQ(r.trace.passes[0].counters.at("sim_walker_fast_hits"),
            static_cast<long>(r.counters.walker_fast));
  EXPECT_EQ(r.trace.passes[0].counters.at("sim_dir_fast_hits"),
            static_cast<long>(r.counters.dir_fast));
  // The unfiltered walk crosses every processor's strip of the FULL
  // layout, so its runs end there.
  EXPECT_GT(r.counters.walker_splits, 0);
  EXPECT_EQ(r.trace.passes[0].counters.at("sim_walker_splits"),
            static_cast<long>(r.counters.walker_splits));
}

}  // namespace
}  // namespace dct::runtime
