// Tests for the validation oracle layer (src/verify/): every oracle runs
// clean on every application in every mode, and — equally important —
// each oracle has teeth: aimed at a deliberately broken subject it must
// report a violation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"
#include "verify/oracle.hpp"

namespace dct {
namespace {

using core::Mode;

ir::Program small_app(int which) {
  switch (which) {
    case 0: return apps::figure1(16, 2);
    case 1: return apps::lu(12);
    case 2: return apps::stencil5(14, 2);
    case 3: return apps::adi(12, 2);
    case 4: return apps::vpenta(10);
    case 5: return apps::erlebacher(8, 1);
    case 6: return apps::swm256(12, 2);
    default: return apps::tomcatv(12, 2);
  }
}

TEST(Verify, AllOraclesCleanOnEveryAppAndMode) {
  // The static oracles, the native differential and the simulator's
  // engine differential, each run on the compiled program.
  for (int app = 0; app < 8; ++app) {
    const ir::Program prog = small_app(app);
    const auto reference = runtime::run_reference(prog);
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      for (int procs : {1, 2, 3, 4, 8}) {
        const core::CompiledProgram cp = core::compile(prog, mode, procs);
        verify::ValidationReport rep = verify::validate_compiled(cp);
        rep.oracles.push_back(verify::check_native(cp));
        rep.oracles.push_back(verify::check_differential(
            cp, machine::MachineConfig::dash(procs), reference));
        EXPECT_TRUE(rep.ok()) << prog.name << " [" << core::to_string(mode)
                              << ", P=" << procs << "]\n"
                              << rep.to_string();
        EXPECT_GT(rep.total_checks(), 0) << prog.name;
      }
    }
  }
}

TEST(Verify, StaticOraclesCleanOnTable1Sizes) {
  // The seven Table 1 codes at `paper table1`'s sizes, uniprocessor and at
  // the paper's 32 processors.
  const std::vector<ir::Program> progs = {
      apps::vpenta(96),        apps::lu(256),     apps::stencil5(256, 4),
      apps::adi(128, 4),       apps::erlebacher(48, 2),
      apps::swm256(128, 4),    apps::tomcatv(256, 2)};
  for (const ir::Program& prog : progs)
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full})
      for (int procs : {1, 32}) {
        const verify::ValidationReport rep =
            verify::validate_compiled(core::compile(prog, mode, procs));
        EXPECT_TRUE(rep.ok()) << prog.name << " [" << core::to_string(mode)
                              << ", P=" << procs << "]\n"
                              << rep.to_string();
        EXPECT_GT(rep.total_checks(), 0) << prog.name;
      }
}

/// A 10x10 array forced through a 5x5 identity layout: addresses escape
/// [0, 25).
verify::OracleReport mismatched_layout_report() {
  ir::ArrayDecl decl;
  decl.name = "broken";
  decl.dims = {10, 10};
  const layout::Layout lay = layout::Layout::identity({5, 5});
  verify::OracleReport rep;
  rep.oracle = "layout-bijectivity";
  verify::check_layout_against(decl, lay, rep);
  return rep;
}

/// An 8x1000 array (8,000 elements: the sampled path) forced through a
/// rank-1 identity layout of extent 8. Every sample's step-interpreted
/// index has the wrong rank, and samples that share a first subscript
/// collide.
verify::OracleReport mismatched_sampled_layout_report() {
  ir::ArrayDecl decl;
  decl.name = "broken_sampled";
  decl.dims = {8, 1000};
  const layout::Layout lay = layout::Layout::identity({8});
  verify::OracleReport rep;
  rep.oracle = "layout-bijectivity";
  verify::check_layout_against(decl, lay, rep);
  return rep;
}

/// stencil5 under Full is (BLOCK, BLOCK): both dimensions of the main
/// array bind processor dimensions. Swapping the bindings makes D_x
/// disagree with G on every non-diagonal iteration. The swap is made in
/// a copy of the compile's analysis, so only the decomposition the
/// oracles read changes, not the layouts and schedules compiled from it.
core::CompiledProgram corrupted_stencil5() {
  core::CompiledProgram cp =
      core::compile(apps::stencil5(14, 2), Mode::Full, 4);
  auto an = std::make_shared<core::Analysis>(*cp.analysis);
  auto global = std::make_shared<decomp::ProgramDecomposition>(*an->global);
  bool corrupted = false;
  for (auto& ad : global->arrays) {
    if (ad.dims.size() >= 2 && ad.dims[0].proc_dim != ad.dims[1].proc_dim) {
      std::swap(ad.dims[0].proc_dim, ad.dims[1].proc_dim);
      corrupted = true;
    }
  }
  EXPECT_TRUE(corrupted) << "expected a multi-dimensional distribution";
  an->global = std::move(global);
  cp.analysis = std::move(an);
  return cp;
}

TEST(Verify, BijectivityOracleCatchesMismatchedLayout) {
  // The oracle must notice rather than trust the layout.
  EXPECT_FALSE(mismatched_layout_report().ok());
}

TEST(Verify, FoldOracleRejectsNonPositiveProcs) {
  core::CoordFold fold;
  fold.kind = decomp::DistKind::Block;
  fold.procs = 0;
  verify::OracleReport rep;
  rep.oracle = "fold-coverage";
  verify::check_one_fold(fold, 0, 9, "degenerate", rep);
  EXPECT_FALSE(rep.ok());
}

TEST(Verify, FoldOracleAcceptsEveryDistributionKind) {
  using decomp::DistKind;
  struct Case { DistKind kind; int procs; linalg::Int block, offset; };
  const Case cases[] = {
      {DistKind::Serial, 1, 1, 0},
      {DistKind::Block, 4, 8, 0},
      {DistKind::Block, 4, 8, 3},   // offset: BASE folds use hull.lo
      {DistKind::Cyclic, 4, 1, 0},
      {DistKind::BlockCyclic, 4, 3, 0},
  };
  for (const Case& c : cases) {
    core::CoordFold fold;
    fold.kind = c.kind;
    fold.procs = c.procs;
    fold.block = c.block;
    fold.offset = c.offset;
    verify::OracleReport rep;
    rep.oracle = "fold-coverage";
    verify::check_one_fold(fold, 0, 31, "case", rep);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    EXPECT_GT(rep.checks, 0);
  }
}

TEST(Verify, Equation1OracleCatchesCorruptedDecomposition) {
  EXPECT_FALSE(verify::check_equation1(corrupted_stencil5()).ok());
}

TEST(Verify, CheckCountsArePinned) {
  // Every oracle samples with fixed seeds, so what it inspects is a pure
  // function of the compiled program. These counts pin it for the seven
  // Table 1 codes. Bijectivity walks arrays of at most 4096 elements
  // exhaustively (the 2-D arrays at sizes 32 and 64) and samples larger
  // ones (every array at 72 and 216).
  struct Counts {
    long subjects, checks;
    bool ok;
  };
  struct Case {
    int app;
    int size;
    int mode;
    int procs;
    Counts eq1, bijectivity, folds;
  };
  const Case cases[] = {
      {0, 32, 0, 4, {0, 0, true}, {5, 7168, true}, {4, 1152, true}},
      {0, 32, 0, 32, {0, 0, true}, {5, 7168, true}, {4, 1152, true}},
      {0, 32, 1, 4, {3, 7680, true}, {5, 7168, true}, {7, 1920, true}},
      {0, 32, 1, 32, {3, 7680, true}, {5, 7168, true}, {7, 1920, true}},
      {0, 32, 2, 4, {3, 7680, true}, {5, 7168, true}, {7, 1920, true}},
      {0, 32, 2, 32, {3, 7680, true}, {5, 7168, true}, {7, 1920, true}},
      {1, 32, 0, 4, {0, 0, true}, {1, 1024, true}, {2, 574, true}},
      {1, 32, 0, 32, {0, 0, true}, {1, 1024, true}, {2, 574, true}},
      {1, 32, 1, 4, {0, 0, true}, {1, 1024, true}, {3, 830, true}},
      {1, 32, 1, 32, {0, 0, true}, {1, 1024, true}, {3, 830, true}},
      {1, 32, 2, 4, {0, 0, true}, {1, 1024, true}, {3, 830, true}},
      {1, 32, 2, 32, {0, 0, true}, {1, 1024, true}, {3, 830, true}},
      {2, 32, 0, 4, {0, 0, true}, {2, 2048, true}, {2, 572, true}},
      {2, 32, 0, 32, {0, 0, true}, {2, 2048, true}, {2, 572, true}},
      {2, 32, 1, 4, {1, 2048, true}, {2, 2048, true}, {8, 2168, true}},
      {2, 32, 1, 32, {1, 2048, true}, {2, 2048, true}, {8, 2168, true}},
      {2, 32, 2, 4, {1, 2048, true}, {2, 2048, true}, {8, 2168, true}},
      {2, 32, 2, 32, {1, 2048, true}, {2, 2048, true}, {8, 2168, true}},
      {3, 32, 0, 4, {0, 0, true}, {3, 3072, true}, {4, 1152, true}},
      {3, 32, 0, 32, {0, 0, true}, {3, 3072, true}, {4, 1152, true}},
      {3, 32, 1, 4, {2, 3584, true}, {3, 3072, true}, {6, 1662, true}},
      {3, 32, 1, 32, {2, 3584, true}, {3, 3072, true}, {6, 1662, true}},
      {3, 32, 2, 4, {2, 3584, true}, {3, 3072, true}, {6, 1662, true}},
      {3, 32, 2, 32, {2, 3584, true}, {3, 3072, true}, {6, 1662, true}},
      {4, 32, 0, 4, {0, 0, true}, {4, 1004, true}, {5, 1438, true}},
      {4, 32, 0, 32, {0, 0, true}, {4, 1004, true}, {5, 1438, true}},
      {4, 32, 1, 4, {5, 4608, true}, {4, 1004, true}, {8, 2208, true}},
      {4, 32, 1, 32, {5, 4608, true}, {4, 1004, true}, {8, 2208, true}},
      {4, 32, 2, 4, {5, 4608, true}, {4, 1004, true}, {8, 2208, true}},
      {4, 32, 2, 32, {5, 4608, true}, {4, 1004, true}, {8, 2208, true}},
      {5, 32, 0, 4, {0, 0, true}, {10, 10240, true}, {10, 2860, true}},
      {5, 32, 0, 32, {0, 0, true}, {10, 10240, true}, {10, 2860, true}},
      {5, 32, 1, 4, {1, 6144, true}, {10, 10240, true}, {40, 10840, true}},
      {5, 32, 1, 32, {1, 6144, true}, {10, 10240, true}, {40, 10840, true}},
      {5, 32, 2, 4, {1, 6144, true}, {10, 10240, true}, {40, 10840, true}},
      {5, 32, 2, 32, {1, 6144, true}, {10, 10240, true}, {40, 10840, true}},
      {6, 32, 0, 4, {0, 0, true}, {5, 5120, true}, {5, 1430, true}},
      {6, 32, 0, 32, {0, 0, true}, {5, 5120, true}, {5, 1430, true}},
      {6, 32, 1, 4, {2, 10240, true}, {5, 5120, true}, {20, 5420, true}},
      {6, 32, 1, 32, {2, 10240, true}, {5, 5120, true}, {20, 5420, true}},
      {6, 32, 2, 4, {2, 10240, true}, {5, 5120, true}, {20, 5420, true}},
      {6, 32, 2, 32, {2, 10240, true}, {5, 5120, true}, {20, 5420, true}},
      {0, 64, 0, 4, {0, 0, true}, {5, 16639, true}, {4, 1280, true}},
      {0, 64, 0, 32, {0, 0, true}, {5, 16639, true}, {4, 1280, true}},
      {0, 64, 1, 4, {3, 7680, true}, {5, 16639, true}, {7, 2048, true}},
      {0, 64, 1, 32, {3, 7680, true}, {5, 16639, true}, {7, 2048, true}},
      {0, 64, 2, 4, {3, 7680, true}, {5, 16639, true}, {7, 2048, true}},
      {0, 64, 2, 32, {3, 7680, true}, {5, 16639, true}, {7, 2048, true}},
      {1, 64, 0, 4, {0, 0, true}, {1, 4096, true}, {2, 638, true}},
      {1, 64, 0, 32, {0, 0, true}, {1, 4096, true}, {2, 638, true}},
      {1, 64, 1, 4, {0, 0, true}, {1, 4096, true}, {3, 894, true}},
      {1, 64, 1, 32, {0, 0, true}, {1, 4096, true}, {3, 894, true}},
      {1, 64, 2, 4, {0, 0, true}, {1, 4096, true}, {3, 894, true}},
      {1, 64, 2, 32, {0, 0, true}, {1, 4096, true}, {3, 894, true}},
      {2, 64, 0, 4, {0, 0, true}, {2, 8192, true}, {2, 636, true}},
      {2, 64, 0, 32, {0, 0, true}, {2, 8192, true}, {2, 636, true}},
      {2, 64, 1, 4, {1, 2048, true}, {2, 8192, true}, {8, 2296, true}},
      {2, 64, 1, 32, {1, 2048, true}, {2, 8192, true}, {8, 2296, true}},
      {2, 64, 2, 4, {1, 2048, true}, {2, 8192, true}, {8, 2296, true}},
      {2, 64, 2, 32, {1, 2048, true}, {2, 8192, true}, {8, 2296, true}},
      {3, 64, 0, 4, {0, 0, true}, {3, 12288, true}, {4, 1280, true}},
      {3, 64, 0, 32, {0, 0, true}, {3, 12288, true}, {4, 1280, true}},
      {3, 64, 1, 4, {2, 3584, true}, {3, 12288, true}, {6, 1790, true}},
      {3, 64, 1, 32, {2, 3584, true}, {3, 12288, true}, {6, 1790, true}},
      {3, 64, 2, 4, {2, 3584, true}, {3, 12288, true}, {6, 1790, true}},
      {3, 64, 2, 32, {2, 3584, true}, {3, 12288, true}, {6, 1790, true}},
      {4, 64, 0, 4, {0, 0, true}, {4, 1024, true}, {5, 1598, true}},
      {4, 64, 0, 32, {0, 0, true}, {4, 1024, true}, {5, 1598, true}},
      {4, 64, 1, 4, {5, 4608, true}, {4, 1024, true}, {8, 2368, true}},
      {4, 64, 1, 32, {5, 4608, true}, {4, 1024, true}, {8, 2368, true}},
      {4, 64, 2, 4, {5, 4608, true}, {4, 1024, true}, {8, 2368, true}},
      {4, 64, 2, 32, {5, 4608, true}, {4, 1024, true}, {8, 2368, true}},
      {5, 64, 0, 4, {0, 0, true}, {10, 40960, true}, {10, 3180, true}},
      {5, 64, 0, 32, {0, 0, true}, {10, 40960, true}, {10, 3180, true}},
      {5, 64, 1, 4, {1, 6144, true}, {10, 40960, true}, {40, 11480, true}},
      {5, 64, 1, 32, {1, 6144, true}, {10, 40960, true}, {40, 11480, true}},
      {5, 64, 2, 4, {1, 6144, true}, {10, 40960, true}, {40, 11480, true}},
      {5, 64, 2, 32, {1, 6144, true}, {10, 40960, true}, {40, 11480, true}},
      {6, 64, 0, 4, {0, 0, true}, {5, 20480, true}, {5, 1590, true}},
      {6, 64, 0, 32, {0, 0, true}, {5, 20480, true}, {5, 1590, true}},
      {6, 64, 1, 4, {2, 10240, true}, {5, 20480, true}, {20, 5740, true}},
      {6, 64, 1, 32, {2, 10240, true}, {5, 20480, true}, {20, 5740, true}},
      {6, 64, 2, 4, {2, 10240, true}, {5, 20480, true}, {20, 5740, true}},
      {6, 64, 2, 32, {2, 10240, true}, {5, 20480, true}, {20, 5740, true}},
      {0, 72, 0, 4, {0, 0, true}, {5, 1258, true}, {4, 1312, true}},
      {0, 72, 0, 32, {0, 0, true}, {5, 1258, true}, {4, 1312, true}},
      {0, 72, 1, 4, {3, 7680, true}, {5, 1258, true}, {7, 2080, true}},
      {0, 72, 1, 32, {3, 7680, true}, {5, 1258, true}, {7, 2080, true}},
      {0, 72, 2, 4, {3, 7680, true}, {5, 1258, true}, {7, 2080, true}},
      {0, 72, 2, 32, {3, 7680, true}, {5, 1258, true}, {7, 2080, true}},
      {1, 72, 0, 4, {0, 0, true}, {1, 251, true}, {2, 654, true}},
      {1, 72, 0, 32, {0, 0, true}, {1, 251, true}, {2, 654, true}},
      {1, 72, 1, 4, {0, 0, true}, {1, 251, true}, {3, 910, true}},
      {1, 72, 1, 32, {0, 0, true}, {1, 251, true}, {3, 910, true}},
      {1, 72, 2, 4, {0, 0, true}, {1, 251, true}, {3, 910, true}},
      {1, 72, 2, 32, {0, 0, true}, {1, 252, true}, {3, 910, true}},
      {2, 72, 0, 4, {0, 0, true}, {2, 502, true}, {2, 652, true}},
      {2, 72, 0, 32, {0, 0, true}, {2, 502, true}, {2, 652, true}},
      {2, 72, 1, 4, {1, 2048, true}, {2, 502, true}, {8, 2328, true}},
      {2, 72, 1, 32, {1, 2048, true}, {2, 502, true}, {8, 2328, true}},
      {2, 72, 2, 4, {1, 2048, true}, {2, 502, true}, {8, 2328, true}},
      {2, 72, 2, 32, {1, 2048, true}, {2, 502, true}, {8, 2328, true}},
      {3, 72, 0, 4, {0, 0, true}, {3, 753, true}, {4, 1312, true}},
      {3, 72, 0, 32, {0, 0, true}, {3, 753, true}, {4, 1312, true}},
      {3, 72, 1, 4, {2, 3584, true}, {3, 753, true}, {6, 1822, true}},
      {3, 72, 1, 32, {2, 3584, true}, {3, 753, true}, {6, 1822, true}},
      {3, 72, 2, 4, {2, 3584, true}, {3, 753, true}, {6, 1822, true}},
      {3, 72, 2, 32, {2, 3584, true}, {3, 753, true}, {6, 1822, true}},
      {4, 72, 0, 4, {0, 0, true}, {4, 1024, true}, {5, 1638, true}},
      {4, 72, 0, 32, {0, 0, true}, {4, 1024, true}, {5, 1638, true}},
      {4, 72, 1, 4, {5, 4608, true}, {4, 1024, true}, {8, 2408, true}},
      {4, 72, 1, 32, {5, 4608, true}, {4, 1024, true}, {8, 2408, true}},
      {4, 72, 2, 4, {5, 4608, true}, {4, 1024, true}, {8, 2408, true}},
      {4, 72, 2, 32, {5, 4608, true}, {4, 1024, true}, {8, 2408, true}},
      {5, 72, 0, 4, {0, 0, true}, {10, 2510, true}, {10, 3260, true}},
      {5, 72, 0, 32, {0, 0, true}, {10, 2510, true}, {10, 3260, true}},
      {5, 72, 1, 4, {1, 6144, true}, {10, 2510, true}, {40, 11640, true}},
      {5, 72, 1, 32, {1, 6144, true}, {10, 2510, true}, {40, 11640, true}},
      {5, 72, 2, 4, {1, 6144, true}, {10, 2510, true}, {40, 11640, true}},
      {5, 72, 2, 32, {1, 6144, true}, {10, 2510, true}, {40, 11640, true}},
      {6, 72, 0, 4, {0, 0, true}, {5, 1255, true}, {5, 1630, true}},
      {6, 72, 0, 32, {0, 0, true}, {5, 1255, true}, {5, 1630, true}},
      {6, 72, 1, 4, {2, 10240, true}, {5, 1255, true}, {20, 5820, true}},
      {6, 72, 1, 32, {2, 10240, true}, {5, 1255, true}, {20, 5820, true}},
      {6, 72, 2, 4, {2, 10240, true}, {5, 1255, true}, {20, 5820, true}},
      {6, 72, 2, 32, {2, 10240, true}, {5, 1255, true}, {20, 5820, true}},
      {0, 216, 0, 4, {0, 0, true}, {5, 1276, true}, {4, 1888, true}},
      {0, 216, 0, 32, {0, 0, true}, {5, 1276, true}, {4, 1888, true}},
      {0, 216, 1, 4, {3, 7680, true}, {5, 1276, true}, {7, 2656, true}},
      {0, 216, 1, 32, {3, 7680, true}, {5, 1276, true}, {7, 2656, true}},
      {0, 216, 2, 4, {3, 7680, true}, {5, 1276, true}, {7, 2656, true}},
      {0, 216, 2, 32, {3, 7680, true}, {5, 1276, true}, {7, 2656, true}},
      {1, 216, 0, 4, {0, 0, true}, {1, 255, true}, {2, 942, true}},
      {1, 216, 0, 32, {0, 0, true}, {1, 255, true}, {2, 942, true}},
      {1, 216, 1, 4, {0, 0, true}, {1, 255, true}, {3, 1198, true}},
      {1, 216, 1, 32, {0, 0, true}, {1, 255, true}, {3, 1198, true}},
      {1, 216, 2, 4, {0, 0, true}, {1, 255, true}, {3, 1198, true}},
      {1, 216, 2, 32, {0, 0, true}, {1, 256, true}, {3, 1198, true}},
      {2, 216, 0, 4, {0, 0, true}, {2, 510, true}, {2, 940, true}},
      {2, 216, 0, 32, {0, 0, true}, {2, 510, true}, {2, 940, true}},
      {2, 216, 1, 4, {1, 2048, true}, {2, 510, true}, {8, 2904, true}},
      {2, 216, 1, 32, {1, 2048, true}, {2, 510, true}, {8, 2904, true}},
      {2, 216, 2, 4, {1, 2048, true}, {2, 510, true}, {8, 2904, true}},
      {2, 216, 2, 32, {1, 2048, true}, {2, 510, true}, {8, 2904, true}},
      {3, 216, 0, 4, {0, 0, true}, {3, 765, true}, {4, 1888, true}},
      {3, 216, 0, 32, {0, 0, true}, {3, 765, true}, {4, 1888, true}},
      {3, 216, 1, 4, {2, 3584, true}, {3, 765, true}, {6, 2398, true}},
      {3, 216, 1, 32, {2, 3584, true}, {3, 765, true}, {6, 2398, true}},
      {3, 216, 2, 4, {2, 3584, true}, {3, 765, true}, {6, 2398, true}},
      {3, 216, 2, 32, {2, 3584, true}, {3, 765, true}, {6, 2398, true}},
      {4, 216, 0, 4, {0, 0, true}, {4, 1024, true}, {5, 2358, true}},
      {4, 216, 0, 32, {0, 0, true}, {4, 1024, true}, {5, 2358, true}},
      {4, 216, 1, 4, {5, 4608, true}, {4, 1024, true}, {8, 3128, true}},
      {4, 216, 1, 32, {5, 4608, true}, {4, 1024, true}, {8, 3128, true}},
      {4, 216, 2, 4, {5, 4608, true}, {4, 1024, true}, {8, 3128, true}},
      {4, 216, 2, 32, {5, 4608, true}, {4, 1024, true}, {8, 3128, true}},
      {5, 216, 0, 4, {0, 0, true}, {10, 2550, true}, {10, 4700, true}},
      {5, 216, 0, 32, {0, 0, true}, {10, 2550, true}, {10, 4700, true}},
      {5, 216, 1, 4, {1, 6144, true}, {10, 2550, true}, {40, 14520, true}},
      {5, 216, 1, 32, {1, 6144, true}, {10, 2550, true}, {40, 14520, true}},
      {5, 216, 2, 4, {1, 6144, true}, {10, 2550, true}, {40, 14520, true}},
      {5, 216, 2, 32, {1, 6144, true}, {10, 2550, true}, {40, 14520, true}},
      {6, 216, 0, 4, {0, 0, true}, {5, 1275, true}, {5, 2350, true}},
      {6, 216, 0, 32, {0, 0, true}, {5, 1275, true}, {5, 2350, true}},
      {6, 216, 1, 4, {2, 6144, true}, {5, 1275, true}, {10, 3630, true}},
      {6, 216, 1, 32, {2, 6144, true}, {5, 1275, true}, {10, 3630, true}},
      {6, 216, 2, 4, {2, 6144, true}, {5, 1275, true}, {10, 3630, true}},
      {6, 216, 2, 32, {2, 6144, true}, {5, 1270, true}, {10, 3630, true}},
  };
  auto build = [](int app, linalg::Int n) {
    switch (app) {
      case 0: return apps::vpenta(n);
      case 1: return apps::lu(n);
      case 2: return apps::stencil5(n, 2);
      case 3: return apps::adi(n, 2);
      case 4: return apps::erlebacher(n, 2);
      case 5: return apps::swm256(n, 2);
      default: return apps::tomcatv(n, 2);
    }
  };
  for (const Case& c : cases) {
    const verify::ValidationReport rep = verify::validate_compiled(
        core::compile(build(c.app, c.size), static_cast<Mode>(c.mode),
                      c.procs));
    ASSERT_EQ(rep.oracles.size(), 3u);
    const Counts* want[] = {&c.eq1, &c.bijectivity, &c.folds};
    for (size_t o = 0; o < 3; ++o) {
      const verify::OracleReport& got = rep.oracles[o];
      EXPECT_EQ(got.subjects, want[o]->subjects)
          << got.oracle << " app " << c.app << " n=" << c.size << " mode "
          << c.mode << " P=" << c.procs;
      EXPECT_EQ(got.checks, want[o]->checks)
          << got.oracle << " app " << c.app << " n=" << c.size << " mode "
          << c.mode << " P=" << c.procs;
      EXPECT_EQ(got.ok(), want[o]->ok) << got.oracle << " app " << c.app;
    }
  }

  // The corrupted subjects: exact violation lists, in order. A rejected
  // index quotes the failed check; its source location is elided.
  const verify::OracleReport bij = mismatched_layout_report();
  EXPECT_EQ(bij.subjects, 1);
  EXPECT_EQ(bij.checks, 100);
  std::vector<std::string> want_bij(
      16,
      "broken: linearize rejected declared index: check failed: v >= 0 && "
      "v < dims_[k] at <loc> — mapped index out of bounds");
  want_bij.push_back("... further violations suppressed");
  std::vector<std::string> got_bij;
  for (std::string v : bij.violations) {
    const size_t at = v.find(" at "), dash = v.find(" — ");
    if (at != std::string::npos && dash != std::string::npos && at < dash)
      v.replace(at + 4, dash - at - 4, "<loc>");
    got_bij.push_back(std::move(v));
  }
  EXPECT_EQ(got_bij, want_bij);

  const verify::OracleReport eq1 =
      verify::check_equation1(corrupted_stencil5());
  EXPECT_EQ(eq1.subjects, 1);
  EXPECT_EQ(eq1.checks, 2048);
  const std::vector<std::string> want_eq1 = {
      "stencil5 nest 1 stmt 0 array A dim p0: D_x(F(i))=6 but G(i)=7 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p1: D_x(F(i))=7 but G(i)=6 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p0: D_x(F(i))=6 but G(i)=7 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p1: D_x(F(i))=7 but G(i)=6 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p0: D_x(F(i))=6 but G(i)=10 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p1: D_x(F(i))=10 but G(i)=6 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p0: D_x(F(i))=6 but G(i)=10 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p1: D_x(F(i))=10 but G(i)=6 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p0: D_x(F(i))=1 but G(i)=8 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p1: D_x(F(i))=8 but G(i)=1 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p0: D_x(F(i))=1 but G(i)=8 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p1: D_x(F(i))=8 but G(i)=1 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p0: D_x(F(i))=10 but G(i)=12 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array A dim p1: D_x(F(i))=12 but G(i)=10 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p0: D_x(F(i))=10 but G(i)=12 at "
      "sampled iteration",
      "stencil5 nest 1 stmt 0 array B dim p1: D_x(F(i))=12 but G(i)=10 at "
      "sampled iteration",
      "... further violations suppressed",
  };
  EXPECT_EQ(eq1.violations, want_eq1);
}

TEST(Verify, SampledBijectivityViolationsArePinned) {
  // The sampled path (arrays above 4,096 elements) on a broken subject:
  // which originals it draws, which repeats it skips and at which sample
  // each collision is reported.
  const verify::OracleReport rep = mismatched_sampled_layout_report();
  EXPECT_EQ(rep.subjects, 1);
  EXPECT_EQ(rep.checks, 253);
  const std::string rank = "broken_sampled: map_index outside restructured "
                           "dims";
  const auto collision = [](int at) {
    return "broken_sampled: address collision at " + std::to_string(at) +
           " (layout not injective)";
  };
  const std::vector<std::string> want = {
      rank,         rank, rank,         rank, collision(2),
      rank,         rank, collision(4), rank, rank,
      collision(6), rank, rank,         rank, collision(3),
      rank,         "... further violations suppressed",
  };
  EXPECT_EQ(rep.violations, want);
}

TEST(Verify, WideLayoutBijectivityViolationsArePinned) {
  // The exhaustive path's set of seen addresses when the layout is too
  // large for a bitmap (over 65,536 addresses): an 8x10 array through a
  // rank-1 layout strip-mined to 70,000. Addresses repeat from the ninth
  // element on.
  ir::ArrayDecl decl;
  decl.name = "broken_wide";
  decl.dims = {8, 10};
  layout::Layout lay = layout::Layout::identity({8});
  lay.apply(layout::StripMine{0, 70000});
  verify::OracleReport rep;
  rep.oracle = "layout-bijectivity";
  verify::check_layout_against(decl, lay, rep);
  EXPECT_EQ(rep.subjects, 1);
  EXPECT_EQ(rep.checks, 80);
  const std::string rank = "broken_wide: map_index outside restructured "
                           "dims";
  std::vector<std::string> want(9, rank);
  for (int at = 0; at < 4; ++at) {
    want.push_back("broken_wide: address collision at " +
                   std::to_string(at) + " (layout not injective)");
    if (at < 3) want.push_back(rank);
  }
  want.push_back("... further violations suppressed");
  EXPECT_EQ(rep.violations, want);
}

TEST(Verify, RaiseIfViolatedThrowsStructuredError) {
  verify::ValidationReport rep;
  verify::OracleReport bad;
  bad.oracle = "equation1";
  bad.violations.push_back("synthetic violation");
  rep.oracles.push_back(bad);
  try {
    rep.raise_if_violated("unit");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kOracleViolation);
    EXPECT_NE(std::string(e.what()).find("synthetic violation"),
              std::string::npos);
  }
}

TEST(Verify, DifferentialOracleAgreesOnPipelinedApp) {
  // ADI exercises the pipelined schedule — the differential oracle must
  // see bit-identical cycles and values from both engines.
  const core::CompiledProgram cp =
      core::compile(apps::adi(12, 2), Mode::Full, 4);
  const verify::OracleReport rep = verify::check_differential(
      cp, machine::MachineConfig::dash(4),
      runtime::run_reference(cp.program()));
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verify, NativeOracleAgreesOnThreadedBackend) {
  // The native oracle actually spawns cp.procs hardware threads and
  // demands bit-identity with the sequential reference.
  const core::CompiledProgram cp =
      core::compile(apps::stencil5(16, 2), Mode::Full, 4);
  const verify::OracleReport rep = verify::check_native(cp);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(rep.checks, 0);
}

}  // namespace
}  // namespace dct
