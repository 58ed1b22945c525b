// Tests for the validation oracle layer (src/verify/): every oracle runs
// clean on every application in every mode, and — equally important —
// each oracle has teeth: aimed at a deliberately broken subject it must
// report a violation.
#include <gtest/gtest.h>

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

TEST(Verify, BijectivityOracleCatchesMismatchedLayout) {
  // A 10x10 array forced through a 5x5 identity layout: addresses escape
  // [0, 25) — the oracle must notice rather than trust the layout.
  ir::ArrayDecl decl;
  decl.name = "broken";
  decl.dims = {10, 10};
  const layout::Layout lay = layout::Layout::identity({5, 5});
  verify::OracleReport rep;
  rep.oracle = "layout-bijectivity";
  verify::check_layout_against(decl, lay, rep);
  EXPECT_FALSE(rep.ok());
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
  // stencil5 under Full is (BLOCK, BLOCK): both dimensions of the main
  // array bind processor dimensions. Swapping the bindings makes D_x
  // disagree with G on every non-diagonal iteration.
  core::CompiledProgram cp =
      core::compile(apps::stencil5(14, 2), Mode::Full, 4);
  bool corrupted = false;
  for (auto& ad : cp.dec.arrays) {
    if (ad.dims.size() >= 2 && ad.dims[0].proc_dim != ad.dims[1].proc_dim) {
      std::swap(ad.dims[0].proc_dim, ad.dims[1].proc_dim);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "expected a multi-dimensional distribution";
  const verify::OracleReport rep = verify::check_equation1(cp);
  EXPECT_FALSE(rep.ok());
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
      cp, machine::MachineConfig::dash(4), runtime::run_reference(cp.program));
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
