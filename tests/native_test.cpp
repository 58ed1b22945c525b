// Differential tests for the native threaded SPMD backend: every app in
// every compilation mode must produce bit-identical array results to the
// sequential reference at 1, 2 and 4 threads, under real std::thread
// execution with transformed layouts and walker addressing.
#include "native/native.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "native/plan.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"
#include "verify/progen.hpp"

namespace dct::native {
namespace {

using core::Mode;

std::vector<std::pair<std::string, ir::Program>> programs() {
  std::vector<std::pair<std::string, ir::Program>> ps;
  ps.emplace_back("figure1", apps::figure1(20, 2));
  ps.emplace_back("lu", apps::lu(16));
  ps.emplace_back("stencil5", apps::stencil5(18, 2));
  ps.emplace_back("adi", apps::adi(14, 2));
  ps.emplace_back("vpenta", apps::vpenta(12));
  ps.emplace_back("erlebacher", apps::erlebacher(8, 1));
  ps.emplace_back("swm256", apps::swm256(14, 2));
  ps.emplace_back("tomcatv", apps::tomcatv(14, 2));
  return ps;
}

void expect_bit_identical(const std::string& label,
                          const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t a = 0; a < got.size(); ++a) {
    ASSERT_EQ(got[a].size(), want[a].size()) << label << " array " << a;
    for (size_t i = 0; i < got[a].size(); ++i)
      ASSERT_EQ(got[a][i], want[a][i])
          << label << " array " << a << " element " << i;
  }
}

TEST(Native, BitIdenticalToReferenceAllAppsModesThreads) {
  const Mode modes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
  for (const auto& [name, prog] : programs()) {
    const auto want = runtime::run_reference(prog);
    for (Mode mode : modes) {
      for (int threads : {1, 2, 4}) {
        const auto cp = core::compile(prog, mode, threads);
        NativeOptions opts;
        opts.threads = threads;
        const NativeResult res = run_native(cp, opts);
        expect_bit_identical(
            name + "/" + core::to_string(mode) + "/t" + std::to_string(threads),
            res.values, want);
        EXPECT_GT(res.statements, 0);
      }
    }
  }
}

TEST(Native, StatementsAndValuesMatchSimulatorInBothEngines) {
  // Native and the simulator run the same traversal kernel under
  // different policies: the owner filter and restricted slices must
  // neither drop nor double-fire a statement instance (gated ones
  // included), so every engine executes exactly the same instances.
  const Mode modes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
  for (const auto& [name, prog] : programs()) {
    for (Mode mode : modes) {
      for (int threads : {1, 2, 4}) {
        const std::string label =
            name + "/" + core::to_string(mode) + "/t" + std::to_string(threads);
        const auto cp = core::compile(prog, mode, threads);
        NativeOptions opts;
        opts.threads = threads;
        const NativeResult res = run_native(cp, opts);
        for (bool fast : {true, false}) {
          runtime::ExecOptions eo;
          eo.fast_exec = fast;
          const runtime::RunResult sim =
              runtime::simulate(cp, machine::MachineConfig::dash(threads), eo);
          EXPECT_EQ(res.statements, sim.statements)
              << label << (fast ? " fast" : " interp");
          expect_bit_identical(label + (fast ? " fast" : " interp"),
                               res.values, sim.values);
        }
      }
    }
  }
}

TEST(Native, ThreadCountMustMatchCompiledProcs) {
  const auto cp = core::compile(apps::stencil5(12, 1), Mode::Base, 4);
  NativeOptions opts;
  opts.threads = 2;
  EXPECT_THROW((void)run_native(cp, opts), Error);
}

TEST(Native, OversubscribedThreadsStayBitIdentical) {
  // More threads than the host has cores: waits are preempted mid-spin
  // and fall through to yielding and blocking, so a missing or misplaced
  // post shows up as a wrong value instead of hiding behind lockstep.
  const Mode modes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
  for (const auto& [name, prog] : programs()) {
    if (name != "lu" && name != "adi" && name != "stencil5") continue;
    const auto want = runtime::run_reference(prog);
    for (Mode mode : modes) {
      for (int threads : {8, 16}) {
        const auto cp = core::compile(prog, mode, threads);
        NativeOptions opts;
        opts.threads = threads;
        expect_bit_identical(
            name + "/" + core::to_string(mode) + "/t" + std::to_string(threads),
            run_native(cp, opts).values, want);
      }
    }
  }
}

TEST(Native, ThrowingThreadReleasesItsWaiters) {
  // LU's divide fires on the pivot column's owner while every other
  // thread waits on that owner's post. When the divide throws, the
  // thrower's terminal epoch must release them: run_native rethrows the
  // Error instead of hanging.
  for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
    auto cp = core::compile(apps::lu(16), mode, 4);
    ASSERT_EQ(plan_program(cp).nests[0].gate,
              mode == Mode::Base ? GateSync::None : GateSync::Post);
    // Divides run in k order, one k after another: call 16 is the first
    // divide of k = 1, which the column-cyclic modes give to thread 1.
    auto calls = std::make_shared<std::atomic<int>>(0);
    core::CompiledStmt& div = cp.nests[0].stmts[0];
    ASSERT_LT(div.depth, 3);
    div.eval = [calls, inner = div.eval](std::span<const double> r) {
      if (calls->fetch_add(1) + 1 == 16)
        throw Error(Error::Code::kGeneric, "divide failed");
      return inner(r);
    };
    NativeOptions opts;
    opts.threads = 4;
    try {
      (void)run_native(cp, opts);
      ADD_FAILURE() << core::to_string(mode) << ": no error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("divide failed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Native, GatherOrdersReadsListedBeforeTheGatedStatement) {
  // LU with the update listed before the divide: the first update of each
  // row reads the multiplier before the divide overwrites it, on another
  // column's owner, so the divide's owner must gather every thread's
  // arrival before firing.
  ir::Program prog = apps::lu(16);
  std::swap(prog.nests[0].stmts[0], prog.nests[0].stmts[1]);
  const auto want = runtime::run_reference(prog);
  for (Mode mode : {Mode::CompDecomp, Mode::Full}) {
    for (int threads : {2, 4}) {
      const std::string label =
          core::to_string(mode) + "/t" + std::to_string(threads);
      const auto cp = core::compile(prog, mode, threads);
      EXPECT_EQ(plan_program(cp).nests[0].gate, GateSync::GatherPost)
          << label;
      NativeOptions opts;
      opts.threads = threads;
      expect_bit_identical(label, run_native(cp, opts).values, want);
    }
  }
}

TEST(Native, PlanIsNotDegenerateOnDataParallelApps) {
  // The scheduler must not hide behind the Sequential fallback: every
  // nest of the seven Table 1 codes threads for real in every mode, LU's
  // pivot through owner posts and the ADI/tomcatv sweeps as doacross.
  const Mode modes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
  for (const auto& [name, prog] : programs()) {
    if (name == "figure1") continue;
    for (Mode mode : modes) {
      const ProgramPlan pp = plan_program(core::compile(prog, mode, 4));
      ASSERT_FALSE(pp.nests.empty());
      EXPECT_EQ(pp.sequential_nests, 0) << name << "/" << core::to_string(mode);
    }
  }
}

TEST(Native, RestrictedWalkMatchesFullWalk) {
  // Forcing restriction off must not change results: restriction is a
  // pruning optimization under the owner filter, never a semantic change.
  // stencil5 restricts every level, lu its innermost level around gated
  // firings, adi the owner level of its doacross.
  for (const auto& [name, prog] : programs()) {
    if (name != "stencil5" && name != "lu" && name != "adi") continue;
    for (Mode mode : {Mode::CompDecomp, Mode::Full}) {
      const std::string label = name + "/" + core::to_string(mode);
      const auto cp = core::compile(prog, mode, 4);
      ProgramPlan pp = plan_program(cp);
      int restricted_levels = 0;
      for (const NestPlan& np : pp.nests)
        restricted_levels += static_cast<int>(np.restrictions.size());
      EXPECT_GT(restricted_levels, 0) << label;
      NativeOptions opts;
      opts.threads = 4;
      const NativeResult restricted = run_native(cp, pp, opts);
      for (NestPlan& np : pp.nests) np.restrictions.clear();
      const NativeResult full = run_native(cp, pp, opts);
      expect_bit_identical(label + " restricted-vs-full", restricted.values,
                           full.values);
    }
  }
}

TEST(Native, CyclicAndBlockCyclicSlicesMatchReference) {
  // The apps' own folds give BLOCK slices almost everywhere. Refolding
  // every distributed dimension (as `paper ablation` does) makes every
  // engine walk CYCLIC slices (owned stride P) and BLOCK-CYCLIC ones in
  // blocks of 3 (walkers jumping between owned blocks) through FULL
  // layouts strip-mined the same way.
  for (const auto& [name, prog] : programs()) {
    if (name != "stencil5" && name != "swm256" && name != "tomcatv" &&
        name != "lu")
      continue;
    const auto want = runtime::run_reference(prog);
    for (const decomp::DistKind kind :
         {decomp::DistKind::Cyclic, decomp::DistKind::BlockCyclic}) {
      const decomp::ProgramDecomposition dec =
          verify::refold(decomp::decompose(prog), kind);
      for (int threads : {3, 4}) {
        const std::string label = name + "/" + decomp::to_string(kind) +
                                  "/t" + std::to_string(threads);
        const auto cp =
            core::compile_with_decomposition(prog, dec, Mode::Full, threads);
        const ProgramPlan pp = plan_program(cp);
        bool innermost = false;
        for (size_t j = 0; j < pp.nests.size(); ++j)
          for (const NestRestriction& r : pp.nests[j].restrictions)
            innermost |= r.fold.kind == kind &&
                         r.level + 1 == static_cast<int>(
                                            cp.nests[j].nest.loops.size());
        EXPECT_TRUE(innermost) << label << ": no innermost slice of that kind";
        NativeOptions opts;
        opts.threads = threads;
        expect_bit_identical(label + " native", run_native(cp, pp, opts).values,
                             want);
        for (bool fast : {true, false}) {
          runtime::ExecOptions eo;
          eo.fast_exec = fast;
          expect_bit_identical(
              label + (fast ? " fast" : " interp"),
              runtime::simulate(cp, machine::MachineConfig::dash(threads), eo)
                  .values,
              want);
        }
      }
    }
  }
}

TEST(Native, WalkerSplitsOnlyWhereStripsCut) {
  // BASE and COMP DECOMP keep identity layouts: no walker ever splits.
  for (const auto& [name, prog] : programs())
    for (Mode mode : {Mode::Base, Mode::CompDecomp}) {
      const auto cp = core::compile(prog, mode, 4);
      NativeOptions opts;
      opts.threads = 4;
      EXPECT_EQ(run_native(cp, opts).walker_splits, 0)
          << name << "/" << core::to_string(mode);
      EXPECT_EQ(runtime::simulate(cp, machine::MachineConfig::dash(4))
                    .counters.walker_splits,
                0)
          << name << "/" << core::to_string(mode);
    }
  // FULL at the native benchmark's sizes: LU's CYCLIC slices are one run
  // each; a BLOCK slice splits only where a stencil offset reaches into a
  // neighbour's strip.
  NativeOptions opts;
  opts.threads = 4;
  opts.collect_values = false;
  EXPECT_EQ(run_native(core::compile(apps::lu(96), Mode::Full, 4), opts)
                .walker_splits,
            0);
  for (const auto& [name, prog] :
       {std::pair{"stencil5", apps::stencil5(512, 2)},
        std::pair{"swm256", apps::swm256(384, 2)},
        std::pair{"tomcatv", apps::tomcatv(384, 2)}}) {
    const NativeResult r =
        run_native(core::compile(prog, Mode::Full, 4), opts);
    EXPECT_GT(r.walker_splits, 0) << name;
    EXPECT_LT(r.walker_splits * 100, r.statements) << name;
  }
}

TEST(Native, BarriersUniformAcrossRuns) {
  // The plan-derived sync schedule must be deterministic: two runs of the
  // same compiled program execute the same number of barriers and
  // point-to-point waits.
  const auto cp = core::compile(apps::lu(16), Mode::CompDecomp, 2);
  NativeOptions opts;
  opts.threads = 2;
  const NativeResult a = run_native(cp, opts);
  const NativeResult b = run_native(cp, opts);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_GT(a.waits, 0);
  EXPECT_EQ(a.statements, b.statements);
}

}  // namespace
}  // namespace dct::native
