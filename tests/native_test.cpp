// Differential tests for the native threaded SPMD backend: every app in
// every compilation mode must produce bit-identical array results to the
// sequential reference at 1, 2 and 4 threads, under real std::thread
// execution with transformed layouts and walker addressing.
#include "native/native.hpp"

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "native/plan.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"

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

TEST(Native, PlanIsNotDegenerateOnDataParallelApps) {
  // The scheduler must not hide behind the Sequential fallback for the
  // embarrassingly parallel stencil: most nests should thread for real.
  const auto cp = core::compile(apps::stencil5(18, 2), Mode::Full, 4);
  const ProgramPlan pp = plan_program(cp);
  ASSERT_FALSE(pp.nests.empty());
  EXPECT_LT(pp.sequential_nests, static_cast<int>(pp.nests.size()));
}

TEST(Native, RestrictedWalkMatchesFullWalk) {
  // Forcing restriction off must not change results: restriction is a
  // pruning optimization under the owner filter, never a semantic change.
  const auto cp = core::compile(apps::stencil5(18, 2), Mode::Full, 4);
  ProgramPlan pp = plan_program(cp);
  int restricted_levels = 0;
  for (const NestPlan& np : pp.nests)
    restricted_levels += static_cast<int>(np.restrictions.size());
  EXPECT_GT(restricted_levels, 0);
  NativeOptions opts;
  opts.threads = 4;
  const NativeResult restricted = run_native(cp, pp, opts);
  for (NestPlan& np : pp.nests) np.restrictions.clear();
  const NativeResult full = run_native(cp, pp, opts);
  expect_bit_identical("restricted-vs-full", restricted.values, full.values);
}

TEST(Native, BarriersUniformAcrossRuns) {
  // The plan-derived barrier schedule must be deterministic: two runs of
  // the same compiled program execute the same number of barrier phases.
  const auto cp = core::compile(apps::lu(16), Mode::CompDecomp, 2);
  NativeOptions opts;
  opts.threads = 2;
  const NativeResult a = run_native(cp, opts);
  const NativeResult b = run_native(cp, opts);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.statements, b.statements);
}

}  // namespace
}  // namespace dct::native
