// Differential tests for the native threaded SPMD backend: every app in
// every compilation mode must produce bit-identical array results to the
// sequential reference at 1, 2 and 4 threads, on the caller and its team
// of real threads, with transformed layouts and walker addressing.
#include "native/native.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>

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
    // Divides run in k order, one k after another: call 16 is the first
    // divide of k = 1, which the column-cyclic modes give to thread 1.
    ir::Program prog = apps::lu(16);
    ir::Stmt& div = prog.nests[0].stmts[0];
    auto calls = std::make_shared<std::atomic<int>>(0);
    div.eval = [calls, inner = div.eval](std::span<const double> r) {
      if (calls->fetch_add(1) + 1 == 16)
        throw Error(Error::Code::kGeneric, "divide failed");
      return inner(r);
    };
    const auto cp = core::compile(prog, mode, 4);
    ASSERT_LT(cp.dec().par[0].nest.stmts[0].effective_depth(3), 3);
    ASSERT_EQ(plan_program(cp).nests[0].gate,
              mode == Mode::Base ? GateSync::None : GateSync::Post);
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
    // The caller's team survives the throw: the next run on it (the
    // divide no longer throws) completes with the reference's values.
    expect_bit_identical(core::to_string(mode) + " after the throw",
                         run_native(cp, opts).values,
                         runtime::run_reference(prog));
  }
}

TEST(Native, TeamFollowsThreadCountChanges) {
  // One caller, back to back: its team grows when T does (4 to 8), a
  // smaller run uses only its first T-1 workers, a T = 1 run none, and
  // every run matches the reference.
  const ir::Program progs[] = {apps::lu(16), apps::stencil5(18, 2)};
  for (const ir::Program& prog : progs) {
    const auto want = runtime::run_reference(prog);
    for (int threads : {4, 2, 8, 1, 3, 4}) {
      const auto cp = core::compile(prog, Mode::Full, threads);
      NativeOptions opts;
      opts.threads = threads;
      expect_bit_identical(prog.name + "/t" + std::to_string(threads),
                           run_native(cp, opts).values, want);
    }
  }
}

TEST(Native, ConcurrentCallersKeepTheirOwnTeams) {
  // dctd's case: several threads call run_native at once, each with
  // thread counts of its own, so each runs on a team of its own.
  const ir::Program prog = apps::adi(14, 2);
  const auto want = runtime::run_reference(prog);
  std::vector<core::CompiledProgram> cps;
  for (int threads = 1; threads <= 4; ++threads)
    cps.push_back(core::compile(prog, Mode::Full, threads));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const int threads = 1 + (c + i / 3) % 4;
        NativeOptions opts;
        opts.threads = threads;
        if (run_native(cps[static_cast<size_t>(threads - 1)], opts).values !=
            want)
          mismatches.fetch_add(1);
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Native, OneThreadRunsNeverWait) {
  // A T = 1 run is the caller alone: no sync event, so no wait and none
  // that sleeps.
  for (const auto& [name, prog] : programs()) {
    const auto cp = core::compile(prog, Mode::Full, 1);
    const NativeResult res = run_native(cp, NativeOptions{});
    EXPECT_EQ(res.barriers, 0) << name;
    EXPECT_EQ(res.waits, 0) << name;
    EXPECT_EQ(res.blocked_waits, 0) << name;
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
                                            cp.dec().par[j].nest.loops.size());
        EXPECT_TRUE(innermost) << label << ": no innermost slice of that kind";
        NativeOptions opts;
        opts.threads = threads;
        const NativeResult res = run_native(cp, pp, opts);
        expect_bit_identical(label + " native", res.values, want);
        // Owned slices run as run loops, across the jumps between
        // BLOCK-CYCLIC blocks too: every instance of the codes whose
        // nests are all innermost slices.
        if (name == "stencil5" || name == "swm256")
          EXPECT_EQ(res.run_instances, res.statements) << label;
        else
          EXPECT_GT(res.run_instances, 0) << label;
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
    // A split starts a new run loop; it does not fall back to single
    // instances.
    EXPECT_GE(r.run_instances * 100, r.statements * 99) << name;
  }
}

TEST(Native, RunLoopsCoverDataParallelApps) {
  // At the native benchmark's sizes nearly every instance of the seven
  // codes runs through a compiled run loop; the rest are gated firings
  // (LU's divides) and the first iteration of segments that fire them.
  const std::pair<const char*, ir::Program> bench[] = {
      {"lu", apps::lu(96)},
      {"stencil5", apps::stencil5(512, 2)},
      {"adi", apps::adi(384, 2)},
      {"vpenta", apps::vpenta(256)},
      {"erlebacher", apps::erlebacher(64, 2)},
      {"swm256", apps::swm256(384, 2)},
      {"tomcatv", apps::tomcatv(384, 2)}};
  NativeOptions opts;
  opts.threads = 4;
  opts.collect_values = false;
  for (const auto& [name, prog] : bench)
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      const NativeResult r = run_native(core::compile(prog, mode, 4), opts);
      EXPECT_GE(static_cast<double>(r.run_instances),
                0.95 * static_cast<double>(r.statements))
          << name << "/" << core::to_string(mode) << ": " << r.run_instances
          << " of " << r.statements;
    }
  // The simulator charges every access to the machine in order: neither
  // of its configurations takes run loops.
  for (const auto& [name, prog] : programs())
    for (Mode mode : {Mode::Base, Mode::Full})
      for (bool fast : {true, false}) {
        runtime::ExecOptions eo;
        eo.fast_exec = fast;
        eo.collect_values = false;
        const runtime::RunResult sim = runtime::simulate(
            core::compile(prog, mode, 4), machine::MachineConfig::dash(4), eo);
        EXPECT_EQ(sim.counters.run_instances, 0)
            << name << "/" << core::to_string(mode);
        EXPECT_GT(sim.statements, 0);
      }
}

/// A two-level nest over J (outer) and I (inner) with the given
/// statements, over N x N arrays A and B.
ir::Program order_program(
    const std::string& name, Int lo, Int hi,
    const std::function<std::vector<ir::Stmt>(int a, int b)>& stmts) {
  constexpr Int kN = 24;
  ir::ProgramBuilder pb(name);
  const int a = pb.array("A", {kN, kN});
  const int b = pb.array("B", {kN, kN});
  ir::LoopNest& nest = pb.nest("body");
  nest.loops.push_back(ir::loop("J", ir::cst(0), ir::cst(kN - 1)));
  nest.loops.push_back(ir::loop("I", ir::cst(lo), ir::cst(hi)));
  nest.stmts = stmts(a, b);
  pb.set_time_steps(2);
  return pb.build();
}

/// Element (I + di, J) of array x.
ir::ArrayRef at(int x, Int di) { return ir::simple_ref(x, 2, {{1, di}, {0, 0}}); }

ir::Stmt assign(ir::ArrayRef write, std::vector<ir::ArrayRef> reads,
                ir::StmtEval eval) {
  ir::Stmt s;
  s.write = std::move(write);
  s.reads = std::move(reads);
  s.eval = std::move(eval);
  return s;
}

TEST(Native, RunLoopsKeepInstanceOrder) {
  // Inside one run, each instance reads what the previous ones wrote: a
  // run loop that reordered, batched its reads ahead of its writes or
  // dropped an instance would change these values.
  using R = std::span<const double>;
  const std::pair<const char*, ir::Program> cases[] = {
      {"flow recurrence",
       order_program("flow", 1, 23, [](int a, int b) {
         return std::vector{assign(at(a, 0), {at(a, -1), at(b, 0)},
                                   [](R r) { return r[0] * 0.75 + r[1]; })};
       })},
      {"anti dependence",
       order_program("anti", 0, 22, [](int a, int b) {
         return std::vector{assign(at(a, 0), {at(a, 1), at(b, 0)},
                                   [](R r) { return r[0] + r[1]; })};
       })},
      {"two statements",
       order_program("pair", 1, 22, [](int a, int b) {
         return std::vector{
             assign(at(a, 0), {at(b, -1), at(a, 1)},
                    [](R r) { return r[0] * 0.5 + r[1]; }),
             assign(at(b, 0), {at(a, -1), at(b, 1)},
                    [](R r) { return r[0] - 0.25 * r[1]; })};
       })},
      {"reads its own write",
       order_program("self", 0, 23, [](int a, int) {
         return std::vector{assign(at(a, 0), {at(a, 0), at(a, 0)},
                                   [](R r) { return r[0] * r[1] + 1.0; })};
       })},
      {"zero reads",
       order_program("zero", 1, 23, [](int a, int b) {
         return std::vector{
             assign(at(a, 0), {}, [](R) { return 3.0; }),
             assign(at(b, 0), {at(a, -1), at(b, 0)},
                    [](R r) { return r[0] + r[1]; })};
       })},
      // Two statements sharing an array run interleaved, even where one
      // run loop per statement would happen to give the same values.
      {"forward flow pair",
       order_program("fwdflow", 1, 23, [](int a, int b) {
         return std::vector{
             assign(at(a, 0), {at(a, 0)},
                    [](R r) { return r[0] * 0.5 + 1.0; }),
             assign(at(b, 0), {at(a, -1), at(b, 0)},
                    [](R r) { return r[0] - r[1]; })};
       })},
      {"backward anti pair",
       order_program("bwdanti", 0, 22, [](int a, int b) {
         return std::vector{
             assign(at(a, 0), {at(a, 0)},
                    [](R r) { return r[0] * 0.5 + 1.0; }),
             assign(at(b, 0), {at(a, 1), at(b, 0)},
                    [](R r) { return r[0] - r[1]; })};
       })},
  };
  for (const auto& [name, prog] : cases) {
    const auto want = runtime::run_reference(prog);
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full})
      for (int threads : {1, 2, 4}) {
        const std::string label = std::string(name) + "/" +
                                  core::to_string(mode) + "/t" +
                                  std::to_string(threads);
        const auto cp = core::compile(prog, mode, threads);
        // I stays innermost: the dependences lie inside each run.
        ASSERT_EQ(cp.dec().par[0].nest.stmts[0].write.access.at(0, 1), 1)
            << label;
        NativeOptions opts;
        opts.threads = threads;
        const NativeResult r = run_native(cp, opts);
        expect_bit_identical(label, r.values, want);
        EXPECT_EQ(r.run_instances, r.statements) << label;
        EXPECT_EQ(r.split_instances, 0) << label;
      }
  }
}

TEST(Native, SplitsOnlyIndependentStatements) {
  // A nest of several full-depth statements of which none reads or writes
  // an array another writes runs one run loop per statement; every other
  // nest keeps one statement's run loop or the interleave. Each nest runs
  // as a program of its own, so the counter gives its verdict.
  const std::set<std::string> split = {
      "tomcatv/residual", "tomcatv/update",   "swm256/calc1",
      "swm256/calc2",     "swm256/copyback", "vpenta/fwd2d"};
  for (const auto& [name, prog] : programs())
    for (size_t j = 0; j < prog.nests.size(); ++j) {
      ir::Program one = prog;
      one.nests = {prog.nests[j]};
      const std::string nest = name + "/" + prog.nests[j].name;
      const auto want = runtime::run_reference(one);
      for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full})
        for (int threads : {1, 4}) {
          const std::string label = nest + "/" + core::to_string(mode) +
                                    "/t" + std::to_string(threads);
          NativeOptions opts;
          opts.threads = threads;
          const NativeResult r =
              run_native(core::compile(one, mode, threads), opts);
          expect_bit_identical(label, r.values, want);
          EXPECT_EQ(r.split_instances, split.count(nest) ? r.statements : 0)
              << label;
        }
    }
  // Whole programs: every nest of swm256 splits, every one of adi and LU
  // keeps its order; tomcatv's one-statement row_solve is a fifth of its
  // instances.
  NativeOptions opts;
  opts.threads = 4;
  for (const auto& [name, prog] : programs())
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      const NativeResult r = run_native(core::compile(prog, mode, 4), opts);
      const std::string label = name + "/" + core::to_string(mode);
      if (name == "swm256") {
        EXPECT_EQ(r.split_instances, r.statements) << label;
      } else if (name == "tomcatv") {
        EXPECT_EQ(r.split_instances * 5, r.statements * 4) << label;
      } else if (name == "adi" || name == "lu") {
        EXPECT_EQ(r.split_instances, 0) << label;
      }
    }
}

TEST(Native, RunLoopFallbacksMatchReference) {
  // Pieces a run loop cannot take run instance by instance, bit-identical
  // to the reference, and the counter says which way they ran.
  using R = std::span<const double>;
  const auto plus = [](R r) { return r[0] + r[1]; };
  const auto check = [](const std::string& label, const ir::Program& prog,
                        const core::CompiledProgram& cp, const ProgramPlan& pp,
                        bool runs) {
    NativeOptions opts;
    opts.threads = cp.procs;
    const NativeResult r = run_native(cp, pp, opts);
    expect_bit_identical(label, r.values, runtime::run_reference(prog));
    EXPECT_GT(r.statements, 0) << label;
    if (runs)
      EXPECT_EQ(r.run_instances, r.statements) << label;
    else
      EXPECT_EQ(r.run_instances, 0) << label;
  };

  // More reads than a run loop holds.
  const ir::Program wide = order_program("wide", 0, 23, [](int a, int b) {
    std::vector<ir::ArrayRef> reads;
    for (size_t k = 0; k <= ir::StmtRun::kMaxReads; ++k)
      reads.push_back(at(k % 2 == 0 ? b : a, 0));
    return std::vector{assign(at(a, 0), reads, [](R r) {
      double s = 0;
      for (double v : r) s = s * 0.5 + v;
      return s;
    })};
  });
  const ir::Program apart = order_program("apart", 1, 23, [&](int a, int b) {
    return std::vector{assign(at(a, 0), {at(a, 0), at(a, -1)}, plus),
                       assign(at(b, 0), {at(b, 0), at(b, -1)}, plus)};
  });
  for (int threads : {1, 4}) {
    const std::string t = "/t" + std::to_string(threads);
    for (Mode mode : {Mode::Base, Mode::Full}) {
      const std::string m = "/" + core::to_string(mode) + t;
      const auto cp = core::compile(wide, mode, threads);
      check("wide" + m, wide, cp, plan_program(cp), false);
    }
    // An unowned statement inside a batched segment: the second of two
    // independent statements all on thread 0, the first spread over the
    // threads, and no restricted walk, so every thread's segments hold
    // owned and unowned statements and still run as run loops.
    auto cp = core::compile(apart, Mode::Base, threads);
    cp.nests[0].stmts[1].owner.clear();
    ProgramPlan pp = plan_program(cp);
    EXPECT_EQ(pp.sequential_nests, 0);
    for (NestPlan& np : pp.nests) np.restrictions.clear();
    check("unowned" + t, apart, cp, pp, true);
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
