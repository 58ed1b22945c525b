// Tests for the SPMD execution engine: determinism, clock/sync behaviour,
// page homing, values on and off, host state, the trace record's wall
// time, and failure injection.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "support/diagnostics.hpp"
#include "verify/oracle.hpp"

namespace dct::runtime {
namespace {

using core::Mode;

TEST(Executor, Deterministic) {
  const ir::Program prog = apps::stencil5(24, 2);
  const auto cp = core::compile(prog, Mode::Full, 8);
  const auto a = simulate(cp, machine::MachineConfig::dash(8));
  const auto b = simulate(cp, machine::MachineConfig::dash(8));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.mem.accesses, b.mem.accesses);
}

TEST(Executor, ProcMismatchRejected) {
  const auto cp = core::compile(apps::figure1(16, 1), Mode::Base, 4);
  EXPECT_THROW(simulate(cp, machine::MachineConfig::dash(8)), Error);
}

TEST(Executor, SingleProcessorHasNoSyncCost) {
  const auto cp = core::compile(apps::figure1(32, 2), Mode::Base, 1);
  const auto r = simulate(cp, machine::MachineConfig::dash(1));
  EXPECT_EQ(r.barrier_cycles, 0);
  EXPECT_EQ(r.wait_cycles, 0);
}

TEST(Executor, MoreProcessorsNotSlowerOnParallelCode) {
  runtime::ExecOptions opts;
  opts.collect_values = false;
  const ir::Program prog = apps::figure1(128, 2);
  double prev = 1e300;
  for (int p : {1, 2, 4, 8}) {
    const auto r = simulate(core::compile(prog, Mode::Full, p),
                            machine::MachineConfig::dash(p), opts);
    EXPECT_LT(r.cycles, prev * 1.05) << "p=" << p;
    prev = r.cycles;
  }
}

TEST(Executor, PipelineWaitsAreVisible) {
  // ADI's row sweep pipelines: cross-processor waits must appear.
  const auto cp = core::compile(apps::adi(48, 2), Mode::Full, 8);
  const auto r = simulate(cp, machine::MachineConfig::dash(8));
  EXPECT_GT(r.wait_cycles, 0);
}

TEST(Executor, StatementCountMatchesIterationSpace) {
  const ir::Program prog = apps::lu(12);
  const auto cp = core::compile(prog, Mode::Base, 2);
  const auto r = simulate(cp, machine::MachineConfig::dash(2));
  // LU: divide once per (I1,I2) pair, update once per (I1,I2,I3).
  long long expected = 0;
  for (linalg::Int i1 = 0; i1 <= 10; ++i1) {
    const linalg::Int span = 11 - i1;
    expected += span + span * span;
  }
  EXPECT_EQ(r.statements, expected);
}

TEST(Executor, ReferenceMatchesSimulatorOnOneProc) {
  const ir::Program prog = apps::tomcatv(18, 2);
  const auto reference = run_reference(prog);
  const auto r = simulate(core::compile(prog, Mode::Base, 1),
                          machine::MachineConfig::dash(1));
  EXPECT_EQ(reference, r.values);
}

TEST(Executor, NonTransformableArrayKeptInPlace) {
  // Section 4.1.3 failure injection: an aliased/reshaped array must not
  // be restructured, and the program must still run correctly.
  ir::ProgramBuilder pb("legality");
  const int a = pb.array("A", {32, 32}, 8, /*transformable=*/false);
  ir::LoopNest& nest = pb.nest("touch", 1);
  nest.loops.push_back(ir::loop("J", ir::cst(0), ir::cst(31)));
  nest.loops.push_back(ir::loop("I", ir::cst(0), ir::cst(31)));
  ir::Stmt s;
  s.write = ir::simple_ref(a, 2, {{1, 0}, {0, 0}});
  s.reads = {ir::simple_ref(a, 2, {{1, 0}, {0, 0}})};
  s.eval = [](std::span<const double> r) { return r[0] * 2.0; };
  nest.stmts.push_back(std::move(s));
  const ir::Program prog = pb.build();

  const auto cp = core::compile(prog, Mode::Full, 4);
  EXPECT_TRUE(cp.arrays[0].layout.is_identity());
  const auto reference = run_reference(prog);
  const auto r = simulate(cp, machine::MachineConfig::dash(4));
  EXPECT_EQ(reference, r.values);
}

TEST(Executor, DegenerateSizes) {
  // 1x1 arrays, single-iteration loops, more processors than iterations.
  ir::ProgramBuilder pb("tiny");
  const int a = pb.array("A", {1, 1}, 8);
  ir::LoopNest& nest = pb.nest("one", 1);
  nest.loops.push_back(ir::loop("I", ir::cst(0), ir::cst(0)));
  ir::Stmt s;
  s.write = ir::simple_ref(a, 1, {{0, 0}, {-1, 0}});
  s.reads = {ir::simple_ref(a, 1, {{0, 0}, {-1, 0}})};
  s.eval = [](std::span<const double> r) { return r[0] + 1.0; };
  nest.stmts.push_back(std::move(s));
  const ir::Program prog = pb.build();
  for (core::Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
    const auto cp = core::compile(prog, mode, 8);
    const auto r = simulate(cp, machine::MachineConfig::dash(8));
    EXPECT_EQ(r.statements, 1);
  }
}

TEST(Executor, BuffersSizedFromProgramNotFixedCaps) {
  // Regression: the executor's subscript and operand scratch buffers are
  // sized from the program (deepest array rank, widest read list), not
  // from fixed capacities. A rank-9 array and a 17-operand statement
  // overflow the old scratch(8)/vals(16) buffers.
  ir::ProgramBuilder pb("wide");
  const int a = pb.array("A", {2, 2, 2, 2, 2, 2, 2, 2, 2}, 8);
  const int b = pb.array("B", {32}, 8);
  ir::LoopNest& nest = pb.nest("wide", 1);
  nest.loops.push_back(ir::loop("I", ir::cst(0), ir::cst(1)));

  ir::Stmt deep;  // rank-9 write A[I,1,0,1,0,1,0,1,0] = A[I,...] * 2
  std::vector<std::pair<int, linalg::Int>> dims9 = {
      {0, 0}, {-1, 1}, {-1, 0}, {-1, 1}, {-1, 0},
      {-1, 1}, {-1, 0}, {-1, 1}, {-1, 0}};
  deep.write = ir::simple_ref(a, 1, dims9);
  deep.reads = {ir::simple_ref(a, 1, dims9)};
  deep.eval = [](std::span<const double> r) { return r[0] * 2.0; };
  nest.stmts.push_back(std::move(deep));

  ir::Stmt wide;  // 17 reads of B feeding one write
  wide.write = ir::simple_ref(b, 1, {{0, 0}});
  for (int k = 0; k < 17; ++k)
    wide.reads.push_back(ir::simple_ref(b, 1, {{0, static_cast<Int>(k % 3)}}));
  wide.eval = [](std::span<const double> r) {
    double s = 0;
    for (double v : r) s += v;
    return s;
  };
  nest.stmts.push_back(std::move(wide));
  const ir::Program prog = pb.build();

  const auto reference = run_reference(prog);
  for (const Mode mode : {Mode::Base, Mode::Full}) {
    const auto cp = core::compile(prog, mode, 2);
    const auto r = simulate(cp, machine::MachineConfig::dash(2));
    EXPECT_EQ(r.values, reference) << core::to_string(mode);
  }
}

TEST(Executor, RejectsProcessorCountsBeyondInt8Writers) {
  // The dataflow state records the last writer in an int8, and the
  // machine's sharer masks are 64 bits: simulate must refuse processor
  // counts beyond the machine's 64 rather than wrap or fail generically —
  // with a structured kUnsupportedConfig code so the sweep records a
  // skipped cell instead of a fault.
  const ir::Program prog = apps::figure1(16, 1);
  for (const int procs : {65, 200}) {
    const auto cp = core::compile(prog, Mode::Base, procs);
    try {
      simulate(cp, machine::MachineConfig::dash(procs));
      ADD_FAILURE() << "expected rejection of " << procs << " processors";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Error::Code::kUnsupportedConfig) << procs;
      EXPECT_NE(std::string(e.what()).find("64"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Executor, DeadlineCancelsRunawayNest) {
  // A runaway simulation must stop at a cancellation poll, in both
  // engines, with the deadline's structured code.
  const ir::Program prog = apps::stencil5(96, 4);
  const auto cp = core::compile(prog, Mode::Full, 4);
  for (bool fast : {true, false}) {
    ExecOptions opts;
    opts.fast_exec = fast;
    opts.cancel = support::CancelToken::with_deadline_ms(0);  // expired
    try {
      simulate(cp, machine::MachineConfig::dash(4), opts);
      FAIL() << "expected deadline trip (fast_exec=" << fast << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Error::Code::kDeadlineExceeded);
    }
  }
}

TEST(Executor, ExplicitCancellationStopsSimulation) {
  const ir::Program prog = apps::figure1(32, 2);
  const auto cp = core::compile(prog, Mode::Base, 2);
  ExecOptions opts;
  opts.cancel = support::CancelToken::make();
  opts.cancel.cancel();
  EXPECT_THROW(simulate(cp, machine::MachineConfig::dash(2), opts), Error);
  // An inert token costs nothing and changes nothing.
  const auto plain = simulate(cp, machine::MachineConfig::dash(2));
  const auto with_token =
      simulate(cp, machine::MachineConfig::dash(2),
               [] {
                 ExecOptions o;
                 o.cancel = support::CancelToken::with_deadline_ms(60000);
                 return o;
               }());
  EXPECT_EQ(plain.cycles, with_token.cycles);
  EXPECT_EQ(plain.values, with_token.values);
}

TEST(Executor, AddressStrategyChangesTimeNotValues) {
  const ir::Program prog = apps::lu(24);
  const auto naive =
      simulate(core::compile(prog, Mode::Full, 4,
                             {.strategy = layout::AddrStrategy::Naive}),
               machine::MachineConfig::dash(4));
  const auto opt =
      simulate(core::compile(prog, Mode::Full, 4,
                             {.strategy = layout::AddrStrategy::Optimized}),
               machine::MachineConfig::dash(4));
  EXPECT_EQ(naive.values, opt.values);
  EXPECT_GT(naive.cycles, opt.cycles);  // Section 4.3: overhead matters
}

TEST(Executor, WideLineAndFlatMachineCyclesArePinned) {
  // examples/custom_machine.cpp's two non-DASH machines: 64 B lines, and
  // uniform memory latencies. Only DASH cycles are pinned elsewhere (by
  // perfbench's expected Table 1), so these pin the machine model's
  // other configurations exactly.
  const ir::Program prog = apps::tomcatv(128, 2);
  machine::MachineConfig wide = machine::MachineConfig::dash(32);
  wide.l1.line_bytes = 64;
  wide.l2.line_bytes = 64;
  machine::MachineConfig flat = machine::MachineConfig::dash(32);
  flat.lat_remote = flat.lat_local;
  flat.lat_remote_dirty = flat.lat_local;
  ExecOptions opts;
  opts.collect_values = false;
  const Mode modes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
  // Captured from the hashed-directory model this one replaced.
  const double wide_cycles[] = {1445674, 1536654, 627895.43253974104};
  const double flat_cycles[] = {531666, 557054, 644257.05158736068};
  for (int i = 0; i < 3; ++i) {
    const auto cp = core::compile(prog, modes[i], 32);
    EXPECT_EQ(simulate(cp, wide, opts).cycles, wide_cycles[i])
        << core::to_string(modes[i]);
    EXPECT_EQ(simulate(cp, flat, opts).cycles, flat_cycles[i])
        << core::to_string(modes[i]);
  }
}

TEST(Executor, LargerMachinePagesHomeEveryArray) {
  // compile aligns arrays to 4 KB, so a larger machine page can start
  // before an array or end past it. Page homing must cover each array
  // from its first byte's page to its last byte's, for every replicated
  // copy too (figure1's B and C; P=8 has two clusters).
  const std::pair<const char*, ir::Program> programs[] = {
      {"stencil5", apps::stencil5(16, 1)}, {"figure1", apps::figure1(16, 1)}};
  for (const auto& [name, prog] : programs) {
    const auto reference = run_reference(prog);
    for (const int procs : {4, 8})
      for (const Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
        const auto cp = core::compile(prog, mode, procs);
        for (const Int page : {8192, 16384}) {
          machine::MachineConfig mcfg = machine::MachineConfig::dash(procs);
          mcfg.page_bytes = page;
          const verify::OracleReport rep =
              verify::check_differential(cp, mcfg, reference);
          EXPECT_TRUE(rep.ok()) << name << "/" << core::to_string(mode)
                                << " P=" << procs << " page=" << page
                                << ": " << rep.to_string();
        }
      }
  }
}

TEST(Executor, ReplicaAllocationCoversEveryCluster) {
  // simulate homes and addresses one copy of a replicated array per
  // cluster of MachineConfig::dash(P); compile must have allocated that
  // many copies, or the last ones alias the next array.
  const std::pair<const char*, ir::Program> programs[] = {
      {"figure1", apps::figure1(16, 1)},  {"vpenta", apps::vpenta(16)},
      {"lu", apps::lu(16)},               {"stencil5", apps::stencil5(16, 1)},
      {"adi", apps::adi(16, 1)},          {"erlebacher", apps::erlebacher(8)},
      {"swm256", apps::swm256(16, 1)},    {"tomcatv", apps::tomcatv(16, 1)}};
  int replicated = 0;
  for (const auto& [name, prog] : programs)
    for (const int procs : {1, 4, 8, 32})
      for (const Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
        const auto cp = core::compile(prog, mode, procs);
        const Int clusters = machine::MachineConfig::dash(procs).clusters();
        std::vector<std::pair<Int, Int>> spans;  // [base, end) per array
        for (const core::CompiledArray& ca : cp.arrays) {
          replicated += ca.replicated ? 1 : 0;
          spans.emplace_back(ca.base_addr,
                             ca.base_addr +
                                 ca.bytes * (ca.replicated ? clusters : 1));
        }
        std::sort(spans.begin(), spans.end());
        for (size_t i = 1; i < spans.size(); ++i)
          EXPECT_LE(spans[i - 1].second, spans[i].first)
              << name << "/" << core::to_string(mode) << " P=" << procs;
      }
  EXPECT_GT(replicated, 0);
}

TEST(Executor, ValuesOffChangesNothingElse) {
  // Without collect_values the simulator keeps no values and evaluates no
  // statement; everything else it measures must be what it is with them.
  long long evals = 0;
  const auto counted = [&evals](ir::Program prog) {
    for (ir::LoopNest& nest : prog.nests)
      for (ir::Stmt& s : nest.stmts)
        if (s.eval)
          s.eval = [&evals, inner = s.eval](std::span<const double> r) {
            ++evals;
            return inner(r);
          };
    return prog;
  };
  const std::pair<const char*, ir::Program> programs[] = {
      {"lu", apps::lu(16)},           {"stencil5", apps::stencil5(18, 2)},
      {"adi", apps::adi(14, 2)},      {"vpenta", apps::vpenta(12)},
      {"erlebacher", apps::erlebacher(8, 1)},
      {"swm256", apps::swm256(14, 2)}, {"tomcatv", apps::tomcatv(14, 2)}};
  const auto state_bytes = [](const RunResult& r) {
    return r.trace.passes.at(0).counters.at("sim_state_bytes");
  };
  for (const auto& [name, plain] : programs) {
    const ir::Program prog = counted(plain);
    for (const Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      const auto cp = core::compile(prog, mode, 4);
      long elements = 0;
      for (const core::CompiledArray& ca : cp.arrays)
        elements += static_cast<long>(ca.layout.size());
      for (const bool fast : {true, false}) {
        SCOPED_TRACE(testing::Message() << name << "/" << core::to_string(mode)
                                        << " fast_exec=" << fast);
        ExecOptions on;
        on.fast_exec = fast;
        ExecOptions off = on;
        off.collect_values = false;
        evals = 0;
        const RunResult a = simulate(cp, machine::MachineConfig::dash(4), on);
        EXPECT_GT(evals, 0);
        EXPECT_FALSE(a.values.empty());
        evals = 0;
        const RunResult b = simulate(cp, machine::MachineConfig::dash(4), off);
        EXPECT_EQ(evals, 0);
        EXPECT_TRUE(b.values.empty());
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.proc_cycles, b.proc_cycles);
        EXPECT_EQ(a.wait_cycles, b.wait_cycles);
        EXPECT_EQ(a.barrier_cycles, b.barrier_cycles);
        EXPECT_EQ(a.statements, b.statements);
        EXPECT_EQ(a.mem, b.mem);
        EXPECT_EQ(a.counters, b.counters);
        // The value array is the only state that goes: 8 B per element.
        EXPECT_EQ(state_bytes(a) - state_bytes(b), 8 * elements);
      }
    }
  }
}

TEST(Executor, SimStateBytesArePinned) {
  // Host bytes of the simulator's state for Table 1's LU at P=32, as every
  // sweep cell runs it (values off): 9 B per element for the writer id and
  // write time, 24 B per directory line, 4 B per page home, and 80 KB of
  // 32-bit cache slots per processor (4096 L1 + 16384 L2 sets). 24 B
  // cells and 64-bit tags with a flag byte per L1 set took 7737344.
  const auto cp = core::compile(apps::lu(256), Mode::Full, 32);
  ExecOptions opts;
  opts.collect_values = false;
  const RunResult r = simulate(cp, machine::MachineConfig::dash(32), opts);
  const long elements = 256 * 256, lines = elements * 8 / 16;
  EXPECT_EQ(r.trace.passes.at(0).counters.at("sim_state_bytes"),
            9 * elements + 24 * lines + 4 * 1024 + 32 * 80 * 1024);
  EXPECT_EQ(r.trace.passes.at(0).counters.at("sim_state_bytes"), 4001792);
}

TEST(Executor, TraceRecordTimesTheWholeSimulation) {
  // The "simulate" record's wall time spans the call, not only the
  // counter writes at its end. The bound is deliberately loose: the run
  // takes tens of milliseconds, and the record must hold at least half.
  const auto cp = core::compile(apps::stencil5(256, 4), Mode::Full, 32);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = simulate(cp, machine::MachineConfig::dash(32));
  const double measured_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  ASSERT_GE(measured_ms, 10.0) << "the run is too short to time";
  ASSERT_EQ(r.trace.passes.size(), 1u);
  EXPECT_EQ(r.trace.passes[0].name, "simulate");
  EXPECT_GE(r.trace.passes[0].wall_ms, 0.5 * measured_ms);
}

}  // namespace
}  // namespace dct::runtime
