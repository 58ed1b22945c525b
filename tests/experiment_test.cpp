// Tests for the experiment harness (sweeps, figure rendering, Table 1)
// and its fault isolation: injected faults become CellFailure records of
// exactly the faulting cells, unsupported configurations are skipped, and
// an expired deadline fails the cells left — the sweep itself always
// completes.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "apps/apps.hpp"
#include "support/diagnostics.hpp"
#include "support/table.hpp"

namespace dct::core {
namespace {

TEST(Experiment, SweepBasics) {
  SweepOptions opts;
  opts.procs = {1, 2, 4};
  const SweepResult r = run_sweep(apps::figure1(32, 2), opts);
  ASSERT_EQ(r.speedups.size(), 3u);
  for (const auto& series : r.speedups) {
    ASSERT_EQ(series.size(), 3u);
    for (double s : series) EXPECT_GT(s, 0.0);
  }
  EXPECT_GT(r.seq_cycles, 0.0);
  // BASE at P=1 is the reference: speedup exactly 1.
  EXPECT_DOUBLE_EQ(r.speedups[0][0], 1.0);
}

TEST(Experiment, VerificationCatchesNothingOnLegalPrograms) {
  SweepOptions opts;
  opts.procs = {2};
  opts.verify = true;  // throws if any mode changes results
  EXPECT_NO_THROW(run_sweep(apps::stencil5(12, 2), opts));
}

TEST(Experiment, RenderSweepContainsAllSeries) {
  SweepOptions opts;
  opts.procs = {1, 4};
  const SweepResult r = run_sweep(apps::figure1(24, 1), opts);
  const std::string text = render_sweep("demo", r);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("base"), std::string::npos);
  EXPECT_NE(text.find("comp decomp"), std::string::npos);
  EXPECT_NE(text.find("data transform"), std::string::npos);
  EXPECT_NE(text.find("memory behaviour"), std::string::npos);
}

TEST(Experiment, Table1RowFields) {
  const Table1Row row = table1_row("fig1", apps::figure1(48, 2), 8);
  EXPECT_EQ(row.program, "fig1");
  EXPECT_GT(row.base_speedup, 0.0);
  EXPECT_GT(row.full_speedup, 0.0);
  EXPECT_NE(row.decompositions.find("BLOCK"), std::string::npos);
  const std::string table = render_table1({row});
  EXPECT_NE(table.find("fig1"), std::string::npos);
}

TEST(Experiment, Table1RowThrowsOnAFailedCell) {
  // P=100 exceeds the machine model's 64 processors, so every cell of the
  // row's sweep is skipped; the row must not be built from their zeros.
  try {
    table1_row("x", apps::figure1(16, 1), 100);
    FAIL() << "table1_row returned a row from failed cells";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kUnsupportedConfig) << e.full_message();
    ASSERT_FALSE(e.context().empty());
    EXPECT_EQ(e.context().back(), "cell figure1 mode=base procs=100");
  }
}

TEST(Experiment, ChartRendering) {
  const std::string chart = render_speedup_chart(
      "title", {1, 2, 4}, {Series{"s1", {1.0, 2.0, 4.0}}});
  EXPECT_NE(chart.find("title"), std::string::npos);
  EXPECT_NE(chart.find("processors"), std::string::npos);
  EXPECT_NE(chart.find("s1"), std::string::npos);
}

TEST(Experiment, InjectedFaultFailsOnlyThatCell) {
  // Full faults at P=4; that cell alone must fail and render as "-" — no
  // other mode's result stands in for it, and the sweep is not aborted.
  SweepOptions opts;
  opts.procs = {2, 4};
  opts.verify = false;
  opts.fault_hook = [](Mode mode, int procs) {
    if (mode == Mode::Full && procs == 4)
      throw Error("injected pass fault");
  };
  const SweepResult r = run_sweep(apps::figure1(24, 2), opts);

  ASSERT_EQ(r.failures.size(), 1u);
  const CellFailure& f = r.failures[0];
  EXPECT_EQ(f.mode, Mode::Full);
  EXPECT_EQ(f.procs, 4);
  EXPECT_FALSE(f.skipped);
  EXPECT_EQ(f.attempts, 1);
  EXPECT_NE(f.what.find("injected"), std::string::npos);
  EXPECT_NE(f.repro.find("mode=comp decomp + data transform"),
            std::string::npos);

  // Only the faulting cell is empty; every other cell has its own result.
  for (size_t m = 0; m < r.modes.size(); ++m)
    for (size_t p = 0; p < r.procs.size(); ++p)
      EXPECT_EQ(r.speedups[m][p] > 0.0, !(m == 2 && p == 1)) << m << "," << p;
  const std::string text = render_sweep("faulty", r);
  EXPECT_NE(text.find("failed"), std::string::npos);
}

TEST(Experiment, FaultInEveryModeYieldsFailedCellNotAbort) {
  SweepOptions opts;
  opts.procs = {2, 4};
  opts.verify = false;
  opts.fault_hook = [](Mode, int procs) {
    if (procs == 4) throw std::runtime_error("hard fault");  // every mode
  };
  SweepResult r;
  ASSERT_NO_THROW(r = run_sweep(apps::figure1(24, 2), opts));

  // All three P=4 cells failed.
  ASSERT_EQ(r.failures.size(), 3u);
  for (const CellFailure& f : r.failures) {
    EXPECT_EQ(f.procs, 4);
    EXPECT_EQ(f.code, Error::Code::kFault);  // foreign exception wrapped
  }
  // Failed cells render as "-", and the failure table is printed.
  for (size_t m = 0; m < r.modes.size(); ++m) {
    EXPECT_GT(r.speedups[m][0], 0.0);
    EXPECT_EQ(r.speedups[m][1], 0.0);
  }
  const std::string text = render_sweep("faulty", r);
  EXPECT_NE(text.find("cell failures:"), std::string::npos);
  EXPECT_NE(text.find(" - |"), std::string::npos);
}

TEST(Experiment, NonStdExceptionFailsOnlyThatCell) {
  // A throw of something that is not a std::exception must still stop at
  // the cell's crash boundary: the sweep returns.
  SweepOptions opts;
  opts.procs = {1, 2};
  opts.verify = false;
  opts.fault_hook = [](Mode mode, int procs) {
    if (mode == Mode::Full && procs == 2) throw 42;
  };
  SweepResult r;
  ASSERT_NO_THROW(r = run_sweep(apps::figure1(16, 1), opts));
  ASSERT_EQ(r.failures.size(), 1u);
  const CellFailure& f = r.failures[0];
  EXPECT_EQ(f.mode, Mode::Full);
  EXPECT_EQ(f.procs, 2);
  EXPECT_EQ(f.code, Error::Code::kFault);
  EXPECT_EQ(f.what, "unknown exception");
  for (size_t m = 0; m < r.modes.size(); ++m)
    for (size_t p = 0; p < r.procs.size(); ++p)
      EXPECT_EQ(r.speedups[m][p] > 0.0, !(m == 2 && p == 1)) << m << "," << p;
}

TEST(Experiment, RetriesRecoverTransientFaults) {
  std::atomic<int> remaining{2};  // first two attempts anywhere fault
  SweepOptions opts;
  opts.procs = {2};
  opts.verify = false;
  opts.threads = 1;  // deterministic attempt order
  opts.retries = 2;
  opts.fault_hook = [&remaining](Mode, int) {
    if (remaining.fetch_sub(1) > 0) throw Error("transient fault");
  };
  const SweepResult r = run_sweep(apps::figure1(24, 2), opts);
  // The retry budget absorbed the transient faults: no failure records,
  // every cell produced its own result.
  EXPECT_TRUE(r.all_cells_ok());
  for (const auto& series : r.speedups)
    for (double s : series) EXPECT_GT(s, 0.0);
}

TEST(Experiment, UnsupportedProcCountIsSkippedNotDegraded) {
  // P=100 and P=256 exceed the machine model's 64 processors: each cell
  // is recorded as skipped (kUnsupportedConfig) after one attempt.
  SweepOptions opts;
  opts.procs = {2, 100, 256};
  opts.modes = {Mode::Base};
  opts.verify = false;
  const SweepResult r = run_sweep(apps::figure1(16, 1), opts);
  ASSERT_EQ(r.failures.size(), 2u);
  for (size_t i = 0; i < r.failures.size(); ++i) {
    const CellFailure& f = r.failures[i];
    EXPECT_TRUE(f.skipped);
    EXPECT_EQ(f.attempts, 1);
    EXPECT_EQ(f.code, Error::Code::kUnsupportedConfig);
    EXPECT_EQ(f.procs, i == 0 ? 100 : 256);
  }
  EXPECT_GT(r.speedups[0][0], 0.0);
  EXPECT_EQ(r.speedups[0][1], 0.0);
  EXPECT_EQ(r.speedups[0][2], 0.0);
}

TEST(Experiment, DeadlineCancelsRunawaySweep) {
  // A deadline under one clock tick has expired before the first cell
  // starts, so every cell fails at its start without compiling, and the
  // sweep still returns a complete (all-failures) result.
  SweepOptions opts;
  opts.procs = {2, 4, 8};
  opts.verify = false;
  opts.threads = 1;
  opts.deadline_ms = std::numeric_limits<double>::denorm_min();
  int hook_calls = 0;
  opts.fault_hook = [&hook_calls](Mode, int) { ++hook_calls; };
  const SweepResult r = run_sweep(apps::stencil5(64, 4), opts);
  EXPECT_EQ(hook_calls, 0);
  // The sequential baseline plus the 3 x 3 grid.
  ASSERT_EQ(r.failures.size(), 10u);
  for (const CellFailure& f : r.failures) {
    EXPECT_EQ(f.code, Error::Code::kDeadlineExceeded) << f.to_string();
    EXPECT_EQ(f.what, "sweep budget exhausted before the cell started");
    EXPECT_EQ(f.attempts, 0) << f.to_string();
  }
  EXPECT_EQ(r.analysis, nullptr);
  // Nothing useful was measured, but nothing crashed either.
  const std::string text = render_sweep("deadline", r);
  EXPECT_NE(text.find("cell failures:"), std::string::npos);
}

TEST(Experiment, CellFailureToStringIsInformative) {
  CellFailure f;
  f.mode = Mode::Full;
  f.procs = 8;
  f.code = Error::Code::kFault;
  f.stage = "pass lower";
  f.what = "boom";
  f.attempts = 3;
  const std::string s = f.to_string();
  EXPECT_NE(s.find("P=8"), std::string::npos);
  EXPECT_NE(s.find("fault"), std::string::npos);
  EXPECT_NE(s.find("pass lower"), std::string::npos);
  EXPECT_NE(s.find("boom"), std::string::npos);
}

TEST(Experiment, TableAlignment) {
  Table t({"a", "bbb"});
  t.add_row({"1", "2"});
  t.add_row({"100", "20000"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| 100 | 20000 |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace dct::core
