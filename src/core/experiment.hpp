// Experiment harness shared by bench/paper and perfbench: runs a program
// under the three compiler configurations of the paper's evaluation
// across a processor sweep and renders paper-style speedup figures and
// summary tables.
//
// The sweep is fault-isolated: every (mode, P) cell runs inside a crash
// boundary with a configurable retry budget and a wall-clock deadline
// (SweepOptions::deadline_ms). A cell that keeps failing becomes a
// structured CellFailure record — it never takes the sweep down — and is
// rendered as "-": no other mode's result ever stands in for it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/machine.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"

namespace dct::core {

struct SweepOptions {
  std::vector<int> procs = {1, 2, 4, 8, 16, 24, 32};
  std::vector<Mode> modes = {Mode::Base, Mode::CompDecomp, Mode::Full};
  layout::AddrStrategy strategy = layout::AddrStrategy::Optimized;
  bool verify = true;  ///< check bit-exact semantics on the smallest run
  /// Worker threads for the sweep points: 0 = support::default_threads()
  /// (hardware_concurrency), 1 = serial. Results are byte-identical
  /// regardless of the thread count.
  int threads = 0;
  /// Extra attempts per cell after a transient failure (unsupported
  /// configs, oracle violations and deadline trips are never retried).
  int retries = 0;
  /// Wall-clock budget for the whole sweep in milliseconds; 0 disables the
  /// deadline. On expiry, running simulations stop at their next deadline
  /// poll, and cells that start later fail with kDeadlineExceeded without
  /// compiling.
  double deadline_ms = 0;
  /// Test seam: called at the start of every cell attempt (before the
  /// compile). A throw is handled exactly like a pass or simulator fault
  /// — fault-injection tests use this to exercise the crash boundary.
  std::function<void(Mode, int)> fault_hook;
};

/// Structured record of one sweep cell that did not complete normally.
struct CellFailure {
  Mode mode = Mode::Base;  ///< requested mode of the cell
  int procs = 0;
  Error::Code code = Error::Code::kGeneric;
  std::string stage;  ///< context chain of the error, innermost first
  std::string what;   ///< message of the (last) failure
  int attempts = 0;      ///< total attempts
  bool skipped = false;  ///< unsupported configuration, not a fault
  std::string repro;  ///< how to reproduce, e.g. "lu mode=full procs=8"

  std::string to_string() const;
};

struct SweepResult {
  std::vector<int> procs;
  double seq_cycles = 0;  ///< best sequential version (BASE on 1 processor)
  /// speedups[m][p] for mode m over the processor sweep. A cell that
  /// failed holds 0 and is rendered as "-".
  std::vector<std::vector<double>> speedups;
  std::vector<Mode> modes;
  /// The largest-P run per mode (its `mem` is the memory statistics
  /// render_sweep prints).
  std::vector<runtime::RunResult> raw_at_max;
  /// The analysis every cell compiled from; null when it failed.
  std::shared_ptr<const Analysis> analysis;
  /// Pipeline traces of the sweep, aggregated (per-pass wall time, runs
  /// and decision counters summed): the one analysis's stages once, then
  /// every cell's tail and simulation.
  support::PipelineTrace trace;
  /// Every cell that faulted, was skipped or ran out of time.
  std::vector<CellFailure> failures;

  /// True when every cell produced its result (skipped cells count as
  /// failures here — callers that tolerate them should inspect `failures`
  /// directly).
  bool all_cells_ok() const { return failures.empty(); }
};

/// Run the full sweep. The paper's speedups are "calculated over the best
/// sequential version": we use the BASE compilation on one processor.
/// Every (mode, P) point is a compile+simulate from one shared analysis
/// of `prog` (core::analyze), so they run on a thread pool (opts.threads)
/// with deterministic result ordering.
/// The sweep always returns: cell faults land in SweepResult::failures.
SweepResult run_sweep(const ir::Program& prog, const SweepOptions& opts = {});

/// The failure table render_sweep appends when a sweep had failures.
std::string render_failures(const std::vector<CellFailure>& failures);

/// Render the sweep as a paper-style figure (ASCII chart) plus the exact
/// numbers in a table.
std::string render_sweep(const std::string& title, const SweepResult& r);

/// One row of the paper's Table 1.
struct Table1Row {
  std::string program;
  double base_speedup = 0;
  double full_speedup = 0;
  bool comp_decomp_critical = false;
  bool data_transform_critical = false;
  std::string decompositions;
};

/// Sweeps `prog` at `procs` in every mode. Throws the first cell failure
/// of that sweep (failed or skipped) as a dct::Error with its code, its
/// stage and then the cell's repro as context, rather than returning a
/// row built from a 0.
Table1Row table1_row(const std::string& name, const ir::Program& prog,
                     int procs = 32);
std::string render_table1(const std::vector<Table1Row>& rows);

}  // namespace dct::core
