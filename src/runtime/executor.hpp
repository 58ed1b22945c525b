// SPMD execution engine over the machine simulator.
//
// Statement instances execute on their owner processor (owner-computes,
// per-statement as produced by the decomposition). The engine walks the
// iteration space in program order, keeps a clock per processor, and
// enforces cross-processor dataflow: a read of a value written by another
// processor waits for the writer's completion time (plus a hand-off cost)
// — pipelined doacross schedules and the LU pivot broadcast fall out of
// this rule without special cases. Barriers separate nests unless the
// decomposition proved them redundant. With ExecOptions::collect_values
// (the default) every statement is also evaluated numerically, so the run
// that measures performance also checks that the transformed program
// computes bit-identical results. Without it the simulator keeps no values
// and calls no evaluator; cycles and every statistic are the same.
//
// The walk is the shared owner-computes kernel (runtime/traversal.hpp)
// under a simulator policy: dataflow clocks, machine accesses and
// counters. ExecOptions::fast_exec picks one of two configurations with
// bit-identical clocks, statistics and values:
//
//  * fast (default): incremental address walkers (runtime/walker.hpp, the
//    paper's Section 4.3 strength reduction applied to the simulator),
//    owner folds hoisted per segment, the owner's clock kept in flight
//    until the owner changes, and the machine's directory fast path;
//  * interpreter: Layout::linearize per access, the owner folded and its
//    clock loaded and stored per instance, the full directory protocol —
//    so the fast-vs-interpreter differential checks every optimization.
#pragma once

#include <span>
#include <vector>

#include "core/compiler.hpp"
#include "machine/machine.hpp"
#include "support/cancel.hpp"
#include "support/remark.hpp"

namespace dct::runtime {

using linalg::Int;

/// Simulator-throughput counters of one run (how the engine produced its
/// addresses and accesses, not what the simulated machine did).
struct ExecCounters {
  long long walker_fast = 0;         ///< addresses produced incrementally
  long long linearize_fallback = 0;  ///< addresses via Layout::linearize
  long long dir_fast = 0;            ///< machine accesses skipping the directory
  long long owner_hoisted = 0;       ///< statement executions with the owner
                                     ///< computed outside the inner loop
  long long walker_splits = 0;       ///< innermost runs cut by a walker's
                                     ///< strip boundary before their
                                     ///< segment's end
  long long run_instances = 0;       ///< statement instances executed by
                                     ///< run loops (native backend only)
  long long split_instances = 0;     ///< of which in a split nest: one run
                                     ///< loop per independent statement

  bool operator==(const ExecCounters&) const = default;
};

struct RunResult {
  double cycles = 0;  ///< parallel completion time (max processor clock)
  std::vector<double> proc_cycles;
  machine::ProcStats mem;  ///< aggregated over processors
  double barrier_cycles = 0;
  double wait_cycles = 0;  ///< cross-processor dataflow stalls
  long long statements = 0;
  ExecCounters counters;
  /// One-pass "simulate" trace record carrying the sim_* counters
  /// (sim_state_bytes: host bytes of the per-element state, directory,
  /// page homes and cache slots) and the wall time of the whole call;
  /// core::run_sweep merges it into the sweep's pipeline trace.
  support::PipelineTrace trace;
  /// Final contents of every array, indexed by the ORIGINAL element order
  /// (layout-independent, for bit-exact comparison across modes).
  std::vector<std::vector<double>> values;
};

struct ExecOptions {
  /// Evaluate statements and fill RunResult::values. Off, the simulator
  /// keeps no value per element and calls no evaluator; nothing else in
  /// the RunResult changes.
  bool collect_values = true;
  std::uint64_t init_seed = 42;
  /// true = fast configuration (walkers, owner hoisting, clock caching,
  /// machine fast path); false = interpreter.
  bool fast_exec = true;
  /// Cooperative cancellation: the engines poll this token at segment
  /// granularity and throw Error(kCancelled / kDeadlineExceeded) when it
  /// expires. A default (inert) token costs one branch per segment.
  support::CancelToken cancel;
};

/// Simulate the compiled program on the machine. `mcfg.procs` must match
/// the compiled processor count. Throws Error(kUnsupportedConfig) above
/// machine::kMaxProcs processors.
RunResult simulate(const core::CompiledProgram& cp,
                   const machine::MachineConfig& mcfg,
                   const ExecOptions& opts = {});

/// Sequential reference execution (no machine model): returns the final
/// array contents in original element order. A statement without an
/// evaluator throws Error(kInvalidArgument).
std::vector<std::vector<double>> run_reference(const ir::Program& prog,
                                               std::uint64_t init_seed = 42);

/// Deterministic initial value of one array element, identical across
/// layouts, modes and engines (keyed by the element's ORIGINAL linear
/// index). Shared by the simulator, the reference and the native backend
/// so their results are bit-comparable.
double init_value(std::uint64_t seed, int array, Int orig_linear);

/// Set up array `a` in its compiled layout: fn(idx, lin, v) for every
/// element, with lin = layout.linearize(idx) and v its initial value.
template <typename Fn>
void for_each_initial(const core::CompiledProgram& cp, int a,
                      std::uint64_t seed, Fn&& fn) {
  const layout::Layout& lay = cp.arrays[static_cast<size_t>(a)].layout;
  ir::for_each_element(cp.program().arrays[static_cast<size_t>(a)],
                       [&](std::span<const Int> idx, Int linear) {
                         fn(idx, lay.linearize(idx),
                            init_value(seed, a, linear));
                       });
}

/// Every array's contents in ORIGINAL element order, read from storage in
/// the compiled layouts through `at(array, lin)`.
template <typename At>
std::vector<std::vector<double>> original_order(const core::CompiledProgram& cp,
                                                At&& at) {
  std::vector<std::vector<double>> values(cp.program().arrays.size());
  for (size_t a = 0; a < values.size(); ++a) {
    const ir::ArrayDecl& decl = cp.program().arrays[a];
    values[a].resize(static_cast<size_t>(decl.elem_count()));
    ir::for_each_element(decl, [&](std::span<const Int> idx, Int linear) {
      values[a][static_cast<size_t>(linear)] =
          at(static_cast<int>(a), cp.arrays[a].layout.linearize(idx));
    });
  }
  return values;
}

}  // namespace dct::runtime
