// Native threaded SPMD execution of a compiled program.
//
// Where runtime::simulate models a DASH-class machine, this backend runs
// the transformed program for real: one SPMD thread per compiled
// processor, arrays allocated in their *transformed* linear layouts. The
// calling thread is SPMD thread 0; threads 1..T-1 are the first T-1
// workers of a team the calling thread keeps across runs (a worker is
// started by the first run that needs it and joined when the calling
// thread exits), so a run at no more threads than an earlier one starts
// no thread, and a T = 1 run uses none but the caller's. Each
// thread runs the same owner-computes traversal kernel as the simulator
// (runtime/traversal.hpp: walker addressing, hoisted owners, the gated-
// statement rule) under a native policy: plain loads and stores, the
// `q == myid` owner filter or a restricted per-thread slice, and the
// synchronization the native::plan classification derived from the
// nest's dependences. Sequential nests run the kernel unfiltered on
// thread 0. Owned innermost stretches run as compiled run loops: one per
// statement when a nest's statements are independent (no array written
// by one is read or written by another), else one loop over the
// positions that runs each statement in program order.
//
// Synchronization uses one primitive: per-thread, cache-line-padded,
// monotonic epoch counters. Every thread numbers the same sequence of
// sync events, so an epoch names one program point on all threads. A post
// is a seq_cst store of the current epoch to the thread's own counter; a
// wait spins on an acquire load of another thread's counter for a bounded
// time (up to 200 us, yielding now and then), then sleeps in
// std::atomic::wait; a barrier is a post followed by a wait on every
// counter. The team's start and finish handshakes use the same wait.
// The plan's three sync shapes map onto it as follows: a barrier after
// each iteration of the barrier level; after each gated firing, a post by
// the firing's owner that every other thread waits on; and a doacross,
// where each thread waits, before each innermost segment, for the previous
// block's owner to post that iteration, and posts its own after it. A
// thread that throws posts a terminal epoch that satisfies every wait on
// it, so run_native rethrows instead of hanging.
//
// The backend is an execution tier, not a model: its wall-clock time is
// the hardware's answer to whether the Section 4 layout transformations
// pay off outside the simulator's cost model, and its array results are
// bit-identical to runtime::run_reference by construction (same
// initialization, same owner-computes schedule, dependence-ordered
// evaluation).
//
// Configuration is explicit: callers set the thread count through
// NativeOptions::threads, and verify::check_native runs this backend as a
// differential oracle on a compiled program. Nothing here reads the
// environment.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compiler.hpp"
#include "native/plan.hpp"

namespace dct::native {

struct NativeOptions {
  /// Must equal the compiled processor count: the decomposition's block
  /// sizes and folds are derived from it at compile time.
  int threads = 1;
  std::uint64_t init_seed = 42;
  bool collect_values = true;
};

struct NativeResult {
  /// Final contents of every array in ORIGINAL element order (same
  /// convention as RunResult::values / run_reference).
  std::vector<std::vector<double>> values;
  double seconds = 0;        ///< wall-clock of the threaded region
  long long statements = 0;  ///< statement instances executed (all threads)
  long long barriers = 0;    ///< all-thread barriers per thread
  long long waits = 0;       ///< point-to-point waits, summed over threads
  /// Epoch waits (barrier arrivals and point-to-point waits) that outlasted
  /// the spin and ended asleep in std::atomic::wait, summed over threads.
  long long blocked_waits = 0;
  /// Innermost runs cut by a walker's strip boundary before their
  /// segment's end, summed over threads (runtime::ExecCounters).
  long long walker_splits = 0;
  /// Statement instances executed through compiled run loops
  /// (ir::StmtEval::run) instead of one at a time, summed over threads.
  long long run_instances = 0;
  /// Of those, instances of a nest whose full-depth statements are
  /// independent and run one run loop each instead of interleaved.
  long long split_instances = 0;
};

/// Execute the compiled program on `opts.threads` threads, the caller and
/// its team, using a precomputed plan. Throws Error(kInvalidArgument) when
/// the thread count does not match the compiled processor count.
NativeResult run_native(const core::CompiledProgram& cp,
                        const ProgramPlan& plan, const NativeOptions& opts);

/// Convenience overload: classifies with plan_program first.
NativeResult run_native(const core::CompiledProgram& cp,
                        const NativeOptions& opts);

}  // namespace dct::native
