// The integrated compiler (the paper's primary contribution, end to end):
// parallelization + computation/data decomposition (Section 3) composed
// with data-layout transformation and address-calculation optimization
// (Section 4), targeting a simulated DASH-class machine.
//
// Three configurations mirror the evaluation (Section 6.1):
//   Base          — per-nest parallelization of the outermost parallel
//                   loop, block-distributed; original layouts; a barrier
//                   after every nest.
//   CompDecomp    — the global decomposition algorithm; original layouts.
//   Full          — CompDecomp plus array restructuring (the paper's
//                   "comp decomp + data transform").
//
// A CompiledProgram holds each compile fact once: the transformed nests,
// their transforms and dependence pairs in dec.par, the decisions in
// dec.nests and dec.arrays, and the lowered statements in nests.
#pragma once

#include <vector>

#include "decomp/decomposition.hpp"
#include "ir/program.hpp"
#include "layout/layout.hpp"
#include "support/remark.hpp"

namespace dct::core {

using linalg::Int;

enum class Mode { Base, CompDecomp, Full };
std::string to_string(Mode mode);

/// Explicit per-compilation configuration: everything the pipeline
/// consults besides the program, the mode and the processor count. The
/// library reads no environment variables; a binary that wants an
/// environment knob reads it in its own main() and sets the field here.
/// Nothing is process-global, so concurrent compilations may each hold
/// different options. Only what changes the compiled artifact belongs
/// here: checking it (src/verify) and printing its trace
/// (PipelineTrace::json) are the caller's business.
struct CompileOptions {
  layout::AddrStrategy strategy = layout::AddrStrategy::Optimized;
};

/// The folding function of one virtual processor dimension.
using decomp::CoordFold;

struct CompiledArray {
  layout::Layout layout;      ///< identity unless Full restructures it
  Int base_addr = 0;          ///< byte address of (first copy of) the array
  Int bytes = 0;              ///< allocated bytes per copy
  bool replicated = false;    ///< one copy per cluster
  layout::Partition part;     ///< ownership folding (element -> coords)
};

struct CompiledRef {
  int array = -1;
  bool is_write = false;
  int rank = 0;
  std::vector<Int> coeffs;   ///< rank x depth, row-major
  std::vector<Int> offsets;  ///< rank
  double addr_overhead = 0;  ///< cycles per access (Section 4.3 model)
};

struct CompiledStmt {
  int depth = 0;  ///< executes once per iteration of the outer `depth` loops
  double compute_cycles = 0;
  ir::StmtEval eval;
  std::vector<CompiledRef> reads;
  CompiledRef write;
  /// Owner mapping: pairs of (loop level, fold). Empty = run on proc 0.
  std::vector<std::pair<int, CoordFold>> owner;
};

/// The lowered form of nest j; the transformed nest itself, its
/// transform and its dependences stay in dec.par[j], and its decisions in
/// dec.nests[j].
struct CompiledNest {
  std::vector<CompiledStmt> stmts;  ///< lowered dec.par[j].nest.stmts
  bool barrier_after = true;
};

struct CompiledProgram {
  ir::Program program;  ///< original program (arrays and sizes)
  Mode mode = Mode::Base;
  int procs = 1;
  layout::AddrStrategy strategy = layout::AddrStrategy::Optimized;
  /// The transformed nests with their transforms and dependence pairs
  /// (dec.par) and every decomposition decision (dec.nests, dec.arrays).
  decomp::ProgramDecomposition dec;
  std::vector<int> grid;  ///< physical extent per virtual dimension
  /// Mixed-radix stride of each virtual dimension within its co-activity
  /// clique: a processor's rank is the sum of coordinate * stride.
  std::vector<int> stride;
  std::vector<CompiledArray> arrays;
  std::vector<CompiledNest> nests;  ///< one per dec.par entry
  /// Structured pipeline trace: per-pass wall time, remarks and decision
  /// counters (see support/remark.hpp; callers print it with
  /// PipelineTrace::json).
  support::PipelineTrace trace;

  std::string report() const;  ///< human-readable compilation summary
};

/// Compile `prog` for `procs` processors by running the stages for `mode`
/// in order (core/pass.cpp): parallelize, decompose (decompose-base for
/// Base), fold-select and barrier-elim (not for Base), layout, lower,
/// addr-strategy. The processor count is a compile-time input exactly as
/// in the paper's generated SPMD code (block sizes are ceil(d/P)).
///
/// A statement without an evaluator throws kInvalidArgument (context
/// "pass lower").
///
/// A compile only compiles: it starts no thread, opens no file and runs
/// no oracle. Callers that want the checks run them on the result
/// (verify::validate_compiled, verify::check_native).
///
/// Reentrant: everything the stages consult lives in `opts` (or the
/// arguments), so any number of compilations may run concurrently.
CompiledProgram compile(const ir::Program& prog, Mode mode, int procs,
                        const CompileOptions& opts = {});

/// Compile with an externally supplied decomposition (ablation studies,
/// HPF-directed decompositions): layouts, folds and schedules are derived
/// from `dec` exactly as `compile` does from its own analysis: only the
/// stages from layout onward run. `mode` selects layout restructuring
/// (Full) and the Base owner model. A `dec` whose nest or array count
/// differs from `prog` throws kInvalidArgument; one binding a processor
/// dimension outside dec.num_proc_dims throws kUnsupportedConfig (both
/// with context "pass layout").
CompiledProgram compile_with_decomposition(const ir::Program& prog,
                                           decomp::ProgramDecomposition dec,
                                           Mode mode, int procs,
                                           const CompileOptions& opts = {});

}  // namespace dct::core
