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
// A compile is two halves. The Analysis is per program: parallelization,
// the decomposition, fold selection and barrier elimination map loops and
// arrays onto *virtual* processors, so they read neither the processor
// count nor (beyond Base versus the global algorithm) the mode. The tail
// (layout, lower, addr-strategy) folds that onto P physical processors.
// Any number of compiles may share one immutable Analysis.
//
// A CompiledProgram holds each compile fact once: the transformed nests,
// their statements, transforms and dependence pairs in dec().par, the
// decisions in dec().nests and dec().arrays (all in the shared Analysis),
// and what lowering decides per statement (owners and address overheads)
// in nests.
#pragma once

#include <memory>
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

/// Array a's storage; dec().arrays[a].replicated says whether it has one
/// copy per cluster.
struct CompiledArray {
  layout::Layout layout;      ///< identity unless Full restructures it
  Int base_addr = 0;          ///< byte address of (first copy of) the array
  Int bytes = 0;              ///< allocated bytes per copy
  layout::Partition part;     ///< ownership folding (element -> coords)
};

/// What lowering decides for statement s of nest j; the statement itself
/// (its references, depth, compute cost and evaluator) is
/// dec().par[j].nest.stmts[s].
struct CompiledStmt {
  /// Owner mapping: pairs of (loop level, fold). Empty = run on proc 0.
  std::vector<std::pair<int, CoordFold>> owner;
  /// Cycles per access of each reference (Section 4.3 model): the reads
  /// in order, then the write.
  std::vector<double> addr_overhead;
};

/// The lowered form of nest j; the transformed nest itself, its
/// transform and its dependences stay in dec().par[j], and its decisions
/// (barrier_after included) in dec().nests[j].
struct CompiledNest {
  std::vector<CompiledStmt> stmts;  ///< one per dec().par[j].nest.stmts
};

/// The per-program half of a compile (see the top of this file): pure
/// data, immutable once built and shared as shared_ptr<const Analysis>.
struct Analysis {
  ir::Program program;  ///< original program (arrays and sizes)
  /// The decompositions CompDecomp/Full (parallelize, decompose,
  /// fold-select, barrier-elim) and Base (parallelize, decompose-base)
  /// compile from: transformed nests, dependence pairs and decisions.
  std::shared_ptr<const decomp::ProgramDecomposition> global, base;

  /// The decomposition `mode` compiles from. Throws kInvalidArgument when
  /// this analysis was built without it.
  const decomp::ProgramDecomposition& dec(Mode mode) const;
};

struct CompiledProgram {
  /// The analysis this was compiled from, shared with every other
  /// compile of the program; program() and dec() read it.
  std::shared_ptr<const Analysis> analysis;
  Mode mode = Mode::Base;
  int procs = 1;
  layout::AddrStrategy strategy = layout::AddrStrategy::Optimized;
  std::vector<int> grid;  ///< physical extent per virtual dimension
  /// Mixed-radix stride of each virtual dimension within its co-activity
  /// clique: a processor's rank is the sum of coordinate * stride.
  std::vector<int> stride;
  std::vector<CompiledArray> arrays;
  std::vector<CompiledNest> nests;  ///< one per dec.par entry
  /// Structured pipeline trace of the stages this compile ran (see the
  /// compile overloads and support/remark.hpp; callers print it with
  /// PipelineTrace::json).
  support::PipelineTrace trace;

  /// The original program (arrays and sizes).
  const ir::Program& program() const { return analysis->program; }
  /// The decomposition this compile folded.
  const decomp::ProgramDecomposition& dec() const {
    return analysis->dec(mode);
  }
  std::string report() const;  ///< human-readable compilation summary
};

/// Run the per-program stages, both halves: parallelize once, then
/// decompose-base, and decompose, fold-select and barrier-elim. When the
/// analysis succeeds and `trace` is given, the stages' records are
/// appended to it in that order. A stage that throws propagates with
/// context "pass <stage>"; no analysis is returned and `trace` is left
/// as it was. Pure and reentrant, like compile.
std::shared_ptr<const Analysis> analyze(
    const ir::Program& prog, support::PipelineTrace* trace = nullptr);

/// Compile `prog` for `procs` processors by running the stages for `mode`
/// in order (core/pass.cpp): parallelize, decompose (decompose-base for
/// Base), fold-select and barrier-elim (not for Base), layout, lower,
/// addr-strategy. The processor count is a compile-time input exactly as
/// in the paper's generated SPMD code (block sizes are ceil(d/P)). The
/// result's analysis holds only the decomposition `mode` reads, and its
/// trace a record of every stage run.
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

/// The tail of a compile (layout, lower, addr-strategy) on a shared
/// analysis. Its artifacts are byte-identical to compile(analysis->program,
/// mode, procs, opts)'s; its trace holds only the tail's three records
/// (the analysis's went to the caller of analyze).
CompiledProgram compile(std::shared_ptr<const Analysis> analysis, Mode mode,
                        int procs, const CompileOptions& opts = {});

/// Compile with an externally supplied decomposition (ablation studies,
/// HPF-directed decompositions): layouts, folds and schedules are derived
/// from `dec` exactly as `compile` does from its own analysis: only the
/// stages from layout onward run, on an analysis whose one decomposition
/// serves every mode. `mode` selects layout restructuring (Full) and the
/// Base owner model. A `dec` whose nest or array count
/// differs from `prog` throws kInvalidArgument; one binding a processor
/// dimension outside dec.num_proc_dims throws kUnsupportedConfig (both
/// with context "pass layout").
CompiledProgram compile_with_decomposition(const ir::Program& prog,
                                           decomp::ProgramDecomposition dec,
                                           Mode mode, int procs,
                                           const CompileOptions& opts = {});

}  // namespace dct::core
