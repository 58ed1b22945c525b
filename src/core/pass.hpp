// The compiler as an explicit pass pipeline.
//
// Each stage of the paper's flow — parallelization (§3.2), global
// computation/data decomposition (§3), folding-function selection,
// barrier elimination [Tseng 95], layout derivation (§4.2), schedule
// lowering, address-strategy costing (§4.3) — is a Pass with a uniform
// interface over a CompilationState. A Mode is a pass list, not a set of
// branches: build_pipeline(Mode) returns the registered sequence, and the
// PassManager runs it while recording per-pass wall time, structured
// remarks and decision counters into a support::RemarkEngine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "support/remark.hpp"

namespace dct::core {

/// Mutable state threaded through the pipeline. `cp` accretes fields pass
/// by pass until it is the finished CompiledProgram.
struct CompilationState {
  CompiledProgram cp;
  /// Mixed-radix strides of the virtual grid within co-activity cliques
  /// (computed by the layout pass, consumed by schedule lowering).
  std::vector<int> stride;
};

/// One pipeline stage.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(CompilationState& st, support::RemarkSink& rs) = 0;
};

/// An ordered pass list with instrumentation.
class PassManager {
 public:
  PassManager& add(std::unique_ptr<Pass> pass);
  std::vector<std::string> pass_names() const;

  /// Run every pass in order; each gets its own timed record (wall time,
  /// remarks, counters) in `eng`.
  void run(CompilationState& st, support::RemarkEngine& eng) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The pass list compile() runs for a mode:
///   Base:       parallelize, decompose-base, layout(keep), lower(span-block),
///               addr-strategy
///   CompDecomp: parallelize, decompose, fold-select, barrier-elim,
///               layout(keep), lower, addr-strategy
///   Full:       as CompDecomp with layout(restructure)
/// With opts.validate every pipeline additionally ends in the `verify`
/// pass (the static oracles of src/verify/oracle.hpp). Everything a pass
/// consults is captured from `opts`, so pipelines for concurrent
/// compilations are independent.
PassManager build_pipeline(Mode mode, const CompileOptions& opts = {});

/// The lowering tail used when the decomposition is supplied by the caller
/// (ablation studies, HPF-directed decompositions): layout onward. `mode`
/// selects layout restructuring (Full) and the Base owner model.
PassManager build_lowering_pipeline(Mode mode,
                                    const CompileOptions& opts = {});

// Individual pass factories — tests and tools compose custom pipelines.
std::unique_ptr<Pass> make_parallelize_pass();
std::unique_ptr<Pass> make_decompose_pass(bool base,
                                          const decomp::DecompOptions& opts = {});
std::unique_ptr<Pass> make_fold_select_pass(
    const decomp::DecompOptions& opts = {});
std::unique_ptr<Pass> make_barrier_elim_pass();
std::unique_ptr<Pass> make_layout_pass(bool restructure);
/// `base_block_owner`: BASE's per-nest owner model (block-distribute the
/// single marked loop by its iteration-hull span) instead of the
/// partition-derived folds.
std::unique_ptr<Pass> make_lower_pass(bool base_block_owner);
std::unique_ptr<Pass> make_addr_strategy_pass();
/// Runs the static validation oracles (src/verify/) over the compiled
/// program and throws Error(kOracleViolation) on any violation;
/// `native_check` adds the native threaded-backend differential.
/// build_pipeline appends it automatically when opts.validate is set.
std::unique_ptr<Pass> make_verify_pass(bool native_check);

}  // namespace dct::core
