// Validation oracle layer: runtime self-checks of the invariants the
// paper's correctness argument rests on.
//
// Four oracles, each independent and sampling-based so they stay cheap
// enough to run after every compile of a test sweep. They check a
// compile's output; the compile itself never runs them:
//
//  * equation-1: the no-communication condition D_x(F_jx(i)) = G_j(i)
//    (paper Equation 1). For every communication-free nest, sampled
//    iterations must map each reference's data coordinates onto the
//    iteration's computation coordinates on every DOALL-bound virtual
//    dimension. (Pipelined dimensions move data by design and boundary
//    traffic is excluded by sampling only comm-free + boundary-free
//    nests, so equality there is exact.)
//
//  * layout-bijectivity: strip-mine + permute layouts must be injective
//    into [0, size) — every original element round-trips to a distinct
//    address, and the closed-form dim_functions() (the basis of the §4.3
//    address walkers) must agree with the step-interpreted map_index().
//
//  * fold-coverage: every CoordFold the lowered schedule binds must be
//    total (any Int folds into [0, procs)), step-consistent (consecutive
//    domain values move the owner exactly as BLOCK/CYCLIC/BLOCK-CYCLIC
//    semantics dictate), and cover the analytically expected number of
//    owners over the nest's iteration hull; array Partition folds must be
//    in-range over the array's extent.
//
//  * differential: the fast engine (incremental walkers + directory fast
//    path), the interpreter, and the sequential reference must produce
//    bit-identical results — values, cycles, statement counts and memory
//    statistics. It is the one engine comparator: the tests and the
//    fuzzer call it too.
//
// validate_compiled() runs the three static oracles; check_differential()
// and check_native() execute the program. Callers (the tests, the fuzzer,
// dctd's cache spot-check) run whichever they need on a CompiledProgram.
// Sample counts and seeds are fixed in oracle.cpp, so every run of an
// oracle on the same subject checks the same points.
#pragma once

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/machine.hpp"

namespace dct::verify {

using linalg::Int;

/// Outcome of one oracle over one compiled program.
struct OracleReport {
  std::string oracle;
  long subjects = 0;  ///< nests / arrays / folds inspected
  long checks = 0;    ///< individual assertions evaluated
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

OracleReport check_equation1(const core::CompiledProgram& cp);
OracleReport check_layout_bijectivity(const core::CompiledProgram& cp);
OracleReport check_fold_coverage(const core::CompiledProgram& cp);
/// Runs the program under both engines and demands they agree on every
/// observable (only the fast-path counters may differ) and that their
/// values equal `reference`, which is runtime::run_reference(cp.program())
/// taken by the caller so one reference serves many compilations;
/// requires mcfg.procs == cp.procs.
OracleReport check_differential(
    const core::CompiledProgram& cp, const machine::MachineConfig& mcfg,
    const std::vector<std::vector<double>>& reference);
/// Runs the native threaded backend at cp.procs hardware threads and
/// demands bit-identical array results against the sequential reference.
OracleReport check_native(const core::CompiledProgram& cp);

// Low-level entry points, exposed so tests can aim an oracle at a
// deliberately broken subject and prove it has teeth.
void check_layout_against(const ir::ArrayDecl& decl,
                          const layout::Layout& layout, OracleReport& rep);
void check_one_fold(const core::CoordFold& fold, Int lo, Int hi,
                    const std::string& subject, OracleReport& rep);

struct ValidationReport {
  std::vector<OracleReport> oracles;

  bool ok() const;
  long total_checks() const;
  std::string to_string() const;
  /// Throw Error(kOracleViolation) listing every violation when !ok().
  void raise_if_violated(const std::string& unit) const;
};

/// The three static oracles (no execution).
ValidationReport validate_compiled(const core::CompiledProgram& cp);

}  // namespace dct::verify
