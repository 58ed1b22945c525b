// Seeded random affine-program generator and differential fuzzer.
//
// generate_program(seed) builds a small random — but always legal —
// affine program: rectangular nests (depth 1-3, occasionally imperfect),
// 1-3 arrays of rank 1-3, statements whose references are one-hot affine
// maps with in-bounds offsets, and deterministic numeric evaluators. Every
// generated program is a valid input to the full compiler pipeline.
//
// check_program compiles the program in all three modes, executes it at
// several processor counts under BOTH executor engines and on the native
// threaded backend, and compares every run bit-for-bit against the
// sequential reference (plus the static oracles of verify/oracle.hpp). It
// does the same for FULL with the decomposition refolded to CYCLIC and to
// BLOCK-CYCLIC, so every slice kind of the traversal kernel gets walked.
// Any disagreement — or any crash — is a finding.
//
// When a seed fails, shrink_program greedily drops nests, statements,
// reads and time steps while the failure reproduces, so the reported
// program is a minimal repro. The seed alone replays it:
// generate_program(seed) is deterministic across platforms (splitmix64).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "decomp/decomposition.hpp"
#include "ir/program.hpp"

namespace dct::verify {

/// Deterministic: the same seed always yields the same program.
ir::Program generate_program(std::uint64_t seed);

/// `dec` with every distributed array dimension refolded to `kind`
/// (blocks of 3 for BLOCK-CYCLIC).
decomp::ProgramDecomposition refold(decomp::ProgramDecomposition dec,
                                    decomp::DistKind kind);

/// What the differential checks walked (coverage, not findings).
struct CheckCoverage {
  /// Innermost restricted native slices with a walker crossing strips,
  /// by fold kind: BLOCK, CYCLIC, BLOCK-CYCLIC.
  long strip_slices[3] = {};
  /// Refolded decompositions compile_with_decomposition rejected.
  long refold_skips = 0;
  /// Native instances run one run loop per independent statement
  /// (NativeResult::split_instances).
  long long split_instances = 0;
};

/// Differential check: all 3 modes x procs {1, 3, 4}, and FULL refolded
/// to CYCLIC and BLOCK-CYCLIC x procs {3, 4}, each on both engines and the
/// native backend vs the sequential reference, plus the static validation
/// oracles on the unrefolded compilations and, on every compilation, the
/// stored dependence pairs against a fresh analysis of each compiled
/// nest. Returns a description of the first disagreement (or crash),
/// nullopt on full agreement. Adds to `cov` when given.
std::optional<std::string> check_program(const ir::Program& prog,
                                         CheckCoverage* cov = nullptr);

/// Greedy structural shrink: repeatedly drop nests, statements, reads and
/// time steps while `failing` still returns a finding for the reduced
/// program. Returns the smallest failing program found.
ir::Program shrink_program(
    const ir::Program& prog,
    const std::function<std::optional<std::string>(const ir::Program&)>&
        failing = [](const ir::Program& p) { return check_program(p); });

/// A divergence found by the fuzzer, already shrunk to a minimal repro.
struct Divergence {
  std::uint64_t seed = 0;
  std::string detail;   ///< disagreement of the SHRUNK program
  ir::Program program;  ///< minimal failing program
};

/// Generate, check, and (on failure) shrink one seed; the check of the
/// generated program adds to `cov` when given.
std::optional<Divergence> fuzz_one(std::uint64_t seed,
                                   CheckCoverage* cov = nullptr);

}  // namespace dct::verify
