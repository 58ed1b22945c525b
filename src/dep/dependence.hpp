// Data-dependence analysis on affine loop nests.
//
// Computes the set of dependence vectors of a nest (exact distance vectors
// for uniformly generated reference pairs, conservative direction vectors
// otherwise: every canonical direction vector is tested, first by Banerjee
// and GCD, then by Fourier–Motzkin with the subscript and EQ-direction
// equalities substituted) once per ordered statement pair
// (analyze_pairs). parallelize runs it once per nest and keeps the result;
// everything else is a fold of it: the nest summary (summarize) that
// drives the unimodular parallelization preprocessing (paper §3.2 step 1)
// and the pipelining decision (§6.2.4), the loops that carry a dependence
// (carried_levels), and the native backend's per-nest synchronization (the
// pairs mapped through the chosen transform).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace dct::dep {

using ir::Int;

enum class Dir : std::uint8_t { EQ, LT, GT };

/// One dependence vector (source iteration → destination iteration),
/// canonicalized so the first non-EQ component is LT. A component has an
/// exact distance when the reference pair was uniformly generated.
struct DepVector {
  std::vector<Dir> dirs;
  std::vector<std::optional<Int>> dist;  ///< dst - src where exact

  bool loop_independent() const;  ///< all components EQ
  /// Level (0-based) of the first non-EQ component, or -1.
  int carrier_level() const;
  std::string to_string() const;
  bool operator==(const DepVector&) const = default;
};

/// Rectangular hull of a nest's iteration space (conservative bounds used
/// by the Banerjee test; triangular bounds widen to their extreme values).
struct Hull {
  std::vector<Int> lo, hi;
  bool empty = false;
};
Hull iteration_hull(const ir::LoopNest& nest);

/// Dependence vectors between one ordered statement pair of a nest.
/// The vectors keep their statement attribution and include
/// loop-independent (all-EQ) vectors between distinct statements — the
/// information a scheduler needs to decide whether two statements may run
/// on different processors within the same iteration. Self-pairs
/// (src == dst) report carried vectors only: a statement instance executes
/// atomically.
struct PairDeps {
  int src_stmt = 0;  ///< index into nest.stmts
  int dst_stmt = 0;
  std::vector<DepVector> vectors;  ///< deduplicated, never empty
};

/// The one dependence analysis: every ordered statement pair with at least
/// one vector, source statement outermost, then destination statement.
std::vector<PairDeps> analyze_pairs(const ir::LoopNest& nest);

/// Nest-level summary of a pair list (summarize): the union of every
/// pair's carried vectors, loop-independent ones dropped and duplicates
/// removed.
struct NestDeps {
  /// In order of first appearance in the pair list (pairs in its order,
  /// each pair's vectors in theirs).
  std::vector<DepVector> vectors;

  /// A level is pipelinable if every vector it carries has an exact,
  /// constant positive distance at that level (doacross with point-to-point
  /// synchronization is then legal and bounded).
  bool pipelinable(int level) const;
};

NestDeps summarize(const std::vector<PairDeps>& pairs);

/// Per level of a depth-`depth` nest: some vector is carried there.
std::vector<bool> carried_levels(const std::vector<DepVector>& vectors,
                                 int depth);

/// Brute-force oracle for tests: enumerate all iteration pairs of a small
/// nest and report the exact set of carried levels.
std::vector<bool> carried_levels_bruteforce(const ir::LoopNest& nest);

}  // namespace dct::dep
