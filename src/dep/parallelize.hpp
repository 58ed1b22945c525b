// Unimodular parallelization preprocessing (paper §3.2, first step):
// "analyze each loop nest individually and restructure the loop via
// unimodular transformations to expose the largest number of outermost
// parallelizable loops" — the Wolf–Lam style search over loop
// permutations, with a skewing fallback for wavefront nests.
#pragma once

#include "dep/dependence.hpp"
#include "ir/program.hpp"
#include "support/remark.hpp"

namespace dct::dep {

/// One nest after the preprocessing: the one record of the transformed
/// nest, its transform and its dependences. Every later stage (the
/// decomposition, lowering, the native plan, codegen and the oracles)
/// reads the nest from here; nothing keeps a copy.
struct ParallelizedNest {
  ir::LoopNest nest;            ///< the transformed nest
  linalg::IntMatrix transform;  ///< j = transform * i
  /// analyze_pairs of the original nest, each vector mapped through
  /// `transform`: the statement-attributed dependences of `nest`, which
  /// the decomposition (summarize) and the native backend's plan fold
  /// without analyzing again.
  std::vector<PairDeps> pairs;
  /// Per level: carries no dependence (DOALL), the complement of
  /// carried_levels over `pairs`' vectors.
  std::vector<bool> parallel;
};

/// Search permutations (and, when no permutation exposes parallelism and
/// all dependences have exact distances, simple skews) for the legal
/// transform maximizing outermost parallelism; ties prefer total
/// parallelism, then stride-1 (column-major) innermost access, then the
/// identity. When `rs` is given, the search reports what it tried and what
/// it chose as structured remarks.
ParallelizedNest parallelize(const ir::LoopNest& nest,
                             support::RemarkSink* rs = nullptr);

}  // namespace dct::dep
