// The benchmark applications of the paper's evaluation (Section 6),
// expressed in the affine kernel IR. Each builder returns a Program whose
// statements carry numeric evaluators, so the same IR serves dependence
// analysis, decomposition, layout transformation, performance simulation
// and bit-exact semantic verification.
//
// Sizes are parameters; the paper's dataset sizes are reached with
// `paper --scale N` (see bench/paper.cpp).
#pragma once

#include "ir/program.hpp"

namespace dct::apps {

using linalg::Int;

/// The paper's Figure 1 running example: a fully parallel update loop
/// followed by a column smoother, under an NSTEPS time loop.
ir::Program figure1(Int n, int steps = 2);

/// Vpenta (nasa7 / SPEC92): simultaneous inversion of three pentadiagonal
/// matrices; 2-D work arrays plus a 3-D right-hand-side array whose planes
/// are the memory-layout problem the paper highlights.
ir::Program vpenta(Int n);

/// LU decomposition without pivoting (paper Figure 5) — a triangular
/// nest whose cyclic column distribution exposes cache-conflict pathology.
ir::Program lu(Int n);

/// Five-point stencil (paper Figure 7) with explicit copy-back, the
/// (BLOCK, BLOCK) two-dimensional decomposition example.
ir::Program stencil5(Int n, int steps = 2);

/// ADI integration (paper Figure 9): column sweep (doall) then row sweep
/// (doall/pipeline under a static column decomposition).
ir::Program adi(Int n, int steps = 2);

/// Erlebacher (ICASE): three-dimensional partial derivatives plus
/// tridiagonal solves with wavefronts in Z; per-array decompositions.
ir::Program erlebacher(Int n, int steps = 1);

/// Swm256 (SPEC92): shallow-water equations, highly data-parallel
/// two-dimensional stencils; (BLOCK, BLOCK) decomposition.
ir::Program swm256(Int n, int steps = 2);

/// Tomcatv (SPEC92): mesh generation mixing fully parallel nests with
/// row-dependent nests; a single consistent row-block decomposition.
ir::Program tomcatv(Int n, int steps = 2);

}  // namespace dct::apps
