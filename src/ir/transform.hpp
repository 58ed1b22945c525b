// Unimodular loop transformations (Wolf–Lam loop transformation theory).
//
// A unimodular matrix U maps the iteration vector i of a nest to a new
// vector j = U * i. Array references transform as F' = F * U^{-1}; loop
// bounds are regenerated with Fourier–Motzkin elimination on the affine
// inequality system describing the iteration polytope, held as flat rows
// (the one system format, shared with the dependence tests).
#pragma once

#include <span>
#include <vector>

#include "ir/program.hpp"

namespace dct::ir {

/// Permutation matrix: new level l reads old loop perm[l] (j_l = i_perm[l]).
linalg::IntMatrix permutation_matrix(const std::vector<int>& perm);

/// Skew matrix: identity with j_target += factor * i_source added.
linalg::IntMatrix skew_matrix(int depth, int target, int source,
                              linalg::Int factor);

/// Apply a unimodular transform to a nest: returns the equivalent nest
/// over j = U * i (same set of executed statement instances, new
/// enumeration order). Throws if U is not unimodular or if the transformed
/// bounds cannot be expressed (never happens for unimodular U with affine
/// bounds — Fourier–Motzkin is closed over them).
LoopNest apply_unimodular(const LoopNest& nest, const linalg::IntMatrix& u);

/// Whether `u` is a permutation matrix: square, 0/1 entries, one 1 in
/// every row and every column.
bool is_permutation(const linalg::IntMatrix& u);

/// Exact integer inverse of a unimodular matrix: the transpose of a
/// permutation, one unique integral solve per column otherwise.
linalg::IntMatrix unimodular_inverse(const linalg::IntMatrix& u);

// Fourier–Motzkin elimination over affine inequalities, shared by bound
// regeneration (apply_unimodular) and dependence feasibility
// (dep::analyze_pairs); each caller keeps its own policy around these
// steps. A system has one format: flat rows, an inequality c · x + c0 >= 0
// over nvars variables stored as nvars + 1 Ints, the coefficients c
// followed by the constant c0, so a whole system lives in one buffer.

/// Append the rows of `nest`'s loop bounds, loop by loop (lowers, then
/// uppers), over variables [base, base + depth) of an `nvars`-wide space.
void append_bound_rows(const LoopNest& nest, int base, int nvars,
                       std::vector<linalg::Int>& rows);

/// Integer tightening: divide by the gcd of the variable coefficients,
/// flooring the constant (keeps every integer point).
void normalize_row(std::span<linalg::Int> row);

/// One elimination into `out` (same width): the normalized nonnegative
/// combination of `lo` (a lower bound on x_v) and `hi` (an upper bound) in
/// which x_v cancels.
void eliminate_row(std::span<const linalg::Int> lo,
                   std::span<const linalg::Int> hi, int v,
                   std::span<linalg::Int> out);

}  // namespace dct::ir
