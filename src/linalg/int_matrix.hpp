// Exact integer linear algebra over int64 with checked overflow.
//
// The small kernel the compiler runs: checked arithmetic, gcds and
// floor/ceil division (the paper's 0-based index arithmetic), a dense
// matrix for access functions and loop transforms, and rational row
// reduction for rank, determinant and linear solves (dependence distances,
// the inverse of a unimodular loop transform).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dct::linalg {

using Int = std::int64_t;
using Vec = std::vector<Int>;

/// Checked arithmetic: throws dct::Error on int64 overflow.
Int checked_add(Int a, Int b);
Int checked_sub(Int a, Int b);
Int checked_mul(Int a, Int b);

/// Non-negative gcd; gcd(0,0) == 0.
Int gcd(Int a, Int b);
/// gcd of all entries (0 for an empty/zero vector).
Int gcd(std::span<const Int> v);
/// Floor division (rounds toward -inf) and the matching modulus (always
/// in [0, |b|) for b != 0). These implement the paper's 0-based array
/// index arithmetic exactly.
Int floor_div(Int a, Int b);
Int floor_mod(Int a, Int b);
/// Ceiling division (rounds toward +inf).
Int ceil_div(Int a, Int b);

/// Dense row-major integer matrix.
class IntMatrix {
 public:
  IntMatrix() = default;
  IntMatrix(int rows, int cols);  // zero-filled
  IntMatrix(std::initializer_list<std::initializer_list<Int>> rows);

  static IntMatrix identity(int n);
  /// Single-column constructor.
  static IntMatrix col_vector(const Vec& v);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  Int& at(int r, int c);
  Int at(int r, int c) const;

  Vec row(int r) const;

  IntMatrix operator*(const IntMatrix& rhs) const;
  Vec operator*(const Vec& v) const;
  bool operator==(const IntMatrix& rhs) const = default;

  /// Append the columns of `other` (must have equal rows) to the right.
  IntMatrix hstack(const IntMatrix& other) const;
  /// Rows [r0, r1) and columns [c0, c1).
  IntMatrix submatrix(int r0, int r1, int c0, int c1) const;

  std::string to_string() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<Int> data_;
};

/// Rank over the rationals, by exact rational row reduction.
int rank(const IntMatrix& m);

/// Determinant by exact rational elimination (throws unless square).
Int determinant(const IntMatrix& m);

/// Solve A x = b over the rationals; returns an integral solution scaled
/// by the returned denominator: A * x == denom * b. nullopt if unsolvable.
struct RationalSolution {
  Vec x;
  Int denom = 1;
};
std::optional<RationalSolution> solve(const IntMatrix& a, const Vec& b);

}  // namespace dct::linalg
