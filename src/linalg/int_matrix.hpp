// Exact integer linear algebra over int64 with checked overflow.
//
// The small kernel the compiler runs: checked arithmetic, gcds and
// floor/ceil division (the paper's 0-based index arithmetic), a dense
// matrix for access functions and loop transforms, and exact elimination
// over the integers for determinants and linear solves (dependence
// distances, the inverse of a non-permutation unimodular loop transform).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace dct::linalg {

using Int = std::int64_t;
using Vec = std::vector<Int>;

/// Checked arithmetic: throws dct::Error on int64 overflow. Inline: the
/// elimination loops run it on every coefficient.
inline Int checked_add(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_add_overflow(a, b, &r), "int64 add overflow");
  return r;
}
inline Int checked_sub(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_sub_overflow(a, b, &r), "int64 sub overflow");
  return r;
}
inline Int checked_mul(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_mul_overflow(a, b, &r), "int64 mul overflow");
  return r;
}

/// Non-negative gcd; gcd(0,0) == 0.
Int gcd(Int a, Int b);
/// gcd of all entries (0 for an empty/zero vector); stops at 1.
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

  Int& at(int r, int c) {
    DCT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index out of range");
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }
  Int at(int r, int c) const {
    DCT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index out of range");
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }

  /// Row r, one bounds check for the whole row.
  std::span<const Int> row(int r) const {
    DCT_CHECK(r >= 0 && r < rows_, "row out of range");
    return {data_.data() + static_cast<size_t>(r) * static_cast<size_t>(cols_),
            static_cast<size_t>(cols_)};
  }

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

/// Determinant by fraction-free (Bareiss) elimination (throws unless
/// square).
Int determinant(const IntMatrix& m);

/// Solve A x = b over the rationals (fraction-free integer elimination,
/// free variables zero); returns an integral solution scaled by the
/// returned denominator: A * x == denom * b. nullopt if unsolvable.
struct RationalSolution {
  Vec x;
  Int denom = 1;
};
std::optional<RationalSolution> solve(const IntMatrix& a, const Vec& b);

/// The solution of A x = b when it is unique and integral, by the same
/// elimination with no denominators to collect. `full_rank` reports
/// whether A has full column rank; nullopt when it has not, when the
/// system is inconsistent or when its one solution is not integral.
std::optional<Vec> solve_unique_integral(const IntMatrix& a,
                                         std::span<const Int> b,
                                         bool& full_rank);

}  // namespace dct::linalg
