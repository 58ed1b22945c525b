#include "linalg/int_matrix.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "support/diagnostics.hpp"

namespace dct::linalg {

Int checked_add(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_add_overflow(a, b, &r), "int64 add overflow");
  return r;
}

Int checked_sub(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_sub_overflow(a, b, &r), "int64 sub overflow");
  return r;
}

Int checked_mul(Int a, Int b) {
  Int r = 0;
  DCT_CHECK(!__builtin_mul_overflow(a, b, &r), "int64 mul overflow");
  return r;
}

Int gcd(Int a, Int b) {
  a = std::abs(a);
  b = std::abs(b);
  while (b != 0) {
    const Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Int gcd(std::span<const Int> v) {
  Int g = 0;
  for (Int x : v) g = gcd(g, x);
  return g;
}

Int floor_div(Int a, Int b) {
  DCT_CHECK(b != 0, "floor_div by zero");
  Int q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

Int floor_mod(Int a, Int b) { return checked_sub(a, checked_mul(floor_div(a, b), b)); }

Int ceil_div(Int a, Int b) { return -floor_div(-a, b); }

// ---------------------------------------------------------------------------
// IntMatrix basics
// ---------------------------------------------------------------------------

IntMatrix::IntMatrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0) {
  DCT_CHECK(rows >= 0 && cols >= 0);
}

IntMatrix::IntMatrix(std::initializer_list<std::initializer_list<Int>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_) * static_cast<size_t>(cols_));
  for (const auto& r : rows) {
    DCT_CHECK(static_cast<int>(r.size()) == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

IntMatrix IntMatrix::identity(int n) {
  IntMatrix m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

IntMatrix IntMatrix::col_vector(const Vec& v) {
  IntMatrix m(static_cast<int>(v.size()), 1);
  for (size_t i = 0; i < v.size(); ++i) m.at(static_cast<int>(i), 0) = v[i];
  return m;
}

Int& IntMatrix::at(int r, int c) {
  DCT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index out of range");
  return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
               static_cast<size_t>(c)];
}

Int IntMatrix::at(int r, int c) const {
  DCT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index out of range");
  return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
               static_cast<size_t>(c)];
}

Vec IntMatrix::row(int r) const {
  Vec v(static_cast<size_t>(cols_));
  for (int c = 0; c < cols_; ++c) v[static_cast<size_t>(c)] = at(r, c);
  return v;
}

IntMatrix IntMatrix::operator*(const IntMatrix& rhs) const {
  DCT_CHECK(cols_ == rhs.rows_, "matmul shape mismatch");
  IntMatrix out(rows_, rhs.cols_);
  for (int r = 0; r < rows_; ++r)
    for (int k = 0; k < cols_; ++k) {
      const Int a = at(r, k);
      if (a == 0) continue;
      for (int c = 0; c < rhs.cols_; ++c)
        out.at(r, c) = checked_add(out.at(r, c), checked_mul(a, rhs.at(k, c)));
    }
  return out;
}

Vec IntMatrix::operator*(const Vec& v) const {
  DCT_CHECK(static_cast<int>(v.size()) == cols_, "matvec shape mismatch");
  Vec out(static_cast<size_t>(rows_), 0);
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c)
      out[static_cast<size_t>(r)] =
          checked_add(out[static_cast<size_t>(r)],
                      checked_mul(at(r, c), v[static_cast<size_t>(c)]));
  return out;
}

IntMatrix IntMatrix::hstack(const IntMatrix& other) const {
  DCT_CHECK(rows_ == other.rows_, "hstack height mismatch");
  IntMatrix out(rows_, cols_ + other.cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    for (int c = 0; c < other.cols_; ++c) out.at(r, cols_ + c) = other.at(r, c);
  }
  return out;
}

IntMatrix IntMatrix::submatrix(int r0, int r1, int c0, int c1) const {
  DCT_CHECK(0 <= r0 && r0 <= r1 && r1 <= rows_, "bad row range");
  DCT_CHECK(0 <= c0 && c0 <= c1 && c1 <= cols_, "bad col range");
  IntMatrix out(r1 - r0, c1 - c0);
  for (int r = r0; r < r1; ++r)
    for (int c = c0; c < c1; ++c) out.at(r - r0, c - c0) = at(r, c);
  return out;
}

std::string IntMatrix::to_string() const {
  std::ostringstream os;
  for (int r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ") << "[";
    for (int c = 0; c < cols_; ++c) os << (c ? " " : "") << at(r, c);
    os << "]" << (r + 1 == rows_ ? "]" : "\n");
  }
  if (rows_ == 0) os << "[]";
  return os.str();
}

// ---------------------------------------------------------------------------
// Rational helper for exact elimination (matrices here are tiny).
// ---------------------------------------------------------------------------

namespace {

struct Rat {
  Int num = 0;
  Int den = 1;

  void normalize() {
    DCT_CHECK(den != 0, "rational with zero denominator");
    if (den < 0) {
      num = checked_mul(num, -1);
      den = checked_mul(den, -1);
    }
    const Int g = gcd(num, den);
    if (g > 1) {
      num /= g;
      den /= g;
    }
  }
  bool is_zero() const { return num == 0; }
};

Rat make_rat(Int n, Int d = 1) {
  Rat r{n, d};
  r.normalize();
  return r;
}

Rat operator*(const Rat& a, const Rat& b) {
  return make_rat(checked_mul(a.num, b.num), checked_mul(a.den, b.den));
}

Rat operator-(const Rat& a, const Rat& b) {
  return make_rat(
      checked_sub(checked_mul(a.num, b.den), checked_mul(b.num, a.den)),
      checked_mul(a.den, b.den));
}

Rat operator/(const Rat& a, const Rat& b) {
  DCT_CHECK(!b.is_zero(), "rational division by zero");
  return make_rat(checked_mul(a.num, b.den), checked_mul(a.den, b.num));
}

using RatMatrix = std::vector<std::vector<Rat>>;

RatMatrix to_rat(const IntMatrix& m) {
  RatMatrix out(static_cast<size_t>(m.rows()),
                std::vector<Rat>(static_cast<size_t>(m.cols())));
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out[static_cast<size_t>(r)][static_cast<size_t>(c)] = make_rat(m.at(r, c));
  return out;
}

/// Row-reduce `m` in place; returns pivot column per pivot row.
std::vector<int> rref(RatMatrix& m) {
  std::vector<int> pivots;
  if (m.empty()) return pivots;
  const size_t nrows = m.size();
  const size_t ncols = m[0].size();
  size_t prow = 0;
  for (size_t col = 0; col < ncols && prow < nrows; ++col) {
    size_t sel = prow;
    while (sel < nrows && m[sel][col].is_zero()) ++sel;
    if (sel == nrows) continue;
    std::swap(m[sel], m[prow]);
    const Rat inv = make_rat(1) / m[prow][col];
    for (size_t c = col; c < ncols; ++c) m[prow][c] = m[prow][c] * inv;
    for (size_t r = 0; r < nrows; ++r) {
      if (r == prow || m[r][col].is_zero()) continue;
      const Rat f = m[r][col];
      for (size_t c = col; c < ncols; ++c)
        m[r][c] = m[r][c] - f * m[prow][c];
    }
    pivots.push_back(static_cast<int>(col));
    ++prow;
  }
  return pivots;
}

}  // namespace

int rank(const IntMatrix& m) {
  if (m.empty()) return 0;
  RatMatrix rm = to_rat(m);
  return static_cast<int>(rref(rm).size());
}

Int determinant(const IntMatrix& m) {
  DCT_CHECK(m.rows() == m.cols(), "determinant of non-square matrix");
  const int n = m.rows();
  if (n == 0) return 1;
  RatMatrix rm = to_rat(m);
  Rat det = make_rat(1);
  for (int col = 0; col < n; ++col) {
    int sel = col;
    while (sel < n && rm[static_cast<size_t>(sel)][static_cast<size_t>(col)]
                          .is_zero())
      ++sel;
    if (sel == n) return 0;
    if (sel != col) {
      std::swap(rm[static_cast<size_t>(sel)], rm[static_cast<size_t>(col)]);
      det = det * make_rat(-1);
    }
    const Rat piv = rm[static_cast<size_t>(col)][static_cast<size_t>(col)];
    det = det * piv;
    for (int r = col + 1; r < n; ++r) {
      const Rat f = rm[static_cast<size_t>(r)][static_cast<size_t>(col)] / piv;
      if (f.is_zero()) continue;
      for (int c = col; c < n; ++c)
        rm[static_cast<size_t>(r)][static_cast<size_t>(c)] =
            rm[static_cast<size_t>(r)][static_cast<size_t>(c)] -
            f * rm[static_cast<size_t>(col)][static_cast<size_t>(c)];
    }
  }
  DCT_CHECK(det.den == 1, "integer determinant must be integral");
  return det.num;
}

std::optional<RationalSolution> solve(const IntMatrix& a, const Vec& b) {
  DCT_CHECK(static_cast<int>(b.size()) == a.rows(), "rhs size mismatch");
  RatMatrix rm = to_rat(a.hstack(IntMatrix::col_vector(b)));
  const std::vector<int> pivots = rref(rm);
  const int n = a.cols();
  // Inconsistent if a pivot lands in the augmented column.
  for (int p : pivots)
    if (p == n) return std::nullopt;
  // Build a particular solution: pivot variables take the augmented value,
  // free variables are zero.
  std::vector<Rat> x(static_cast<size_t>(n), make_rat(0));
  for (size_t i = 0; i < pivots.size(); ++i)
    x[static_cast<size_t>(pivots[i])] = rm[i][static_cast<size_t>(n)];
  Int denom = 1;
  for (const Rat& r : x) denom = checked_mul(denom, r.den / gcd(denom, r.den));
  RationalSolution out;
  out.denom = denom;
  out.x.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Rat& r = x[static_cast<size_t>(i)];
    out.x[static_cast<size_t>(i)] = checked_mul(r.num, denom / r.den);
  }
  return out;
}

}  // namespace dct::linalg
