#include "linalg/int_matrix.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "support/diagnostics.hpp"

namespace dct::linalg {

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
  for (const Int x : v) {
    if (x == 0) continue;
    g = g == 0 ? std::abs(x) : gcd(g, x);
    if (g == 1) break;
  }
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
// Exact elimination over the integers (matrices here are tiny)
// ---------------------------------------------------------------------------

namespace {

/// A row-major copy of `a`, with `b` as one more column when given.
struct Flat {
  int rows, width;
  std::vector<Int> v;

  Flat(const IntMatrix& a, std::span<const Int> b = {})
      : rows(a.rows()), width(a.cols() + (b.empty() ? 0 : 1)) {
    v.reserve(static_cast<size_t>(rows) * static_cast<size_t>(width));
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < a.cols(); ++c) v.push_back(a.at(r, c));
      if (!b.empty()) v.push_back(b[static_cast<size_t>(r)]);
    }
  }
  Int& at(int r, int c) {
    return v[static_cast<size_t>(r) * static_cast<size_t>(width) +
             static_cast<size_t>(c)];
  }
  void swap_rows(int r1, int r2) {
    for (int c = 0; c < width; ++c) std::swap(at(r1, c), at(r2, c));
  }
};

/// Fraction-free Gauss–Jordan elimination of `m`, pivoting in its first
/// `cols` columns: the i-th pivot moves to row i, where it is the row's
/// first nonzero entry, and every other row is zero in its column. Each
/// combined row is divided by the gcd of its entries, an exact
/// equivalence that keeps the numbers small. Returns the number of
/// pivots, the rank of those columns; the rows below them are zero in
/// those columns.
int eliminate(Flat& m, int cols) {
  int prow = 0;
  for (int col = 0; col < cols && prow < m.rows; ++col) {
    int sel = prow;
    while (sel < m.rows && m.at(sel, col) == 0) ++sel;
    if (sel == m.rows) continue;
    m.swap_rows(sel, prow);
    for (int r = 0; r < m.rows; ++r) {
      if (r == prow || m.at(r, col) == 0) continue;
      const Int g = gcd(m.at(prow, col), m.at(r, col));
      const Int fr = m.at(prow, col) / g, fp = m.at(r, col) / g;
      Int row_gcd = 0;
      for (int c = 0; c < m.width; ++c) {
        m.at(r, c) = checked_sub(checked_mul(fr, m.at(r, c)),
                                 checked_mul(fp, m.at(prow, c)));
        row_gcd = gcd(row_gcd, m.at(r, c));
      }
      if (row_gcd > 1)
        for (int c = 0; c < m.width; ++c) m.at(r, c) /= row_gcd;
    }
    ++prow;
  }
  return prow;
}

}  // namespace

Int determinant(const IntMatrix& m) {
  DCT_CHECK(m.rows() == m.cols(), "determinant of non-square matrix");
  const int n = m.rows();
  if (n == 0) return 1;
  // Bareiss: every division below is exact.
  Flat a(m);
  Int sign = 1, prev = 1;
  for (int k = 0; k < n; ++k) {
    int sel = k;
    while (sel < n && a.at(sel, k) == 0) ++sel;
    if (sel == n) return 0;
    if (sel != k) {
      a.swap_rows(sel, k);
      sign = -sign;
    }
    for (int i = k + 1; i < n; ++i)
      for (int j = k + 1; j < n; ++j)
        a.at(i, j) = checked_sub(checked_mul(a.at(i, j), a.at(k, k)),
                                 checked_mul(a.at(i, k), a.at(k, j))) /
                     prev;
    prev = a.at(k, k);
  }
  return checked_mul(sign, a.at(n - 1, n - 1));
}

std::optional<RationalSolution> solve(const IntMatrix& a, const Vec& b) {
  DCT_CHECK(static_cast<int>(b.size()) == a.rows(), "rhs size mismatch");
  const int n = a.cols();
  if (b.empty()) return RationalSolution{Vec(static_cast<size_t>(n), 0), 1};
  Flat m(a, b);
  const int pivots = eliminate(m, n);
  for (int r = pivots; r < a.rows(); ++r)
    if (m.at(r, n) != 0) return std::nullopt;  // inconsistent
  // Pivot row i reads p * x_c = rhs at its pivot column c; the free
  // variables are zero.
  Vec num(static_cast<size_t>(n), 0), den(static_cast<size_t>(n), 1);
  Int denom = 1;
  for (int i = 0; i < pivots; ++i) {
    int c = 0;
    while (m.at(i, c) == 0) ++c;
    Int p = m.at(i, c), rhs = m.at(i, n);
    if (p < 0) {
      p = checked_mul(p, -1);
      rhs = checked_mul(rhs, -1);
    }
    const Int g = gcd(p, rhs);
    num[static_cast<size_t>(c)] = rhs / g;
    den[static_cast<size_t>(c)] = p / g;
    denom = checked_mul(denom, (p / g) / gcd(denom, p / g));
  }
  RationalSolution out;
  out.denom = denom;
  out.x.resize(static_cast<size_t>(n));
  for (size_t c = 0; c < static_cast<size_t>(n); ++c)
    out.x[c] = checked_mul(num[c], denom / den[c]);
  return out;
}

std::optional<Vec> solve_unique_integral(const IntMatrix& a,
                                         std::span<const Int> b,
                                         bool& full_rank) {
  DCT_CHECK(static_cast<int>(b.size()) == a.rows(), "rhs size mismatch");
  const int n = a.cols();
  if (b.empty()) {  // no equations: only a 0-column system is determined
    full_rank = n == 0;
    return full_rank ? std::optional<Vec>(Vec{}) : std::nullopt;
  }
  Flat m(a, b);
  full_rank = eliminate(m, n) == n;
  if (!full_rank) return std::nullopt;
  for (int r = n; r < a.rows(); ++r)
    if (m.at(r, n) != 0) return std::nullopt;  // inconsistent
  // Row i now reads pivot_i * x_i = rhs_i.
  Vec x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (m.at(i, n) % m.at(i, i) != 0) return std::nullopt;  // not integral
    x[static_cast<size_t>(i)] = m.at(i, n) / m.at(i, i);
  }
  return x;
}

}  // namespace dct::linalg
