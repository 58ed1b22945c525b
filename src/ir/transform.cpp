#include "ir/transform.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "support/diagnostics.hpp"

namespace dct::ir {

using linalg::checked_add;
using linalg::checked_mul;
using linalg::IntMatrix;

bool is_permutation(const IntMatrix& u) {
  const int n = u.rows();
  if (u.cols() != n) return false;
  for (int r = 0; r < n; ++r) {
    int row_ones = 0, col_ones = 0;  // in row r and in column r
    for (int c = 0; c < n; ++c) {
      const linalg::Int x = u.at(r, c), y = u.at(c, r);
      if ((x != 0 && x != 1) || (y != 0 && y != 1)) return false;
      row_ones += x == 1;
      col_ones += y == 1;
    }
    if (row_ones != 1 || col_ones != 1) return false;
  }
  return true;
}

IntMatrix permutation_matrix(const std::vector<int>& perm) {
  const int n = static_cast<int>(perm.size());
  IntMatrix m(n, n);
  for (int l = 0; l < n; ++l) {
    const int src = perm[static_cast<size_t>(l)];
    DCT_CHECK(src >= 0 && src < n, "not a permutation");
    m.at(l, src) = 1;
  }
  DCT_CHECK(is_permutation(m), "not a permutation");
  return m;
}

IntMatrix skew_matrix(int depth, int target, int source, linalg::Int factor) {
  DCT_CHECK(target != source, "skew target must differ from source");
  IntMatrix m = IntMatrix::identity(depth);
  m.at(target, source) = factor;
  return m;
}

IntMatrix reversal_matrix(int depth, int level) {
  IntMatrix m = IntMatrix::identity(depth);
  m.at(level, level) = -1;
  return m;
}

IntMatrix unimodular_inverse(const IntMatrix& u) {
  DCT_CHECK(u.rows() == u.cols(), "inverse of non-square matrix");
  const int n = u.rows();
  IntMatrix inv(n, n);
  if (is_permutation(u)) {  // orthogonal: the inverse is the transpose
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) inv.at(c, r) = u.at(r, c);
    return inv;
  }
  DCT_CHECK(std::abs(linalg::determinant(u)) == 1, "matrix is not unimodular");
  for (int c = 0; c < n; ++c) {
    linalg::Vec e(static_cast<size_t>(n), 0);
    e[static_cast<size_t>(c)] = 1;
    const auto sol = linalg::solve(u, e);
    DCT_CHECK(sol.has_value() && sol->denom == 1, "unimodular inverse failed");
    for (int r = 0; r < n; ++r) inv.at(r, c) = sol->x[static_cast<size_t>(r)];
  }
  return inv;
}

void normalize_row(std::span<linalg::Int> row) {
  const std::span<linalg::Int> c = row.first(row.size() - 1);
  const linalg::Int g = linalg::gcd(c);
  if (g > 1) {
    for (auto& x : c) x /= g;
    row.back() = linalg::floor_div(row.back(), g);
  }
}

void eliminate_row(std::span<const linalg::Int> lo,
                   std::span<const linalg::Int> hi, int v,
                   std::span<linalg::Int> out) {
  const linalg::Int clo = lo[static_cast<size_t>(v)];
  const linalg::Int chi = -hi[static_cast<size_t>(v)];
  for (size_t k = 0; k < out.size(); ++k)
    out[k] = checked_add(checked_mul(clo, hi[k]), checked_mul(chi, lo[k]));
  DCT_CHECK(out[static_cast<size_t>(v)] == 0, "FM elimination bug");
  normalize_row(out);
}

void append_bound_rows(const LoopNest& nest, int base, int nvars,
                       std::vector<linalg::Int>& rows) {
  const size_t width = static_cast<size_t>(nvars) + 1;
  const auto at = [base](size_t i) { return static_cast<size_t>(base) + i; };
  for (size_t k = 0; k < nest.loops.size(); ++k) {
    const Loop& lp = nest.loops[k];
    for (const Bound& b : lp.lowers) {
      // divisor * i_k - expr >= 0
      rows.resize(rows.size() + width, 0);
      const std::span<linalg::Int> q = std::span(rows).last(width);
      q[at(k)] = b.divisor;
      for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
        q[at(i)] = linalg::checked_sub(q[at(i)], b.expr.coeffs[i]);
      q.back() = -b.expr.constant;
    }
    for (const Bound& b : lp.uppers) {
      // expr - divisor * i_k >= 0
      rows.resize(rows.size() + width, 0);
      const std::span<linalg::Int> q = std::span(rows).last(width);
      for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
        q[at(i)] = b.expr.coeffs[i];
      q[at(k)] = linalg::checked_sub(q[at(k)], b.divisor);
      q.back() = b.expr.constant;
    }
  }
}

LoopNest apply_unimodular(const LoopNest& nest, const IntMatrix& u) {
  const int d = nest.depth();
  DCT_CHECK(u.rows() == d && u.cols() == d, "transform shape mismatch");
  const IntMatrix v = unimodular_inverse(u);  // i = v * j
  const size_t width = static_cast<size_t>(d) + 1;
  const auto row = [width](std::vector<linalg::Int>& buf, size_t r) {
    return std::span(buf).subspan(r * width, width);
  };

  // Build the iteration-polytope system over i, then substitute i = v * j
  // to express it over j.
  std::vector<linalg::Int> rows, next;
  append_bound_rows(nest, 0, d, rows);
  linalg::Vec cj(static_cast<size_t>(d));
  for (size_t r = 0; r < rows.size() / width; ++r) {
    const std::span<linalg::Int> q = row(rows, r);
    for (int col = 0; col < d; ++col) {
      linalg::Int c = 0;
      for (int i = 0; i < d; ++i)
        c = checked_add(c, checked_mul(q[static_cast<size_t>(i)], v.at(i, col)));
      cj[static_cast<size_t>(col)] = c;
    }
    std::copy(cj.begin(), cj.end(), q.begin());
    normalize_row(q);
  }

  // Fourier–Motzkin: peel bounds for levels d-1 .. 0.
  LoopNest out;
  out.name = nest.name;
  out.frequency = nest.frequency;
  out.loops.resize(static_cast<size_t>(d));
  std::vector<size_t> lower, upper;
  for (int k = d - 1; k >= 0; --k) {
    const auto at = static_cast<size_t>(k);
    Loop& lp = out.loops[at];
    lp.var_name = "j" + std::to_string(k);
    // Split on the sign of the j_k coefficient: lower bounds (> 0), upper
    // bounds (< 0); the rest carry over to the outer levels.
    lower.clear();
    upper.clear();
    next.clear();
    for (size_t r = 0; r < rows.size() / width; ++r) {
      const std::span<linalg::Int> q = row(rows, r);
      if (q[at] > 0)
        lower.push_back(r);
      else if (q[at] < 0)
        upper.push_back(r);
      else
        next.insert(next.end(), q.begin(), q.end());
    }
    DCT_CHECK(!lower.empty() && !upper.empty(),
              "transformed nest is unbounded at level " + std::to_string(k));
    for (const size_t r : lower) {
      // ck * j_k >= -(rest of q)  =>  j_k >= ceil(expr / ck)
      const std::span<linalg::Int> q = row(rows, r);
      Bound& b = lp.lowers.emplace_back();
      b.divisor = q[at];
      b.expr.coeffs.assign(q.begin(), q.begin() + k);
      for (auto& cv : b.expr.coeffs) cv = -cv;
      b.expr.constant = -q.back();
    }
    for (const size_t r : upper) {
      // (-ck) * j_k <= rest of q  =>  j_k <= floor(expr / -ck)
      const std::span<linalg::Int> q = row(rows, r);
      Bound& b = lp.uppers.emplace_back();
      b.divisor = -q[at];
      b.expr.coeffs.assign(q.begin(), q.begin() + k);
      b.expr.constant = q.back();
    }
    // Eliminate j_k for the outer levels.
    for (const size_t lo : lower)
      for (const size_t hi : upper) {
        next.resize(next.size() + width);
        eliminate_row(row(rows, lo), row(rows, hi), k,
                      std::span(next).last(width));
      }
    rows.swap(next);
  }

  // Transform the statements: F' = F * V, offsets unchanged.
  out.stmts = nest.stmts;
  for (Stmt& s : out.stmts) {
    for (ArrayRef& r : s.reads) r.access = r.access * v;
    s.write.access = s.write.access * v;
  }
  return out;
}

}  // namespace dct::ir
