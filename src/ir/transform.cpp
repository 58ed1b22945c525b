#include "ir/transform.hpp"

#include <cstdlib>
#include <utility>

#include "support/diagnostics.hpp"

namespace dct::ir {

using linalg::checked_add;
using linalg::checked_mul;
using linalg::IntMatrix;

IntMatrix permutation_matrix(const std::vector<int>& perm) {
  const int n = static_cast<int>(perm.size());
  IntMatrix m(n, n);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int l = 0; l < n; ++l) {
    const int src = perm[static_cast<size_t>(l)];
    DCT_CHECK(src >= 0 && src < n && !seen[static_cast<size_t>(src)],
              "not a permutation");
    seen[static_cast<size_t>(src)] = true;
    m.at(l, src) = 1;
  }
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
  DCT_CHECK(std::abs(linalg::determinant(u)) == 1, "matrix is not unimodular");
  const int n = u.rows();
  IntMatrix inv(n, n);
  for (int c = 0; c < n; ++c) {
    linalg::Vec e(static_cast<size_t>(n), 0);
    e[static_cast<size_t>(c)] = 1;
    const auto sol = linalg::solve(u, e);
    DCT_CHECK(sol.has_value() && sol->denom == 1, "unimodular inverse failed");
    for (int r = 0; r < n; ++r) inv.at(r, c) = sol->x[static_cast<size_t>(r)];
  }
  return inv;
}

namespace {

void normalize(std::span<linalg::Int> c, linalg::Int& c0) {
  const linalg::Int g = linalg::gcd(c);
  if (g > 1) {
    for (auto& v : c) v /= g;
    c0 = linalg::floor_div(c0, g);
  }
}

void combine(std::span<const linalg::Int> lo, linalg::Int lo0,
             std::span<const linalg::Int> hi, linalg::Int hi0, int v,
             std::span<linalg::Int> out, linalg::Int& out0) {
  const linalg::Int clo = lo[static_cast<size_t>(v)];
  const linalg::Int chi = -hi[static_cast<size_t>(v)];
  for (size_t k = 0; k < out.size(); ++k)
    out[k] = checked_add(checked_mul(clo, hi[k]), checked_mul(chi, lo[k]));
  out0 = checked_add(checked_mul(clo, hi0), checked_mul(chi, lo0));
  DCT_CHECK(out[static_cast<size_t>(v)] == 0, "FM elimination bug");
  normalize(out, out0);
}

/// The rows of `system` split by the sign of their coefficient on x_v:
/// lower bounds (> 0), upper bounds (< 0) and the rest.
struct FmSplit {
  std::vector<Ineq> lower, upper, rest;
};

FmSplit split_on(std::vector<Ineq> system, int v) {
  FmSplit out;
  for (Ineq& q : system) {
    const linalg::Int cv = q.c[static_cast<size_t>(v)];
    if (cv > 0)
      out.lower.push_back(std::move(q));
    else if (cv < 0)
      out.upper.push_back(std::move(q));
    else
      out.rest.push_back(std::move(q));
  }
  return out;
}

Ineq eliminate(const Ineq& lo, const Ineq& hi, int v) {
  Ineq q;
  q.c.resize(lo.c.size());
  combine(lo.c, lo.c0, hi.c, hi.c0, v, q.c, q.c0);
  return q;
}

}  // namespace

void normalize_row(std::span<linalg::Int> row) {
  normalize(row.first(row.size() - 1), row.back());
}

void eliminate_row(std::span<const linalg::Int> lo,
                   std::span<const linalg::Int> hi, int v,
                   std::span<linalg::Int> out) {
  const size_t n = out.size() - 1;
  combine(lo.first(n), lo[n], hi.first(n), hi[n], v, out.first(n), out[n]);
}

void append_bound_ineqs(const LoopNest& nest, int base, int nvars,
                        std::vector<Ineq>& out) {
  const auto at = [base](size_t i) { return static_cast<size_t>(base) + i; };
  for (size_t k = 0; k < nest.loops.size(); ++k) {
    const Loop& lp = nest.loops[k];
    for (const Bound& b : lp.lowers) {
      // divisor * i_k - expr >= 0
      Ineq q;
      q.c.assign(static_cast<size_t>(nvars), 0);
      q.c[at(k)] = b.divisor;
      for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
        q.c[at(i)] = linalg::checked_sub(q.c[at(i)], b.expr.coeffs[i]);
      q.c0 = -b.expr.constant;
      out.push_back(std::move(q));
    }
    for (const Bound& b : lp.uppers) {
      // expr - divisor * i_k >= 0
      Ineq q;
      q.c.assign(static_cast<size_t>(nvars), 0);
      for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
        q.c[at(i)] = b.expr.coeffs[i];
      q.c[at(k)] = linalg::checked_sub(q.c[at(k)], b.divisor);
      q.c0 = b.expr.constant;
      out.push_back(std::move(q));
    }
  }
}

LoopNest apply_unimodular(const LoopNest& nest, const IntMatrix& u) {
  const int d = nest.depth();
  DCT_CHECK(u.rows() == d && u.cols() == d, "transform shape mismatch");
  const IntMatrix v = unimodular_inverse(u);  // i = v * j

  // Build the iteration-polytope inequality system over i, then substitute
  // i = v * j to express it over j.
  std::vector<Ineq> system;
  append_bound_ineqs(nest, 0, d, system);
  for (Ineq& q : system) {
    linalg::Vec cj(static_cast<size_t>(d), 0);
    for (int col = 0; col < d; ++col)
      for (int row = 0; row < d; ++row)
        cj[static_cast<size_t>(col)] =
            checked_add(cj[static_cast<size_t>(col)],
                        checked_mul(q.c[static_cast<size_t>(row)], v.at(row, col)));
    q.c = std::move(cj);
    normalize(q.c, q.c0);
  }

  // Fourier–Motzkin: peel bounds for levels d-1 .. 0.
  LoopNest out;
  out.name = nest.name;
  out.frequency = nest.frequency;
  out.loops.resize(static_cast<size_t>(d));
  for (int k = d - 1; k >= 0; --k) {
    Loop& lp = out.loops[static_cast<size_t>(k)];
    lp.var_name = "j" + std::to_string(k);
    auto [lower, upper, rest] = split_on(std::move(system), k);
    DCT_CHECK(!lower.empty() && !upper.empty(),
              "transformed nest is unbounded at level " + std::to_string(k));
    for (const Ineq& q : lower) {
      // ck * j_k >= -(rest of q)  =>  j_k >= ceil(expr / ck)
      Bound b;
      b.divisor = q.c[static_cast<size_t>(k)];
      b.expr.coeffs.assign(q.c.begin(), q.c.begin() + k);
      for (auto& cv : b.expr.coeffs) cv = -cv;
      b.expr.constant = -q.c0;
      lp.lowers.push_back(std::move(b));
    }
    for (const Ineq& q : upper) {
      // (-ck) * j_k <= rest of q  =>  j_k <= floor(expr / -ck)
      Bound b;
      b.divisor = -q.c[static_cast<size_t>(k)];
      b.expr.coeffs.assign(q.c.begin(), q.c.begin() + k);
      b.expr.constant = q.c0;
      lp.uppers.push_back(std::move(b));
    }
    // Eliminate j_k for the outer levels.
    system = std::move(rest);
    for (const Ineq& lo : lower)
      for (const Ineq& hi : upper) system.push_back(eliminate(lo, hi, k));
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
