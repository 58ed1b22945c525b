#include "dep/parallelize.hpp"

#include <algorithm>
#include <numeric>

#include "ir/transform.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::dep {

using linalg::Int;
using linalg::IntMatrix;

namespace {

/// Map a dependence-vector set through a unimodular matrix into `out`,
/// whose vectors' storage is reused from call to call. Permutation
/// matrices work on any vector (directions permute); general matrices need
/// exact distances. Returns false when the transform cannot be applied or
/// would make some vector lexicographically negative (illegal).
bool transform_vectors(const std::vector<DepVector>& vectors,
                       const IntMatrix& u, std::vector<DepVector>& out) {
  const int d = u.rows();
  const bool is_perm = ir::is_permutation(u);
  out.resize(vectors.size());
  for (size_t i = 0; i < vectors.size(); ++i) {
    const DepVector& v = vectors[i];
    DepVector& t = out[i];
    t.dirs.resize(static_cast<size_t>(d));
    t.dist.resize(static_cast<size_t>(d));
    for (int l = 0; l < d; ++l) {
      const auto at = static_cast<size_t>(l);
      if (is_perm) {  // new level l reads the old level u(l, c) == 1 names
        size_t c = 0;
        while (u.at(l, static_cast<int>(c)) != 1) ++c;
        t.dirs[at] = v.dirs[c];
        t.dist[at] = v.dist[c];
        continue;
      }
      Int x = 0;
      for (int c = 0; c < d; ++c) {
        const auto& dc = v.dist[static_cast<size_t>(c)];
        if (!dc.has_value()) return false;
        x = linalg::checked_add(x, linalg::checked_mul(u.at(l, c), *dc));
      }
      t.dirs[at] = x == 0 ? Dir::EQ : (x > 0 ? Dir::LT : Dir::GT);
      t.dist[at] = x;
    }
    // Legality: the transformed vector must be lexicographically positive
    // (or all-EQ, which cannot happen for a carried vector).
    const int cl = t.carrier_level();
    if (cl >= 0 && t.dirs[static_cast<size_t>(cl)] == Dir::GT) return false;
  }
  return true;
}

/// Tie-break score: number of references whose fastest-varying (first,
/// column-major) array dimension is indexed by the innermost loop with
/// unit coefficient — i.e. stride-1 spatial locality in the inner loop.
/// Scored on the nest transformed by u without building it: a reference
/// F becomes F * u^-1 (apply_unimodular), whose row 0 is all this needs.
int stride1_score(const ir::LoopNest& nest, const IntMatrix& u) {
  const IntMatrix v = ir::unimodular_inverse(u);
  const int inner = nest.depth() - 1;
  int score = 0;
  auto check = [&](const ir::ArrayRef& r) {
    if (r.access.rows() == 0) return;
    DCT_CHECK(r.access.cols() == v.rows(), "matmul shape mismatch");
    Int coeff = 0;
    for (int k = 0; k < r.access.cols(); ++k)
      coeff = linalg::checked_add(
          coeff, linalg::checked_mul(r.access.at(0, k), v.at(k, inner)));
    if (std::abs(coeff) == 1) ++score;
  };
  for (const ir::Stmt& s : nest.stmts) {
    for (const ir::ArrayRef& r : s.reads) check(r);
    check(s.write);
  }
  return score;
}

/// A legal transform: its index in the searched list (0 is the
/// identity), the DOALL levels it exposes and its stride-1 score.
struct Candidate {
  size_t u = 0;
  int outer_parallel = 0;
  int total_parallel = 0;
  int stride1 = 0;
  bool is_identity() const { return u == 0; }
};

}  // namespace

ParallelizedNest parallelize(const ir::LoopNest& nest,
                             support::RemarkSink* rs) {
  const int d = nest.depth();
  std::vector<PairDeps> pairs = analyze_pairs(nest);
  const NestDeps deps = summarize(pairs);

  // Imperfect nests: a statement at depth m executes once per iteration
  // of the outer m loops, so a legal transform must map the outer m loops
  // among themselves (block-triangular with a unimodular leading block;
  // a block-triangular permutation's leading block is a permutation).
  std::vector<int> stmt_depths;
  for (const ir::Stmt& s : nest.stmts) {
    const int m = s.effective_depth(d);
    if (m < d) stmt_depths.push_back(m);
  }
  auto admissible = [&](const IntMatrix& u) {
    const bool is_perm = ir::is_permutation(u);
    for (int m : stmt_depths) {
      for (int i = 0; i < m; ++i)
        for (int j = m; j < d; ++j)
          if (u.at(i, j) != 0) return false;
      if (!is_perm &&
          std::abs(linalg::determinant(u.submatrix(0, m, 0, m))) != 1)
        return false;
    }
    return true;
  };

  // Every permutation, the identity first; the wavefront fallback appends
  // skewed ones.
  size_t permutations = 1;
  for (int k = 2; k <= d; ++k) permutations *= static_cast<size_t>(k);
  std::vector<IntMatrix> transforms;
  transforms.reserve(permutations);
  {
    std::vector<int> perm(static_cast<size_t>(d));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      transforms.push_back(ir::permutation_matrix(perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  std::vector<DepVector> mapped;  // reused by every candidate
  std::vector<Candidate> candidates;
  auto evaluate = [&](size_t i) {
    const IntMatrix& u = transforms[i];
    if (!admissible(u) || !transform_vectors(deps.vectors, u, mapped)) return;
    const std::vector<bool> carried = carried_levels(mapped, d);
    Candidate c;
    c.u = i;
    while (c.outer_parallel < d &&
           !carried[static_cast<size_t>(c.outer_parallel)])
      ++c.outer_parallel;
    c.total_parallel = static_cast<int>(
        std::count(carried.begin(), carried.end(), false));
    candidates.push_back(c);
  };

  for (size_t i = 0; i < permutations; ++i) evaluate(i);
  DCT_CHECK(!candidates.empty(), "identity transform must always be legal");

  const bool any_parallel = std::any_of(
      candidates.begin(), candidates.end(),
      [](const Candidate& c) { return c.total_parallel > 0; });
  bool skewed = false;
  if (!any_parallel && d >= 2) {
    skewed = true;
    // Wavefront fallback: skew an inner loop by an outer one, optionally
    // composed with a permutation. Needs exact distances (checked inside
    // transform_vectors).
    for (int t = 1; t < d; ++t)
      for (int s = 0; s < t; ++s)
        for (Int f = 1; f <= 2; ++f) {
          const IntMatrix skew = ir::skew_matrix(d, t, s, f);
          for (size_t p = 0; p < permutations; ++p) {
            transforms.push_back(transforms[p] * skew);
            evaluate(transforms.size() - 1);
          }
        }
  }

  // Stride-1 scores only break ties among candidates that survive the
  // primary criteria.
  int best_outer = -1, best_total = -1;
  for (const Candidate& c : candidates)
    best_outer = std::max(best_outer, c.outer_parallel);
  for (const Candidate& c : candidates)
    if (c.outer_parallel == best_outer)
      best_total = std::max(best_total, c.total_parallel);

  const Candidate* best = nullptr;
  int best_stride1 = -1;
  for (Candidate& c : candidates) {
    if (c.outer_parallel != best_outer || c.total_parallel != best_total)
      continue;
    c.stride1 = stride1_score(nest, transforms[c.u]);
    const bool better =
        best == nullptr || c.stride1 > best_stride1 ||
        (c.stride1 == best_stride1 && c.is_identity() && !best->is_identity());
    if (better) {
      best = &c;
      best_stride1 = c.stride1;
    }
  }
  DCT_CHECK(best != nullptr);

  ParallelizedNest out;
  const IntMatrix& u = transforms[best->u];
  out.nest = ir::apply_unimodular(nest, u);
  out.transform = u;
  transform_vectors(deps.vectors, u, mapped);
  out.parallel = carried_levels(mapped, d);
  out.parallel.flip();
  // The transform is legal for the union of the carried vectors, so for
  // each pair's; loop-independent vectors stay all-EQ under any transform.
  for (PairDeps& pd : pairs) {
    const bool legal = transform_vectors(pd.vectors, u, mapped);
    DCT_CHECK(legal, "chosen transform must be legal for every pair");
    pd.vectors.swap(mapped);
  }
  out.pairs = std::move(pairs);
  if (rs != nullptr) {
    rs->count("legal_candidates", static_cast<long>(candidates.size()));
    rs->count("dependence_vectors", static_cast<long>(deps.vectors.size()));
    if (!best->is_identity()) rs->count("nests_transformed");
    if (skewed) rs->count("wavefront_searches");
    rs->note(strf("%s: %d of %d outer loop(s) DOALL%s",
                  best->is_identity() ? "identity transform"
                                    : (skewed ? "skewed wavefront transform"
                                              : "unimodular transform"),
                  best->outer_parallel, d,
                  best->stride1 > 0 ? ", stride-1 innermost" : ""));
  }
  return out;
}

}  // namespace dct::dep
