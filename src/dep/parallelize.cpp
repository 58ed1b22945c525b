#include "dep/parallelize.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "ir/transform.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::dep {

using linalg::Int;
using linalg::IntMatrix;

namespace {

/// Transform a dependence-vector set by a unimodular matrix. Permutation
/// matrices work on any vector (directions permute); general matrices need
/// exact distances. Returns nullopt when the transform cannot be applied
/// or would make some vector lexicographically negative (illegal).
std::optional<std::vector<DepVector>> transform_vectors(
    const std::vector<DepVector>& vectors, const IntMatrix& u) {
  const int d = u.rows();
  // Detect a pure permutation.
  std::vector<int> perm(static_cast<size_t>(d), -1);
  bool is_perm = true;
  for (int r = 0; r < d && is_perm; ++r) {
    int ones = 0;
    for (int c = 0; c < d; ++c) {
      const Int v = u.at(r, c);
      if (v == 1) {
        perm[static_cast<size_t>(r)] = c;
        ++ones;
      } else if (v != 0) {
        is_perm = false;
      }
    }
    if (ones != 1) is_perm = false;
  }

  std::vector<DepVector> out;
  out.reserve(vectors.size());
  for (const DepVector& v : vectors) {
    DepVector t;
    t.dirs.resize(static_cast<size_t>(d));
    t.dist.resize(static_cast<size_t>(d));
    if (is_perm) {
      for (int l = 0; l < d; ++l) {
        t.dirs[static_cast<size_t>(l)] =
            v.dirs[static_cast<size_t>(perm[static_cast<size_t>(l)])];
        t.dist[static_cast<size_t>(l)] =
            v.dist[static_cast<size_t>(perm[static_cast<size_t>(l)])];
      }
    } else {
      linalg::Vec delta(static_cast<size_t>(d));
      for (int l = 0; l < d; ++l) {
        if (!v.dist[static_cast<size_t>(l)].has_value()) return std::nullopt;
        delta[static_cast<size_t>(l)] = *v.dist[static_cast<size_t>(l)];
      }
      const linalg::Vec nd = u * delta;
      for (int l = 0; l < d; ++l) {
        const Int x = nd[static_cast<size_t>(l)];
        t.dirs[static_cast<size_t>(l)] =
            x == 0 ? Dir::EQ : (x > 0 ? Dir::LT : Dir::GT);
        t.dist[static_cast<size_t>(l)] = x;
      }
    }
    // Legality: the transformed vector must be lexicographically positive
    // (or all-EQ, which cannot happen for a carried vector).
    const int cl = t.carrier_level();
    if (cl >= 0 && t.dirs[static_cast<size_t>(cl)] == Dir::GT)
      return std::nullopt;
    out.push_back(std::move(t));
  }
  return out;
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

struct Candidate {
  IntMatrix u;
  std::vector<bool> parallel;
  int outer_parallel = 0;
  int total_parallel = 0;
  int stride1 = 0;
  bool is_identity = false;
};

}  // namespace

ParallelizedNest parallelize(const ir::LoopNest& nest,
                             support::RemarkSink* rs) {
  const int d = nest.depth();
  std::vector<PairDeps> pairs = analyze_pairs(nest);
  const NestDeps deps = summarize(pairs);

  // Imperfect nests: a statement at depth m executes once per iteration
  // of the outer m loops, so a legal transform must map the outer m loops
  // among themselves (block-triangular with a unimodular leading block).
  std::vector<int> stmt_depths;
  for (const ir::Stmt& s : nest.stmts) {
    const int m = s.effective_depth(d);
    if (m < d) stmt_depths.push_back(m);
  }
  auto admissible = [&](const IntMatrix& u) {
    for (int m : stmt_depths) {
      for (int i = 0; i < m; ++i)
        for (int j = m; j < d; ++j)
          if (u.at(i, j) != 0) return false;
      if (std::abs(linalg::determinant(u.submatrix(0, m, 0, m))) != 1)
        return false;
    }
    return true;
  };

  std::vector<IntMatrix> transforms;
  {
    std::vector<int> perm(static_cast<size_t>(d));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      transforms.push_back(ir::permutation_matrix(perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  auto evaluate = [&](const IntMatrix& u) -> std::optional<Candidate> {
    if (!admissible(u)) return std::nullopt;
    auto tv = transform_vectors(deps.vectors, u);
    if (!tv.has_value()) return std::nullopt;
    Candidate c;
    c.u = u;
    c.parallel = carried_levels(*tv, d);
    c.parallel.flip();
    while (c.outer_parallel < d &&
           c.parallel[static_cast<size_t>(c.outer_parallel)])
      ++c.outer_parallel;
    c.total_parallel = static_cast<int>(
        std::count(c.parallel.begin(), c.parallel.end(), true));
    c.is_identity = (u == IntMatrix::identity(d));
    return c;
  };

  std::vector<Candidate> candidates;
  for (const IntMatrix& u : transforms)
    if (auto c = evaluate(u)) candidates.push_back(std::move(*c));
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
          for (const IntMatrix& p : transforms)
            if (auto c = evaluate(p * skew)) candidates.push_back(std::move(*c));
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
    c.stride1 = stride1_score(nest, c.u);
    const bool better =
        best == nullptr || c.stride1 > best_stride1 ||
        (c.stride1 == best_stride1 && c.is_identity && !best->is_identity);
    if (better) {
      best = &c;
      best_stride1 = c.stride1;
    }
  }
  DCT_CHECK(best != nullptr);

  ParallelizedNest out;
  out.nest = ir::apply_unimodular(nest, best->u);
  out.transform = best->u;
  out.parallel = best->parallel;
  // The transform is legal for the union of the carried vectors, so for
  // each pair's; loop-independent vectors stay all-EQ under any transform.
  for (PairDeps& pd : pairs) {
    auto tv = transform_vectors(pd.vectors, best->u);
    DCT_CHECK(tv.has_value(), "chosen transform must be legal for every pair");
    pd.vectors = std::move(*tv);
  }
  out.pairs = std::move(pairs);
  if (rs != nullptr) {
    rs->count("legal_candidates", static_cast<long>(candidates.size()));
    rs->count("dependence_vectors", static_cast<long>(deps.vectors.size()));
    if (!best->is_identity) rs->count("nests_transformed");
    if (skewed) rs->count("wavefront_searches");
    rs->note(strf("%s: %d of %d outer loop(s) DOALL%s",
                  best->is_identity ? "identity transform"
                                    : (skewed ? "skewed wavefront transform"
                                              : "unimodular transform"),
                  best->outer_parallel, d,
                  best->stride1 > 0 ? ", stride-1 innermost" : ""));
  }
  return out;
}

}  // namespace dct::dep
