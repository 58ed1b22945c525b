#include "dep/dependence.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <sstream>

#include "ir/transform.hpp"
#include "support/diagnostics.hpp"

namespace dct::dep {

using ir::ArrayRef;
using ir::LoopNest;
using linalg::checked_add;
using linalg::checked_mul;
using linalg::IntMatrix;
using linalg::Vec;

bool DepVector::loop_independent() const {
  return std::all_of(dirs.begin(), dirs.end(),
                     [](Dir d) { return d == Dir::EQ; });
}

int DepVector::carrier_level() const {
  for (size_t l = 0; l < dirs.size(); ++l)
    if (dirs[l] != Dir::EQ) return static_cast<int>(l);
  return -1;
}

std::string DepVector::to_string() const {
  std::ostringstream os;
  os << "(";
  for (size_t l = 0; l < dirs.size(); ++l) {
    if (l) os << ",";
    if (dist[l].has_value())
      os << *dist[l];
    else
      os << (dirs[l] == Dir::EQ ? "=" : dirs[l] == Dir::LT ? "<" : ">");
  }
  os << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// Rectangular hull
// ---------------------------------------------------------------------------

namespace {

/// Interval value of an affine expression given per-variable intervals.
void expr_interval(const ir::AffineExpr& e, const std::vector<Int>& lo,
                   const std::vector<Int>& hi, Int& out_lo, Int& out_hi) {
  out_lo = e.constant;
  out_hi = e.constant;
  for (size_t d = 0; d < e.coeffs.size(); ++d) {
    const Int c = e.coeffs[d];
    if (c == 0) continue;
    if (c > 0) {
      out_lo = checked_add(out_lo, checked_mul(c, lo[d]));
      out_hi = checked_add(out_hi, checked_mul(c, hi[d]));
    } else {
      out_lo = checked_add(out_lo, checked_mul(c, hi[d]));
      out_hi = checked_add(out_hi, checked_mul(c, lo[d]));
    }
  }
}

}  // namespace

Hull iteration_hull(const ir::LoopNest& nest) {
  Hull hull;
  const int d = nest.depth();
  hull.lo.assign(static_cast<size_t>(d), 0);
  hull.hi.assign(static_cast<size_t>(d), 0);
  for (int k = 0; k < d; ++k) {
    const ir::Loop& lp = nest.loops[static_cast<size_t>(k)];
    // Effective lower = max(bounds): its minimum is >= max of per-bound
    // minima, which is a valid hull lower bound.
    Int lo = INT64_MIN, hi = INT64_MAX;
    for (const ir::Bound& b : lp.lowers) {
      Int blo = 0, bhi = 0;
      expr_interval(b.expr, hull.lo, hull.hi, blo, bhi);
      lo = std::max(lo, linalg::ceil_div(blo, b.divisor));
    }
    for (const ir::Bound& b : lp.uppers) {
      Int blo = 0, bhi = 0;
      expr_interval(b.expr, hull.lo, hull.hi, blo, bhi);
      hi = std::min(hi, linalg::floor_div(bhi, b.divisor));
    }
    DCT_CHECK(lo != INT64_MIN && hi != INT64_MAX, "loop without bounds");
    if (lo > hi) {
      hull.empty = true;
      hi = lo;  // keep well-formed intervals
    }
    hull.lo[static_cast<size_t>(k)] = lo;
    hull.hi[static_cast<size_t>(k)] = hi;
  }
  return hull;
}

// ---------------------------------------------------------------------------
// Banerjee + GCD feasibility of one direction vector for one ref pair
// ---------------------------------------------------------------------------

namespace {

/// Fourier–Motzkin feasibility systems of one analyze_pairs call. A system
/// is a flat list of rows of nvars + 1 Ints (see ir::normalize_row) over
/// (i, i'), the two copies of the nest's iteration vector, plus a list of
/// equalities in the same format; the buffers are reused from test to
/// test, and the bound rows of both copies are built once per nest.
class FmSystem {
 public:
  explicit FmSystem(const LoopNest& nest)
      : nest_(nest),
        nvars_(2 * nest.depth()),
        width_(static_cast<size_t>(nvars_) + 1) {}

  /// Start a system holding the bound rows and no equality.
  void reset() {
    if (bounds_.empty()) {
      ir::append_bound_rows(nest_, 0, nvars_, bounds_);             // i
      ir::append_bound_rows(nest_, nest_.depth(), nvars_, bounds_);  // i'
    }
    rows_.assign(bounds_.begin(), bounds_.end());
    eqs_.clear();
  }

  /// Append a zero row and return it.
  std::span<Int> add_row() { return append_zero(rows_); }

  /// Append the equality q == 0; `fill` sets q on a zero row.
  template <typename Fill>
  void add_equality(Fill&& fill) {
    fill(append_zero(eqs_));
  }

  /// Feasibility over the rationals (with gcd cuts): false means no integer
  /// solution exists; true is conservative. Equalities with a unit
  /// coefficient are substituted first, so their variables never enter
  /// elimination; the rest become the row pair q and -q. Caps work to stay
  /// cheap — on blow-up it answers true (sound). Eliminates the last
  /// variable first, keeps each step's rows deduplicated and sorted.
  bool feasible();

 private:
  static constexpr size_t kMaxRows = 4000;

  size_t count(const std::vector<Int>& buf) const {
    return buf.size() / width_;
  }
  std::span<Int> row(std::vector<Int>& buf, size_t r) const {
    return std::span<Int>(buf).subspan(r * width_, width_);
  }
  std::span<Int> append_zero(std::vector<Int>& buf) const {
    buf.resize(buf.size() + width_, 0);
    return std::span<Int>(buf).last(width_);
  }
  void substitute_equalities();

  const LoopNest& nest_;
  int nvars_;
  size_t width_;
  std::vector<Int> bounds_;
  std::vector<Int> rows_, next_;  ///< this step's system, the next one's
  std::vector<Int> eqs_;
  std::vector<size_t> lower_, upper_, order_;
};

/// x_v = -(the rest of q) for an equality q with a unit coefficient at v
/// is exact over the integers, so substituting it into every other row
/// and equality removes x_v without losing or adding an integer point.
/// Each substitution may give a remaining equality a unit coefficient, so
/// the scan restarts after one; the last variable with a unit coefficient
/// goes first, as elimination would reach it first.
void FmSystem::substitute_equalities() {
  size_t e = 0;
  while (e < count(eqs_)) {
    const std::span<Int> q = row(eqs_, e);
    int v = nvars_ - 1;
    while (v >= 0 && std::abs(q[static_cast<size_t>(v)]) != 1) --v;
    if (v < 0) {
      ++e;
      continue;
    }
    const auto at = static_cast<size_t>(v);
    if (q[at] < 0)
      for (Int& x : q) x = -x;
    const auto substitute = [&](std::span<Int> r) {
      const Int c = r[at];
      if (c == 0) return;
      for (size_t k = 0; k < width_; ++k)
        r[k] = linalg::checked_sub(r[k], checked_mul(c, q[k]));
    };
    for (size_t r = 0; r < count(rows_); ++r) substitute(row(rows_, r));
    for (size_t r = 0; r < count(eqs_); ++r)
      if (r != e) substitute(row(eqs_, r));
    eqs_.erase(eqs_.begin() + static_cast<std::ptrdiff_t>(e * width_),
               eqs_.begin() + static_cast<std::ptrdiff_t>((e + 1) * width_));
    e = 0;
  }
  for (size_t r = 0; r < count(eqs_); ++r) {
    const std::span<Int> q = row(eqs_, r);
    if (std::all_of(q.begin(), q.end(), [](Int x) { return x == 0; }))
      continue;  // 0 == 0: substitution made it trivial
    rows_.insert(rows_.end(), q.begin(), q.end());
    const std::span<Int> neg = append_zero(rows_);
    for (size_t k = 0; k < width_; ++k) neg[k] = -q[k];
  }
}

bool FmSystem::feasible() {
  substitute_equalities();
  for (size_t r = 0; r < count(rows_); ++r) ir::normalize_row(row(rows_, r));
  bool distinct = false;  // rows_ is sorted and free of duplicates
  for (int v = nvars_ - 1; v >= 0; --v) {
    const auto at = static_cast<size_t>(v);
    lower_.clear();
    upper_.clear();
    for (size_t r = 0; r < count(rows_); ++r) {
      const Int c = row(rows_, r)[at];
      if (c > 0)
        lower_.push_back(r);
      else if (c < 0)
        upper_.push_back(r);
    }
    if (lower_.empty() && upper_.empty()) continue;  // x_v was substituted
    next_.clear();
    for (size_t r = 0; r < count(rows_); ++r) {
      const std::span<Int> q = row(rows_, r);
      if (q[at] == 0) next_.insert(next_.end(), q.begin(), q.end());
    }
    if (lower_.size() * upper_.size() + count(next_) > kMaxRows) return true;
    const size_t kept = count(next_);
    for (const size_t lo : lower_)
      for (const size_t hi : upper_) {
        const std::span<Int> q = append_zero(next_);
        ir::eliminate_row(row(rows_, lo), row(rows_, hi), v, q);
        if (std::all_of(q.begin(), q.end() - 1, [](Int x) { return x == 0; })) {
          if (q.back() < 0) return false;
          next_.resize(next_.size() - width_);  // trivially satisfied
        }
      }
    if (distinct && count(next_) == kept) {  // an ordered subset of rows_
      rows_.swap(next_);
      continue;
    }
    // Deduplicate to control growth: rows_ becomes next_'s distinct rows in
    // lexicographic order (coefficients, then the constant).
    distinct = true;
    order_.resize(count(next_));
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      return std::ranges::lexicographical_compare(row(next_, a),
                                                  row(next_, b));
    });
    rows_.clear();
    for (const size_t r : order_) {
      const std::span<Int> q = row(next_, r);
      if (rows_.empty() ||
          !std::ranges::equal(q, std::span<Int>(rows_).last(width_)))
        rows_.insert(rows_.end(), q.begin(), q.end());
    }
  }
  for (size_t r = 0; r < count(rows_); ++r)
    if (row(rows_, r).back() < 0) return false;
  return true;
}

/// Can src (executed at iteration i) and dst (at i') touch the same element
/// with the given direction constraints (src before dst)? Decided by exact
/// rational Fourier–Motzkin over the full constraint system (handles
/// triangular bounds) plus per-dimension Banerjee/GCD screening.
/// Conservative: returns true unless independence is proven.
/// `dirs` may be shorter than the nest depth (imperfect nests: direction
/// constraints only apply to the loops common to both statements); deeper
/// levels are unconstrained free variables.
bool direction_feasible(const ir::LoopNest& nest, const ArrayRef& src,
                        const ArrayRef& dst, const Hull& hull,
                        const std::vector<Dir>& dirs, FmSystem& fm) {
  const int depth = nest.depth();
  const int common = static_cast<int>(dirs.size());
  const int rank = src.access.rows();
  for (int r = 0; r < rank; ++r) {
    // Equation over (per-level vars):  sum of terms == rhs.
    //   a_k = src.access(r,k) applies to i_k, b_k = -dst.access(r,k) to i'_k.
    const Int rhs = linalg::checked_sub(dst.offset[static_cast<size_t>(r)],
                                        src.offset[static_cast<size_t>(r)]);
    Int min_sum = 0, max_sum = 0, g = 0;
    bool infeasible = false;
    auto acc = [](const IntMatrix& m, int row, int col) {
      return col < m.cols() ? m.at(row, col) : 0;
    };
    for (int k = 0; k < depth && !infeasible; ++k) {
      const Int a = acc(src.access, r, k);
      const Int b = -acc(dst.access, r, k);
      const Int lo = hull.lo[static_cast<size_t>(k)];
      const Int hi = hull.hi[static_cast<size_t>(k)];
      const Int span = hi - lo;
      auto add_term = [&](Int coeff, Int tlo, Int thi) {
        if (coeff == 0) return;
        g = linalg::gcd(g, coeff);
        if (coeff > 0) {
          min_sum = checked_add(min_sum, checked_mul(coeff, tlo));
          max_sum = checked_add(max_sum, checked_mul(coeff, thi));
        } else {
          min_sum = checked_add(min_sum, checked_mul(coeff, thi));
          max_sum = checked_add(max_sum, checked_mul(coeff, tlo));
        }
      };
      if (k >= common) {  // free: i_k and i'_k range independently
        add_term(a, lo, hi);
        add_term(b, lo, hi);
        continue;
      }
      switch (dirs[static_cast<size_t>(k)]) {
        case Dir::EQ:
          add_term(checked_add(a, b), lo, hi);
          break;
        case Dir::LT:  // i'_k = i_k + delta, delta in [1, span]
          if (span < 1) {
            infeasible = true;
            break;
          }
          add_term(checked_add(a, b), lo, hi);
          add_term(b, 1, span);
          break;
        case Dir::GT:  // i_k = i'_k + delta, delta in [1, span]
          if (span < 1) {
            infeasible = true;
            break;
          }
          add_term(checked_add(a, b), lo, hi);
          add_term(a, 1, span);
          break;
      }
    }
    if (infeasible) return false;
    if (rhs < min_sum || rhs > max_sum) return false;  // Banerjee
    if (g == 0) {
      if (rhs != 0) return false;
    } else if (rhs % g != 0) {
      return false;  // GCD
    }
  }

  // Exact rational feasibility over (i, i') with the true (possibly
  // triangular) bounds, direction constraints and subscript equalities.
  fm.reset();
  for (int k = 0; k < common; ++k) {
    const auto i = static_cast<size_t>(k), ip = static_cast<size_t>(depth + k);
    switch (dirs[i]) {
      case Dir::EQ:  // i'_k - i_k == 0
        fm.add_equality([&](std::span<Int> q) {
          q[ip] = 1;
          q[i] = -1;
        });
        break;
      case Dir::LT: {  // i'_k - i_k - 1 >= 0
        const std::span<Int> q = fm.add_row();
        q[ip] = 1;
        q[i] = -1;
        q.back() = -1;
        break;
      }
      case Dir::GT: {  // i_k - i'_k - 1 >= 0
        const std::span<Int> q = fm.add_row();
        q[i] = 1;
        q[ip] = -1;
        q.back() = -1;
        break;
      }
    }
  }
  auto acc = [](const IntMatrix& m, int row, int col) {
    return col < m.cols() ? m.at(row, col) : 0;
  };
  for (int r = 0; r < rank; ++r) {
    const Int c0 = linalg::checked_sub(src.offset[static_cast<size_t>(r)],
                                       dst.offset[static_cast<size_t>(r)]);
    fm.add_equality([&](std::span<Int> q) {
      for (int k = 0; k < depth; ++k) {
        q[static_cast<size_t>(k)] = acc(src.access, r, k);
        q[static_cast<size_t>(depth + k)] = -acc(dst.access, r, k);
      }
      q.back() = c0;
    });
  }
  return fm.feasible();
}

/// Exact dependence for a uniformly generated pair (equal access
/// matrices): element equality F i + o_src = F i' + o_dst gives
/// F (i' - i) = o_src - o_dst. Returns the unique delta when F has full
/// column rank, nullopt when no integral solution exists, and no value via
/// `unique=false` when delta is underdetermined (caller falls back to
/// direction testing). One integer elimination decides all three.
std::optional<Vec> uniform_distance(const ArrayRef& src, const ArrayRef& dst,
                                    bool& unique) {
  unique = false;
  if (src.access != dst.access) return std::nullopt;
  Vec rhs(src.offset.size());
  for (size_t r = 0; r < rhs.size(); ++r)
    rhs[r] = linalg::checked_sub(src.offset[r], dst.offset[r]);
  // No integral delta means the two references never overlap.
  return linalg::solve_unique_integral(src.access, rhs, unique);
}

/// Is there an in-hull iteration pair separated by exactly `delta`?
bool distance_in_hull(const Vec& delta, const Hull& hull) {
  for (size_t k = 0; k < delta.size(); ++k) {
    const Int span = hull.hi[k] - hull.lo[k];
    if (std::abs(delta[k]) > span) return false;
  }
  return true;
}

void canonicalize(Vec& delta) {
  for (Int v : delta) {
    if (v > 0) return;
    if (v < 0) {
      for (Int& x : delta) x = -x;
      return;
    }
  }
}

/// One reference of a statement, with the statement's effective depth.
struct Access {
  const ArrayRef* ref;
  bool is_write;
  int depth;
};

/// Step `dirs` to the next canonical direction vector of its length, in
/// the order all-EQ first, then the carried shapes EQ^l LT
/// {EQ,LT,GT}^(len-l-1) (first non-EQ is LT) by increasing l, each tail
/// counted in base 3 with its first component fastest. Returns false after
/// the last one.
bool next_canonical(std::vector<Dir>& dirs) {
  const size_t len = dirs.size();
  size_t l = 0;
  while (l < len && dirs[l] == Dir::EQ) ++l;
  if (l == len) {  // all-EQ: the first carried shape is LT EQ...
    if (len == 0) return false;
    dirs[0] = Dir::LT;
    return true;
  }
  for (size_t t = l + 1; t < len; ++t) {  // count the tail up
    if (dirs[t] != Dir::GT) {
      dirs[t] = static_cast<Dir>(static_cast<int>(dirs[t]) + 1);
      return true;
    }
    dirs[t] = Dir::EQ;
  }
  if (l + 1 == len) return false;  // EQ^(len-1) LT was the last one
  dirs[l] = Dir::EQ;  // carry to the next level: EQ^(l+1) LT EQ...
  dirs[l + 1] = Dir::LT;
  return true;
}

/// Collect the dependence vectors between one access pair into `add`.
/// Vectors are length-d (extended with EQ past the common loops) and
/// canonicalized for uniformly generated full-depth pairs. All-EQ
/// (loop-independent) vectors are reported only when
/// `keep_loop_independent` (pairs of distinct statements).
template <typename Add>
void vectors_for_pair(const LoopNest& nest, const Hull& hull, int d,
                      const Access& a1, const Access& a2,
                      bool keep_loop_independent, std::vector<Dir>& dirs,
                      FmSystem& fm, Add&& add) {
  if (!a1.is_write && !a2.is_write) return;
  if (a1.ref->array != a2.ref->array) return;
  const int common = std::min(a1.depth, a2.depth);
  // Uniformly generated full-depth pair: exact distance.
  if (a1.depth == d && a2.depth == d) {
    bool unique = false;
    const auto delta = uniform_distance(*a1.ref, *a2.ref, unique);
    if (unique) {
      if (!delta.has_value()) return;  // proven independent
      Vec dv = *delta;
      if (!distance_in_hull(dv, hull)) return;
      canonicalize(dv);
      DepVector v;
      v.dirs.reserve(static_cast<size_t>(d));
      v.dist.reserve(static_cast<size_t>(d));
      for (Int x : dv) {
        v.dirs.push_back(x == 0 ? Dir::EQ : x > 0 ? Dir::LT : Dir::GT);
        v.dist.push_back(x);
      }
      if (keep_loop_independent || !v.loop_independent()) add(std::move(v));
      return;
    }
  }
  // General pair: test every canonical direction vector over the loops
  // common to both statements, one at a time (the all-EQ one only when
  // loop-independent vectors are kept); Banerjee and GCD screen each test
  // before Fourier–Motzkin runs.
  dirs.assign(static_cast<size_t>(common), Dir::EQ);
  bool all_eq = true;
  do {
    if ((keep_loop_independent || !all_eq) &&
        direction_feasible(nest, *a1.ref, *a2.ref, hull, dirs, fm)) {
      DepVector v;
      v.dirs.reserve(static_cast<size_t>(d));
      v.dirs.assign(dirs.begin(), dirs.end());
      v.dirs.resize(static_cast<size_t>(d), Dir::EQ);
      v.dist.assign(static_cast<size_t>(d), std::nullopt);
      for (int k = 0; k < d; ++k)
        if (v.dirs[static_cast<size_t>(k)] == Dir::EQ)
          v.dist[static_cast<size_t>(k)] = 0;
      add(std::move(v));
    }
    all_eq = false;
  } while (next_canonical(dirs));
}

// ---------------------------------------------------------------------------
// Nest-level analysis
// ---------------------------------------------------------------------------

/// Append `v` unless `vs` already holds it.
void add_unique(std::vector<DepVector>& vs, DepVector v) {
  if (std::find(vs.begin(), vs.end(), v) == vs.end())
    vs.push_back(std::move(v));
}

}  // namespace

std::vector<PairDeps> analyze_pairs(const LoopNest& nest) {
  std::vector<PairDeps> out;
  const int d = nest.depth();
  const Hull hull = iteration_hull(nest);
  if (hull.empty || d == 0) return out;

  const int nstmts = static_cast<int>(nest.stmts.size());
  std::vector<std::vector<Access>> by_stmt(static_cast<size_t>(nstmts));
  for (int si = 0; si < nstmts; ++si) {
    const ir::Stmt& s = nest.stmts[static_cast<size_t>(si)];
    const int sd = s.effective_depth(d);
    for (const ArrayRef& r : s.reads)
      by_stmt[static_cast<size_t>(si)].push_back({&r, false, sd});
    by_stmt[static_cast<size_t>(si)].push_back({&s.write, true, sd});
  }

  std::vector<Dir> dirs;  // the direction vector under test
  FmSystem fm(nest);
  for (int si = 0; si < nstmts; ++si)
    for (int sj = 0; sj < nstmts; ++sj) {
      PairDeps pd{si, sj, {}};
      // A statement instance executes atomically, so a same-iteration
      // "dependence" of a statement on itself orders nothing.
      for (const Access& a1 : by_stmt[static_cast<size_t>(si)])
        for (const Access& a2 : by_stmt[static_cast<size_t>(sj)])
          vectors_for_pair(nest, hull, d, a1, a2, si != sj, dirs, fm,
                           [&](DepVector v) {
                             add_unique(pd.vectors, std::move(v));
                           });
      if (!pd.vectors.empty()) out.push_back(std::move(pd));
    }
  return out;
}

NestDeps summarize(const std::vector<PairDeps>& pairs) {
  NestDeps out;
  for (const PairDeps& pd : pairs)
    for (const DepVector& v : pd.vectors)
      if (!v.loop_independent()) add_unique(out.vectors, v);
  return out;
}

std::vector<bool> carried_levels(const std::vector<DepVector>& vectors,
                                 int depth) {
  std::vector<bool> carried(static_cast<size_t>(depth), false);
  for (const DepVector& v : vectors) {
    const int l = v.carrier_level();
    if (l >= 0) carried[static_cast<size_t>(l)] = true;
  }
  return carried;
}

bool NestDeps::pipelinable(int level) const {
  bool carries = false;
  for (const DepVector& v : vectors) {
    if (v.carrier_level() != level) continue;
    carries = true;
    const auto& dist = v.dist[static_cast<size_t>(level)];
    if (!dist.has_value() || *dist <= 0) return false;
  }
  return carries;
}

std::vector<bool> carried_levels_bruteforce(const LoopNest& nest) {
  const int d = nest.depth();
  std::vector<bool> carried(static_cast<size_t>(d), false);

  // Record every access: (array, flattened index) -> list of touches.
  struct Touch {
    Vec iter;
    bool write;
    int depth;
  };
  std::map<std::pair<int, Vec>, std::vector<Touch>> touches;
  ir::for_each_iteration(nest, [&](std::span<const Int> iter,
                                   std::span<const Int> lower) {
    Vec it(iter.begin(), iter.end());
    for (const ir::Stmt& s : nest.stmts) {
      if (!s.fires(iter, lower)) continue;
      const int sd = s.effective_depth(d);
      for (const ArrayRef& r : s.reads)
        touches[{r.array, r.index(iter)}].push_back({it, false, sd});
      touches[{s.write.array, s.write.index(iter)}].push_back({it, true, sd});
    }
  });
  for (const auto& [key, list] : touches) {
    for (size_t i = 0; i < list.size(); ++i)
      for (size_t j = 0; j < list.size(); ++j) {
        if (!list[i].write && !list[j].write) continue;
        const int common = std::min(list[i].depth, list[j].depth);
        // Find first differing level among the common loops.
        for (int k = 0; k < common; ++k) {
          const Int a = list[i].iter[static_cast<size_t>(k)];
          const Int b = list[j].iter[static_cast<size_t>(k)];
          if (a != b) {
            carried[static_cast<size_t>(k)] = true;
            break;
          }
        }
      }
  }
  return carried;
}

}  // namespace dct::dep
