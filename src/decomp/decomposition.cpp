#include "decomp/decomposition.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <set>
#include <span>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::decomp {

using dep::ParallelizedNest;
using ir::ArrayRef;
using ir::LoopNest;
using ir::Program;
using linalg::Vec;

std::string to_string(DistKind kind) {
  switch (kind) {
    case DistKind::Serial: return "*";
    case DistKind::Block: return "BLOCK";
    case DistKind::Cyclic: return "CYCLIC";
    case DistKind::BlockCyclic: return "BLOCK-CYCLIC";
  }
  return "?";
}

Int fold_block(DistKind kind, Int extent, int procs, Int block) {
  switch (kind) {
    case DistKind::Block:
      return std::max<Int>(1, linalg::ceil_div(extent, procs));
    case DistKind::BlockCyclic:
      return std::max<Int>(1, block);
    default:
      return 1;
  }
}

int CoordFold::fold(Int v) const {
  const Int x = v - offset;
  switch (kind) {
    case DistKind::Serial:
      return 0;
    case DistKind::Block: {
      const Int c = linalg::floor_div(x, std::max<Int>(1, block));
      return static_cast<int>(std::clamp<Int>(c, 0, procs - 1));
    }
    case DistKind::Cyclic:
      return static_cast<int>(linalg::floor_mod(x, procs));
    case DistKind::BlockCyclic:
      return static_cast<int>(linalg::floor_mod(
          linalg::floor_div(x, std::max<Int>(1, block)), procs));
  }
  return 0;
}

int ArrayDecomposition::distributed_count() const {
  int n = 0;
  for (const auto& d : dims)
    if (d.kind != DistKind::Serial) ++n;
  return n;
}

std::string ArrayDecomposition::hpf_string() const {
  if (replicated) return "(replicated)";
  std::vector<std::string> parts;
  for (const auto& d : dims) parts.push_back(to_string(d.kind));
  return "(" + join(parts, ", ") + ")";
}

std::vector<int> factor_grid(int p, int dims) {
  std::vector<int> grid(static_cast<size_t>(std::max(dims, 1)), 1);
  if (dims <= 1) {
    grid[0] = p;
    return grid;
  }
  int best = 1;
  for (int f = 1; f * f <= p; ++f)
    if (p % f == 0) best = f;
  grid[0] = p / best;
  grid[1] = best;
  return grid;
}

std::vector<int> ProgramDecomposition::grid_extents(int procs) const {
  std::vector<int> out(static_cast<size_t>(num_proc_dims), procs);
  for (int i = 0; i < num_proc_dims; ++i) {
    const auto grid = factor_grid(procs, clique_size[static_cast<size_t>(i)]);
    out[static_cast<size_t>(i)] =
        grid[static_cast<size_t>(clique_pos[static_cast<size_t>(i)])];
  }
  return out;
}

namespace {

constexpr int kMaxProcDims = 2;       ///< virtual processor space rank limit
constexpr int kCostModelProcs = 32;   ///< reference machine for the cost model
constexpr Int kBlockCyclicBlock = 8;  ///< BLOCK-CYCLIC block size

constexpr int kConst = -1;    ///< dimension subscript is a constant
constexpr int kComplex = -2;  ///< subscript not a single unit loop variable

/// Classify one subscript row: the single loop variable indexing it (with
/// coefficient ±1), kConst, or kComplex.
int classify_row(const linalg::IntMatrix& access, int row) {
  int loop = kConst;
  for (int c = 0; c < access.cols(); ++c) {
    const Int v = access.at(row, c);
    if (v == 0) continue;
    if (loop != kConst) return kComplex;  // two loop variables
    if (v != 1 && v != -1) return kComplex;
    loop = c;
  }
  return loop;
}

struct RefInfo {
  int array = -1;
  bool is_write = false;
  std::vector<int> dim_loop;    ///< per array dim: loop / kConst / kComplex
  std::vector<Int> dim_offset;  ///< per array dim subscript offset
  double elems = 0;             ///< distinct elements touched x frequency
};

struct StmtInfo {
  std::vector<RefInfo> refs;  ///< the write, then the reads
  double exec = 0;            ///< dynamic executions x frequency
};

/// A group a nest can drive: the loop indexing the group's dimension in
/// the write of the nest's most-executed statement that has one, and how
/// that loop runs.
struct Drivable {
  int group = -1;
  int loop = -1;
  LoopSched sched = LoopSched::Sequential;
};

struct NestInfo {
  std::vector<StmtInfo> stmts;
  std::vector<double> span;  ///< hull span per loop (>= 1)
  double iters = 1;          ///< approximate iteration count
  /// Per loop: Distributed when it carries no dependence, else Pipelined
  /// when every dependence it carries has an exact positive distance,
  /// else Sequential.
  std::vector<LoopSched> sched;
  /// Filled once the alignment groups are known: per (statement, group),
  /// row-major, the loop indexing the group's dimension of the
  /// statement's write (-1 when none) ...
  std::vector<int> write_loop;
  /// ... and the groups the nest can drive, in group order.
  std::vector<Drivable> drivable;
};

NestInfo gather_nest_info(const ParallelizedNest& par, long frequency) {
  NestInfo info;
  const dep::Hull hull = dep::iteration_hull(par.nest);
  const int d = par.nest.depth();
  info.span.resize(static_cast<size_t>(d), 1.0);
  info.iters = 1.0;
  for (int k = 0; k < d; ++k) {
    const double s =
        hull.empty ? 0.0
                   : static_cast<double>(hull.hi[static_cast<size_t>(k)] -
                                         hull.lo[static_cast<size_t>(k)] + 1);
    info.span[static_cast<size_t>(k)] = std::max(1.0, s);
    info.iters *= info.span[static_cast<size_t>(k)];
  }
  const dep::NestDeps deps = dep::summarize(par.pairs);
  for (int k = 0; k < d; ++k)
    info.sched.push_back(par.parallel[static_cast<size_t>(k)]
                             ? LoopSched::Distributed
                         : deps.pipelinable(k) ? LoopSched::Pipelined
                                               : LoopSched::Sequential);

  for (const ir::Stmt& s : par.nest.stmts) {
    StmtInfo si;
    const int sd = s.effective_depth(d);
    si.exec = static_cast<double>(frequency);
    for (int k = 0; k < sd; ++k) si.exec *= info.span[static_cast<size_t>(k)];

    auto make_ref = [&](const ArrayRef& r, bool is_write) {
      RefInfo ri;
      ri.array = r.array;
      ri.is_write = is_write;
      ri.dim_loop.resize(static_cast<size_t>(r.access.rows()));
      ri.dim_offset = r.offset;
      std::vector<bool> varying(static_cast<size_t>(d), false);
      for (int row = 0; row < r.access.rows(); ++row) {
        ri.dim_loop[static_cast<size_t>(row)] = classify_row(r.access, row);
        for (int c = 0; c < r.access.cols(); ++c)
          if (r.access.at(row, c) != 0) varying[static_cast<size_t>(c)] = true;
      }
      ri.elems = static_cast<double>(frequency);
      for (int k = 0; k < d; ++k)
        if (varying[static_cast<size_t>(k)])
          ri.elems *= info.span[static_cast<size_t>(k)];
      return ri;
    };
    si.refs.push_back(make_ref(s.write, true));
    for (const ArrayRef& r : s.reads) si.refs.push_back(make_ref(r, false));
    info.stmts.push_back(std::move(si));
  }
  return info;
}

/// Union-find over (array, dim) nodes, refusing unions that would place
/// two dimensions of the same array in one group (each array dimension
/// maps to a distinct virtual processor dimension).
class AlignmentGroups {
 public:
  explicit AlignmentGroups(const Program& prog) {
    base_.push_back(0);
    for (const auto& a : prog.arrays)
      base_.push_back(base_.back() + static_cast<int>(a.dims.size()));
    parent_.resize(static_cast<size_t>(base_.back()));
    std::iota(parent_.begin(), parent_.end(), 0);
    arrays_.resize(parent_.size());
    for (int n = 0; n < base_.back(); ++n)
      arrays_[static_cast<size_t>(n)] = {array_of(n)};
  }

  int node_id(int array, int dim) const {
    return base_[static_cast<size_t>(array)] + dim;
  }
  int array_of(int node) const {
    int a = 0;
    while (base_[static_cast<size_t>(a) + 1] <= node) ++a;
    return a;
  }
  int dim_of(int node) const {
    return node - base_[static_cast<size_t>(array_of(node))];
  }
  int find(int x) {
    while (parent_[static_cast<size_t>(x)] != x)
      x = parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    return x;
  }
  bool unite(int a, int b) {
    const int ra = find(a), rb = find(b);
    if (ra == rb) return true;
    std::vector<int> common;
    std::set_intersection(arrays_[static_cast<size_t>(ra)].begin(),
                          arrays_[static_cast<size_t>(ra)].end(),
                          arrays_[static_cast<size_t>(rb)].begin(),
                          arrays_[static_cast<size_t>(rb)].end(),
                          std::back_inserter(common));
    if (!common.empty()) return false;
    parent_[static_cast<size_t>(ra)] = rb;
    arrays_[static_cast<size_t>(rb)].insert(
        arrays_[static_cast<size_t>(ra)].begin(),
        arrays_[static_cast<size_t>(ra)].end());
    return true;
  }
  int num_nodes() const { return base_.back(); }

 private:
  std::vector<int> base_;
  std::vector<int> parent_;
  std::vector<std::set<int>> arrays_;
};

/// Evaluation of one nest under one candidate view: the active groups
/// the nest's computation follows, each with its driving loop.
struct NestEval {
  std::array<Drivable, kMaxProcDims> view;
  size_t size = 0;  ///< groups in the view
  int dim_sum = 0;  ///< their summed dimension numbers (tie-break)
  double comm = 0;
  double boundary = 0;
  double score = 0;

  std::span<const Drivable> honored() const { return {view.data(), size}; }
  const Drivable* find(int group) const {
    for (const Drivable& dr : honored())
      if (dr.group == group) return &dr;
    return nullptr;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// The decomposition algorithm
// ---------------------------------------------------------------------------

ProgramDecomposition decompose(const Program& prog) {
  std::vector<ParallelizedNest> par;
  for (const LoopNest& nest : prog.nests) par.push_back(dep::parallelize(nest));
  ProgramDecomposition out = decompose_from(std::move(par), prog);
  select_folds(prog, out);
  eliminate_barriers(out);
  return out;
}

ProgramDecomposition decompose_from(std::vector<ParallelizedNest> par,
                                    const Program& prog,
                                    support::RemarkSink* rs) {
  ProgramDecomposition out;
  const int nnests = static_cast<int>(prog.nests.size());
  out.par = std::move(par);
  DCT_CHECK(static_cast<int>(out.par.size()) == nnests,
            "one parallelized nest required per program nest");

  std::vector<NestInfo> info;
  for (int j = 0; j < nnests; ++j)
    info.push_back(
        gather_nest_info(out.par[static_cast<size_t>(j)],
                         prog.nests[static_cast<size_t>(j)].frequency));

  AlignmentGroups ag(prog);
  const int nnodes = ag.num_nodes();

  // Read-only arrays are replicated (paper: "Read-only and seldom-written
  // data can be replicated"); they take no part in alignment.
  std::vector<bool> written(prog.arrays.size(), false);
  for (const auto& ni : info)
    for (const StmtInfo& si : ni.stmts)
      for (const RefInfo& r : si.refs)
        if (r.is_write) written[static_cast<size_t>(r.array)] = true;

  // Nodes with complex subscripts anywhere cannot be distributed under the
  // single-dimension restriction (paper 4.2).
  std::vector<bool> poisoned(static_cast<size_t>(nnodes), false);
  for (const auto& ni : info)
    for (const StmtInfo& si : ni.stmts)
      for (const RefInfo& r : si.refs)
        for (size_t k = 0; k < r.dim_loop.size(); ++k)
          if (r.dim_loop[k] == kComplex)
            poisoned[static_cast<size_t>(
                ag.node_id(r.array, static_cast<int>(k)))] = true;

  // Alignment: in each nest, dimensions indexed by the same loop are
  // aligned when a write participates (owner-computes locality) or the
  // reads belong to different arrays. Same-array read-read pairs (the LU
  // pivot A(k,k)) represent broadcast traffic, not alignment.
  for (int j = 0; j < nnests; ++j) {
    const int d = out.par[static_cast<size_t>(j)].nest.depth();
    for (int l = 0; l < d; ++l) {
      std::vector<std::pair<int, bool>> on_loop;  // (node, is_write)
      for (const StmtInfo& si : info[static_cast<size_t>(j)].stmts)
        for (const RefInfo& r : si.refs) {
          if (!written[static_cast<size_t>(r.array)]) continue;
          for (size_t k = 0; k < r.dim_loop.size(); ++k)
            if (r.dim_loop[k] == l)
              on_loop.push_back(
                  {ag.node_id(r.array, static_cast<int>(k)), r.is_write});
        }
      for (size_t a = 0; a < on_loop.size(); ++a)
        for (size_t b = a + 1; b < on_loop.size(); ++b) {
          const bool any_write = on_loop[a].second || on_loop[b].second;
          const bool same_array = ag.array_of(on_loop[a].first) ==
                                  ag.array_of(on_loop[b].first);
          if (any_write || !same_array)
            ag.unite(on_loop[a].first, on_loop[b].first);
        }
    }
  }

  // Candidate groups: roots of distributable nodes of written arrays.
  std::vector<int> group_of(static_cast<size_t>(nnodes), -1);
  std::vector<int> groups;  // representative node per group
  for (int n = 0; n < nnodes; ++n) {
    if (!written[static_cast<size_t>(ag.array_of(n))]) continue;
    const int root = ag.find(n);
    if (poisoned[static_cast<size_t>(n)] || poisoned[static_cast<size_t>(root)])
      continue;
    auto it = std::find(groups.begin(), groups.end(), root);
    if (it == groups.end()) {
      groups.push_back(root);
      group_of[static_cast<size_t>(n)] = static_cast<int>(groups.size()) - 1;
    } else {
      group_of[static_cast<size_t>(n)] = static_cast<int>(it - groups.begin());
    }
  }
  const int ngroups = static_cast<int>(groups.size());

  // For tie-breaks: FORTRAN column-major locality prefers distributing
  // higher (slower-varying) dimensions.
  std::vector<int> dim_sum(static_cast<size_t>(ngroups), 0);
  for (int n = 0; n < nnodes; ++n)
    if (group_of[static_cast<size_t>(n)] >= 0)
      dim_sum[static_cast<size_t>(group_of[static_cast<size_t>(n)])] +=
          ag.dim_of(n);

  // Which groups can each nest drive, and by which loop? The most-executed
  // statement writing a dimension of the group decides.
  for (NestInfo& ni : info) {
    ni.write_loop.assign(ni.stmts.size() * static_cast<size_t>(ngroups), -1);
    for (int g = 0; g < ngroups; ++g) {
      double dominant_exec = -1;
      int dominant_loop = -1;
      for (size_t s = 0; s < ni.stmts.size(); ++s) {
        const StmtInfo& si = ni.stmts[s];
        const RefInfo& w = si.refs.front();
        for (size_t k = 0; k < w.dim_loop.size(); ++k)
          if (group_of[static_cast<size_t>(
                  ag.node_id(w.array, static_cast<int>(k)))] == g &&
              w.dim_loop[k] >= 0) {
            ni.write_loop[s * static_cast<size_t>(ngroups) +
                          static_cast<size_t>(g)] = w.dim_loop[k];
            if (si.exec > dominant_exec) {
              dominant_exec = si.exec;
              dominant_loop = w.dim_loop[k];
            }
          }
      }
      if (dominant_loop >= 0)
        ni.drivable.push_back(
            {g, dominant_loop, ni.sched[static_cast<size_t>(dominant_loop)]});
    }
  }

  // The cost model's processor grid for a view of one and of two groups.
  const std::vector<int> grids[kMaxProcDims] = {
      factor_grid(kCostModelProcs, 1), factor_grid(kCostModelProcs, 2)};

  // --- per-nest evaluation under an active-group set S ---
  //
  // The nest picks the "view" (subset of S it follows, one loop per group,
  // at most max_proc_dims groups) minimizing its own cost; S-groups it
  // does not follow but whose arrays it writes cost communication.
  auto evaluate_nest = [&](int j, const std::vector<bool>& active) {
    const NestInfo& ni = info[static_cast<size_t>(j)];
    const double work =
        ni.iters *
        static_cast<double>(prog.nests[static_cast<size_t>(j)].frequency);

    // Communication/boundary of a view. Offsets along a pipelined
    // dimension are not charged as boundary traffic — the pipeline
    // efficiency factor already models that flow.
    auto charge = [&](NestEval& ev, double grid_each) {
      for (size_t s = 0; s < ni.stmts.size(); ++s) {
        const StmtInfo& si = ni.stmts[s];
        for (const RefInfo& r : si.refs) {
          for (size_t k = 0; k < r.dim_loop.size(); ++k) {
            const int g = group_of[static_cast<size_t>(
                ag.node_id(r.array, static_cast<int>(k)))];
            if (g < 0 || !active[static_cast<size_t>(g)]) continue;
            const Drivable* dr = ev.find(g);
            if (dr == nullptr) {
              // Array dimension distributed but computation not aligned.
              ev.comm += (r.is_write ? 1.0 : 0.5) * r.elems;
              continue;
            }
            const int write_loop = ni.write_loop[
                s * static_cast<size_t>(ngroups) + static_cast<size_t>(g)];
            const int owner_loop = write_loop >= 0 ? write_loop : dr->loop;
            const int l = r.dim_loop[k];
            if (l >= 0 && l != owner_loop) {
              ev.comm += r.elems;
            } else if (l == owner_loop && r.dim_offset[k] != 0 &&
                       dr->sched != LoopSched::Pipelined) {
              ev.boundary += r.elems / ni.span[static_cast<size_t>(l)] *
                             grid_each;
            } else if (l == kConst && r.is_write) {
              ev.comm += r.elems;
            }
          }
        }
      }
    };

    // Enumerate views of size 0, 1 and 2.
    NestEval best;
    charge(best, 1.0);
    best.score = work + 16.0 * best.comm + 4.0 * best.boundary;

    auto consider = [&](std::initializer_list<Drivable> view) {
      NestEval ev;
      for (const Drivable& dr : view) {
        ev.view[ev.size++] = dr;
        ev.dim_sum += dim_sum[static_cast<size_t>(dr.group)];
      }
      // Distinct driving loops required.
      if (ev.size == 2 && ev.view[0].loop == ev.view[1].loop) return;
      const std::vector<int>& grid = grids[ev.size - 1];
      double par_factor = 1;
      for (size_t i = 0; i < ev.size; ++i) {
        const double extent = static_cast<double>(grid[i]);
        if (ev.view[i].sched == LoopSched::Distributed)
          par_factor *= extent;
        else if (ev.view[i].sched == LoopSched::Pipelined)
          par_factor *= 0.25 * extent;
      }
      charge(ev, static_cast<double>(grid[0]) / (ev.size == 2 ? 2.0 : 1.0));
      // Communication and boundary traffic are also spread across the
      // machine; everything is charged in per-processor time.
      ev.score = (work + 16.0 * ev.comm + 4.0 * ev.boundary) /
                 std::max(1.0, par_factor);
      // Strict improvement, with a column-major tie-break.
      const bool tie =
          std::abs(ev.score - best.score) <=
          1e-6 * std::max(std::abs(ev.score), std::abs(best.score));
      if ((!tie && ev.score < best.score) || (tie && ev.dim_sum > best.dim_sum))
        best = ev;
    };
    const auto is_active = [&](const Drivable& dr) {
      return active[static_cast<size_t>(dr.group)];
    };
    for (const Drivable& a : ni.drivable)
      if (is_active(a)) consider({a});
    if (kMaxProcDims >= 2)
      for (const Drivable& a : ni.drivable)
        for (const Drivable& b : ni.drivable)
          if (is_active(a) && is_active(b) && a.group != b.group)
            consider({a, b});
    return best;
  };

  auto score_state = [&](const std::vector<bool>& active) {
    double total = 0;
    for (int j = 0; j < nnests; ++j) total += evaluate_nest(j, active).score;
    return total;
  };

  // --- hill-climbing group selection (the paper's greedy, revisited as
  // local search: start from "all serial" and activate/deactivate groups
  // while the global cost estimate improves) ---
  std::vector<bool> active(static_cast<size_t>(ngroups), false);
  double cur = score_state(active);
  bool improved = true;
  while (improved) {
    improved = false;
    int best_flip = -1;
    double best_sc = cur;
    int best_dim_sum = -1;
    for (int g = 0; g < ngroups; ++g) {
      active[static_cast<size_t>(g)] = !active[static_cast<size_t>(g)];
      const double sc = score_state(active);
      active[static_cast<size_t>(g)] = !active[static_cast<size_t>(g)];
      const bool tie = std::abs(sc - best_sc) <=
                       1e-6 * std::max(std::abs(sc), std::abs(best_sc));
      if ((!tie && sc < best_sc) ||
          (tie && best_flip >= 0 &&
           dim_sum[static_cast<size_t>(g)] > best_dim_sum)) {
        best_sc = sc;
        best_flip = g;
        best_dim_sum = dim_sum[static_cast<size_t>(g)];
      }
    }
    if (best_flip >= 0 && best_sc < cur * (1.0 - 1e-9)) {
      active[static_cast<size_t>(best_flip)] =
          !active[static_cast<size_t>(best_flip)];
      cur = best_sc;
      improved = true;
    }
  }

  // --- build the final decomposition ---
  std::vector<NestEval> evals;
  for (int j = 0; j < nnests; ++j) evals.push_back(evaluate_nest(j, active));

  // Virtual processor dimensions: one per active group actually honored by
  // some nest.
  std::vector<int> dim_of_group(static_cast<size_t>(ngroups), -1);
  for (const NestEval& ev : evals)
    for (const Drivable& dr : ev.honored())
      if (dim_of_group[static_cast<size_t>(dr.group)] < 0)
        dim_of_group[static_cast<size_t>(dr.group)] = out.num_proc_dims++;

  // Co-activity cliques for grid folding.
  out.clique_size.assign(static_cast<size_t>(out.num_proc_dims), 1);
  out.clique_pos.assign(static_cast<size_t>(out.num_proc_dims), 0);
  out.clique_id.resize(static_cast<size_t>(out.num_proc_dims));
  std::iota(out.clique_id.begin(), out.clique_id.end(), 0);
  for (const NestEval& ev : evals) {
    if (ev.size < 2) continue;
    std::vector<int> dims;
    for (const Drivable& dr : ev.honored())
      dims.push_back(dim_of_group[static_cast<size_t>(dr.group)]);
    std::sort(dims.begin(), dims.end());
    for (size_t i = 0; i < dims.size(); ++i) {
      auto& sz = out.clique_size[static_cast<size_t>(dims[i])];
      sz = std::max(sz, static_cast<int>(dims.size()));
      out.clique_pos[static_cast<size_t>(dims[i])] =
          std::max(out.clique_pos[static_cast<size_t>(dims[i])],
                   static_cast<int>(i));
      out.clique_id[static_cast<size_t>(dims[i])] =
          out.clique_id[static_cast<size_t>(dims[0])];
    }
  }

  out.nests.resize(static_cast<size_t>(nnests));
  for (int j = 0; j < nnests; ++j) {
    const NestEval& ev = evals[static_cast<size_t>(j)];
    const NestInfo& ni = info[static_cast<size_t>(j)];
    const ParallelizedNest& nestpar = out.par[static_cast<size_t>(j)];
    NestDecomposition& nd = out.nests[static_cast<size_t>(j)];
    nd.loops.assign(static_cast<size_t>(nestpar.nest.depth()),
                    LoopAssignment{});
    nd.comm_free = ev.comm == 0;
    nd.boundary_free = ev.boundary == 0;
    // The cost model charges nothing for a written array that has no
    // dimension in a group this nest distributes, yet every processor
    // may then touch the same element of it.
    for (const StmtInfo& si : ni.stmts)
      for (const RefInfo& r : si.refs) {
        if (!written[static_cast<size_t>(r.array)]) continue;
        for (const Drivable& dr : ev.honored()) {
          bool in_group = false;
          for (size_t k = 0; k < r.dim_loop.size(); ++k)
            in_group |= group_of[static_cast<size_t>(ag.node_id(
                            r.array, static_cast<int>(k)))] == dr.group;
          nd.owner_pinned = nd.owner_pinned && in_group;
        }
      }
    nd.stmts.assign(nestpar.nest.stmts.size(), StmtMapping{});
    for (size_t s = 0; s < nd.stmts.size(); ++s) {
      nd.stmts[s].loop_for_dim.assign(
          static_cast<size_t>(out.num_proc_dims), -1);
      for (int g = 0; g < ngroups; ++g) {
        const int loop = ni.write_loop[s * static_cast<size_t>(ngroups) +
                                       static_cast<size_t>(g)];
        const int pd = dim_of_group[static_cast<size_t>(g)];
        if (loop >= 0 && pd >= 0)
          nd.stmts[s].loop_for_dim[static_cast<size_t>(pd)] = loop;
      }
    }
    for (const Drivable& dr : ev.honored()) {
      const int l = dr.loop;
      LoopAssignment& la = nd.loops[static_cast<size_t>(l)];
      la.proc_dim = dim_of_group[static_cast<size_t>(dr.group)];
      la.sched = dr.sched;
      // Load-balance fact for folding-function selection: bounds of the
      // distributed loop varying with outer loops, or inner bounds varying
      // with it, mean triangular work.
      bool varying = false;
      const ir::Loop& lp = nestpar.nest.loops[static_cast<size_t>(l)];
      auto has_coeffs = [](const ir::Bound& b) {
        return std::any_of(b.expr.coeffs.begin(), b.expr.coeffs.end(),
                           [](Int c) { return c != 0; });
      };
      for (const ir::Bound& b : lp.lowers) varying |= has_coeffs(b);
      for (const ir::Bound& b : lp.uppers) varying |= has_coeffs(b);
      for (int k2 = l + 1; k2 < nestpar.nest.depth(); ++k2) {
        const ir::Loop& lp2 = nestpar.nest.loops[static_cast<size_t>(k2)];
        auto dep_on_l = [&](const ir::Bound& b) {
          return static_cast<int>(b.expr.coeffs.size()) > l &&
                 b.expr.coeffs[static_cast<size_t>(l)] != 0;
        };
        for (const ir::Bound& b : lp2.lowers) varying |= dep_on_l(b);
        for (const ir::Bound& b : lp2.uppers) varying |= dep_on_l(b);
      }
      la.imbalanced = varying;
    }
    if (rs != nullptr) {
      support::ScopedSink nest_rs(rs, j, prog.nests[static_cast<size_t>(j)].name);
      std::vector<std::string> scheds;
      for (size_t l = 0; l < nd.loops.size(); ++l)
        if (nd.loops[l].proc_dim >= 0)
          scheds.push_back(strf(
              "loop %d %s p%d%s", static_cast<int>(l),
              nd.loops[l].sched == LoopSched::Distributed ? "DOALL" : "PIPE",
              nd.loops[l].proc_dim, nd.loops[l].imbalanced ? " imbalanced" : ""));
      nest_rs.note(strf(
          "%s%s%s",
          scheds.empty() ? "serial (no group honored)" : join(scheds, ", ").c_str(),
          nd.comm_free ? ", comm-free" : ", +comm",
          nd.boundary_free ? "" : ", boundary reads"));
      if (!nd.comm_free) nest_rs.count("nests_with_comm");
    }
  }

  // Array decompositions. Every distributed dimension starts BLOCK; the
  // folding-function selection stage may upgrade it.
  out.arrays.resize(prog.arrays.size());
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    ArrayDecomposition& ad = out.arrays[a];
    ad.dims.assign(prog.arrays[a].dims.size(), DimDistribution{});
    if (!written[a]) {
      ad.replicated = true;
      if (rs != nullptr) {
        support::ScopedSink arr_rs(rs, -1, {}, static_cast<int>(a),
                                   prog.arrays[a].name);
        arr_rs.note("read-only: replicated on every cluster");
        arr_rs.count("arrays_replicated");
      }
      continue;
    }
    for (size_t k = 0; k < ad.dims.size(); ++k) {
      const int g = group_of[static_cast<size_t>(
          ag.node_id(static_cast<int>(a), static_cast<int>(k)))];
      if (g < 0 || !active[static_cast<size_t>(g)]) continue;
      const int pd = dim_of_group[static_cast<size_t>(g)];
      if (pd < 0) continue;
      ad.dims[k].kind = DistKind::Block;
      ad.dims[k].proc_dim = pd;
    }
  }
  if (rs != nullptr) {
    rs->count("alignment_groups", ngroups);
    rs->count("active_groups",
              std::count(active.begin(), active.end(), true));
    rs->count("proc_dims", out.num_proc_dims);
  }
  return out;
}

void select_folds(const Program& prog, ProgramDecomposition& d,
                  support::RemarkSink* rs) {
  // CYCLIC wins over BLOCK-CYCLIC wins over BLOCK, across every nest that
  // drives the dimension (order-independent).
  std::vector<DistKind> fold(static_cast<size_t>(d.num_proc_dims),
                             DistKind::Block);
  for (const NestDecomposition& nd : d.nests)
    for (const LoopAssignment& la : nd.loops) {
      if (la.proc_dim < 0 || !la.imbalanced) continue;
      DistKind& f = fold[static_cast<size_t>(la.proc_dim)];
      if (la.sched == LoopSched::Distributed)
        f = DistKind::Cyclic;
      else if (la.sched == LoopSched::Pipelined && f == DistKind::Block)
        f = DistKind::BlockCyclic;
    }

  for (size_t a = 0; a < d.arrays.size(); ++a) {
    ArrayDecomposition& ad = d.arrays[a];
    bool changed = false;
    for (DimDistribution& dd : ad.dims) {
      if (dd.kind == DistKind::Serial || dd.proc_dim < 0) continue;
      const DistKind kind = fold[static_cast<size_t>(dd.proc_dim)];
      changed |= kind != dd.kind;
      dd.kind = kind;
      dd.block = kind == DistKind::BlockCyclic ? kBlockCyclicBlock : 0;
    }
    if (rs != nullptr && ad.distributed_count() > 0) {
      support::ScopedSink arr_rs(rs, -1, {}, static_cast<int>(a),
                                 a < prog.arrays.size() ? prog.arrays[a].name
                                                        : std::string());
      arr_rs.note("DISTRIBUTE" + ad.hpf_string());
      if (changed) arr_rs.count("arrays_refolded");
    }
  }
  if (rs != nullptr)
    for (int pd = 0; pd < d.num_proc_dims; ++pd)
      rs->count("fold_" + to_string(fold[static_cast<size_t>(pd)]));
}

void eliminate_barriers(ProgramDecomposition& d, support::RemarkSink* rs) {
  const int nnests = static_cast<int>(d.nests.size());
  // Pure doall schedule honoring at least one group.
  const auto all_doall = [](const NestDecomposition& nd) {
    bool any = false;
    for (const LoopAssignment& la : nd.loops) {
      if (la.proc_dim < 0) continue;
      if (la.sched != LoopSched::Distributed) return false;
      any = true;
    }
    return any;
  };
  for (int j = 0; j < nnests && nnests > 1; ++j) {
    const int next = (j + 1) % nnests;
    const NestDecomposition& a = d.nests[static_cast<size_t>(j)];
    const NestDecomposition& b = d.nests[static_cast<size_t>(next)];
    // Both directions must be free of cross-processor data flow: b's
    // boundary reads could consume data a wrote (flow), and a's boundary
    // reads consume other owners' data that b may overwrite (anti). The
    // simulator's timing model tolerates a missing barrier either way;
    // real threads do not.
    if (a.comm_free && b.comm_free && a.boundary_free && b.boundary_free &&
        a.owner_pinned && b.owner_pinned && all_doall(a) && all_doall(b)) {
      d.nests[static_cast<size_t>(j)].barrier_after = false;
      if (rs != nullptr) {
        support::ScopedSink nest_rs(rs, j, {});
        nest_rs.note(strf("barrier after nest %d eliminated [Tseng 95]", j));
        nest_rs.count("barriers_eliminated");
      }
    }
  }
}

ProgramDecomposition decompose_base_from(std::vector<ParallelizedNest> par,
                                         const Program& prog,
                                         support::RemarkSink* rs) {
  ProgramDecomposition out;
  out.par = std::move(par);
  DCT_CHECK(out.par.size() == prog.nests.size(),
            "one parallelized nest required per program nest");
  out.num_proc_dims = 1;
  out.clique_size = {1};
  out.clique_id = {0};
  out.clique_pos = {0};
  out.nests.resize(prog.nests.size());
  out.arrays.resize(prog.arrays.size());
  for (size_t a = 0; a < prog.arrays.size(); ++a)
    out.arrays[a].dims.assign(prog.arrays[a].dims.size(), DimDistribution{});
  for (size_t j = 0; j < prog.nests.size(); ++j) {
    const ParallelizedNest& par = out.par[j];
    NestDecomposition& nd = out.nests[j];
    nd.loops.assign(static_cast<size_t>(par.nest.depth()), LoopAssignment{});
    nd.stmts.assign(par.nest.stmts.size(), StmtMapping{{-1}});
    nd.comm_free = false;
    nd.barrier_after = true;
    for (int l = 0; l < par.nest.depth(); ++l)
      if (par.parallel[static_cast<size_t>(l)]) {
        nd.loops[static_cast<size_t>(l)] =
            LoopAssignment{LoopSched::Distributed, 0};
        if (rs != nullptr) {
          support::ScopedSink nest_rs(rs, static_cast<int>(j),
                                      prog.nests[j].name);
          nest_rs.note(strf("outermost parallel loop %d block-distributed", l));
          nest_rs.count("distributed_nests");
        }
        break;  // BASE: only the outermost parallel loop
      }
  }
  return out;
}

std::optional<linalg::Vec> data_coords(const ProgramDecomposition& d,
                                       int array,
                                       std::span<const Int> index) {
  const ArrayDecomposition& ad = d.arrays[static_cast<size_t>(array)];
  if (ad.replicated) return std::nullopt;
  if (ad.distributed_count() == 0) return std::nullopt;
  Vec coords(static_cast<size_t>(d.num_proc_dims), -1);
  for (size_t k = 0; k < ad.dims.size(); ++k)
    if (ad.dims[k].proc_dim >= 0)
      coords[static_cast<size_t>(ad.dims[k].proc_dim)] = index[k];
  return coords;
}

std::string ProgramDecomposition::to_string(const Program& prog) const {
  std::ostringstream os;
  os << "decomposition of " << prog.name << " (rank " << num_proc_dims
     << ")\n";
  for (size_t a = 0; a < prog.arrays.size(); ++a)
    os << "  " << prog.arrays[a].name << " DISTRIBUTE"
       << arrays[a].hpf_string() << "\n";
  for (size_t j = 0; j < nests.size(); ++j) {
    os << "  nest " << prog.nests[j].name << ":";
    for (size_t l = 0; l < nests[j].loops.size(); ++l) {
      const LoopAssignment& la = nests[j].loops[l];
      os << " "
         << (la.sched == LoopSched::Distributed  ? "DOALL"
             : la.sched == LoopSched::Pipelined  ? "PIPE"
             : la.proc_dim >= 0                  ? "OWNER"
                                                 : "seq");
      if (la.proc_dim >= 0) os << "[p" << la.proc_dim << "]";
    }
    os << (nests[j].comm_free ? " comm-free" : " +comm")
       << (nests[j].barrier_after ? "" : " no-barrier") << "\n";
  }
  return os.str();
}

}  // namespace dct::decomp
