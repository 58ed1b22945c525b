#include "layout/layout.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::layout {

using linalg::ceil_div;
using linalg::checked_mul;

Layout Layout::identity(std::vector<Int> dims) {
  Layout l;
  l.dims_ = std::move(dims);
  l.fns_.resize(l.dims_.size());
  for (size_t k = 0; k < l.dims_.size(); ++k)
    l.fns_[k] = DimFn{static_cast<int>(k), 1, 0};
  return l;
}

void Layout::apply(const StripMine& sm) {
  DCT_CHECK(sm.dim >= 0 && sm.dim < static_cast<int>(dims_.size()),
            "strip-mine dimension out of range");
  DCT_CHECK(sm.size >= 1, "strip size must be positive");
  // Splitting (x/div) mod m by b gives
  //   low  = (x/div) mod b
  //   high = (x/(div*b)) mod (m/b)
  // a closed form only when b divides m (or m == 0, no modulus).
  const DimFn f = fns_[static_cast<size_t>(sm.dim)];
  if (f.mod != 0 && f.mod % sm.size != 0)
    throw Error(Error::Code::kInvalidArgument,
                strf("strip size %lld does not divide the modulus %lld of "
                     "dimension %d: no closed form",
                     static_cast<long long>(sm.size),
                     static_cast<long long>(f.mod), sm.dim));
  const DimFn low{f.src, f.div, sm.size};
  const DimFn high{f.src, checked_mul(f.div, sm.size),
                   f.mod == 0 ? 0 : f.mod / sm.size};
  const Int d = dims_[static_cast<size_t>(sm.dim)];
  steps_.emplace_back(sm);
  // (i mod b) at position dim, (i div b) at position dim+1.
  dims_[static_cast<size_t>(sm.dim)] = sm.size;
  dims_.insert(dims_.begin() + sm.dim + 1, ceil_div(d, sm.size));
  fns_[static_cast<size_t>(sm.dim)] = low;
  fns_.insert(fns_.begin() + sm.dim + 1, high);
}

void Layout::apply(const Permute& p) {
  DCT_CHECK(p.perm.size() == dims_.size(), "permutation rank mismatch");
  std::vector<bool> seen(dims_.size(), false);
  std::vector<Int> nd(dims_.size());
  std::vector<DimFn> nf(dims_.size());
  for (size_t k = 0; k < p.perm.size(); ++k) {
    const int src = p.perm[k];
    DCT_CHECK(src >= 0 && src < static_cast<int>(dims_.size()) &&
                  !seen[static_cast<size_t>(src)],
              "not a permutation");
    seen[static_cast<size_t>(src)] = true;
    nd[k] = dims_[static_cast<size_t>(src)];
    nf[k] = fns_[static_cast<size_t>(src)];
  }
  steps_.emplace_back(p);
  dims_ = std::move(nd);
  fns_ = std::move(nf);
}

std::vector<Int> Layout::strides() const {
  std::vector<Int> out(dims_.size());
  Int stride = 1;
  for (size_t k = 0; k < dims_.size(); ++k) {
    out[k] = stride;
    stride = checked_mul(stride, dims_[k]);
  }
  return out;
}

Int Layout::size() const {
  Int n = 1;
  for (Int d : dims_) n = checked_mul(n, d);
  return n;
}

std::vector<Int> Layout::map_index(std::span<const Int> index) const {
  std::vector<Int> out, scratch;
  map_index(index, out, scratch);
  return out;
}

void Layout::map_index(std::span<const Int> index, std::vector<Int>& out,
                       std::vector<Int>& scratch) const {
  // Always interpret the transform steps: this is the reference that the
  // closed form in linearize() is checked against.
  out.assign(index.begin(), index.end());
  for (const Transform& t : steps_) {
    if (const auto* sm = std::get_if<StripMine>(&t)) {
      // (v mod b, v div b), floored, from one division (b >= 1).
      const Int v = out[static_cast<size_t>(sm->dim)];
      Int q = v / sm->size, r = v - q * sm->size;
      if (r < 0) {
        --q;
        r += sm->size;
      }
      out[static_cast<size_t>(sm->dim)] = r;
      out.insert(out.begin() + sm->dim + 1, q);
    } else {
      const auto& perm = std::get<Permute>(t).perm;
      scratch.resize(perm.size());
      for (size_t k = 0; k < perm.size(); ++k)
        scratch[k] = out[static_cast<size_t>(perm[k])];
      out.swap(scratch);
    }
  }
}

Int Layout::linearize(std::span<const Int> index) const {
  // Column-major: dim 0 varies fastest.
  Int addr = 0;
  Int stride = 1;
  for (size_t k = 0; k < fns_.size(); ++k) {
    const DimFn& f = fns_[k];
    Int v = index[static_cast<size_t>(f.src)] / f.div;  // indices >= 0
    if (f.mod != 0) v %= f.mod;
    // An out-of-range index must fail, not silently wrap into another
    // element (the truncating div above may also leave v negative for
    // negative indices, which this catches).
    DCT_CHECK(v >= 0 && v < dims_[k], "mapped index out of bounds");
    addr += v * stride;
    stride *= dims_[k];
  }
  return addr;
}

std::string Layout::to_string() const {
  std::ostringstream os;
  os << "dims(";
  for (size_t k = 0; k < dims_.size(); ++k) os << (k ? "," : "") << dims_[k];
  os << ")";
  for (const Transform& t : steps_) {
    if (const auto* sm = std::get_if<StripMine>(&t))
      os << " strip(dim=" << sm->dim << ", b=" << sm->size << ")";
    else {
      os << " permute(";
      const auto& perm = std::get<Permute>(t).perm;
      for (size_t k = 0; k < perm.size(); ++k) os << (k ? "," : "") << perm[k];
      os << ")";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Layout algorithm (Section 4.2)
// ---------------------------------------------------------------------------

Layout derive_layout(const ir::ArrayDecl& decl,
                     const decomp::ArrayDecomposition& ad,
                     std::span<const int> grid_extents,
                     support::RemarkSink* rs) {
  Layout l = Layout::identity(decl.dims);
  if (!decl.transformable || ad.replicated || ad.distributed_count() == 0) {
    if (rs != nullptr && !decl.transformable && ad.distributed_count() > 0) {
      rs->note("distributed but not transformable (aliased/reshaped): kept");
      rs->count("arrays_untransformable");
    }
    return l;
  }

  // Process distributed dimensions from highest to lowest so earlier
  // insertions do not disturb pending positions; collect the
  // processor-identifying dimensions to hoist rightmost afterwards.
  struct Pending {
    int pos;  ///< position of the processor dimension in current space
  };
  std::vector<int> proc_dims_positions;
  // Work on a copy of positions: after strip-mining dim k, dims above k
  // shift by one (or two for BLOCK-CYCLIC).
  const int rank = static_cast<int>(decl.dims.size());
  std::vector<int> pos(static_cast<size_t>(rank));
  std::iota(pos.begin(), pos.end(), 0);

  for (int k = rank - 1; k >= 0; --k) {
    const decomp::DimDistribution& dd = ad.dims[static_cast<size_t>(k)];
    if (dd.kind == decomp::DistKind::Serial) continue;
    const int p = grid_extents[static_cast<size_t>(dd.proc_dim)];
    if (p <= 1) continue;
    const Int d = decl.dims[static_cast<size_t>(k)];
    const int cur = pos[static_cast<size_t>(k)];

    // Local optimization (4.2): the highest dimension distributed BLOCK is
    // already rightmost — no strip-mining or permutation needed.
    if (dd.kind == decomp::DistKind::Block &&
        cur == static_cast<int>(l.dims().size()) - 1) {
      if (rs != nullptr) {
        rs->note(strf("dim %d BLOCK already rightmost: transform skipped", k));
        rs->count("local_optimization_skips");
      }
      continue;
    }

    const Int block = decomp::fold_block(dd.kind, d, p, dd.block);
    int proc_pos = -1;
    switch (dd.kind) {
      case decomp::DistKind::Block:
        l.apply(StripMine{cur, block});
        proc_pos = cur + 1;  // second of the strip-mined dims
        break;
      case decomp::DistKind::Cyclic:
        l.apply(StripMine{cur, p});
        proc_pos = cur;  // first of the strip-mined dims
        break;
      case decomp::DistKind::BlockCyclic:
        l.apply(StripMine{cur, block});
        l.apply(StripMine{cur + 1, p});
        proc_pos = cur + 1;  // middle of the strip-mined dims
        break;
      case decomp::DistKind::Serial:
        break;
    }
    // Account for dimension insertions in the bookkeeping.
    const int inserted =
        dd.kind == decomp::DistKind::BlockCyclic ? 2 : 1;
    for (int k2 = 0; k2 < rank; ++k2)
      if (pos[static_cast<size_t>(k2)] > cur)
        pos[static_cast<size_t>(k2)] += inserted;
    for (int& pp : proc_dims_positions)
      if (pp > cur) pp += inserted;
    proc_dims_positions.push_back(proc_pos);
  }

  // Move the processor-identifying dimensions to the rightmost positions,
  // preserving the original relative order of everything else.
  if (!proc_dims_positions.empty()) {
    const int nrank = static_cast<int>(l.dims().size());
    std::vector<int> perm;
    for (int k2 = 0; k2 < nrank; ++k2)
      if (std::find(proc_dims_positions.begin(), proc_dims_positions.end(),
                    k2) == proc_dims_positions.end())
        perm.push_back(k2);
    // Processor dims in ascending original position.
    std::vector<int> procs_sorted = proc_dims_positions;
    std::sort(procs_sorted.begin(), procs_sorted.end());
    for (int pp : procs_sorted) perm.push_back(pp);
    // Skip a no-op permutation.
    bool ident = true;
    for (size_t k2 = 0; k2 < perm.size(); ++k2)
      ident &= perm[k2] == static_cast<int>(k2);
    if (!ident) l.apply(Permute{perm});
  }
  if (rs != nullptr) {
    long strips = 0, permutes = 0;
    for (const Transform& t : l.steps())
      std::holds_alternative<StripMine>(t) ? ++strips : ++permutes;
    if (strips != 0) rs->count("strip_mines", strips);
    if (permutes != 0) rs->count("permutes", permutes);
  }
  return l;
}

// ---------------------------------------------------------------------------
// Partition (ownership folding)
// ---------------------------------------------------------------------------

int Partition::fold(int k, Int idx) const {
  const decomp::CoordFold& f = dims[static_cast<size_t>(k)].fold;
  return f.kind == decomp::DistKind::Serial ? -1 : f.fold(idx);
}

int Partition::rank(std::span<const Int> index) const {
  // Owner coordinate per processor dimension (-1 where unbound); a later
  // array dimension bound to the same processor dimension overrides.
  std::vector<int> coords(static_cast<size_t>(num_proc_dims), -1);
  for (size_t k = 0; k < dims.size() && k < index.size(); ++k)
    if (dims[k].proc_dim >= 0)
      coords[static_cast<size_t>(dims[k].proc_dim)] =
          fold(static_cast<int>(k), index[k]);
  int r = 0;
  for (const Dim& d : dims) {
    if (d.proc_dim < 0) continue;
    int& c = coords[static_cast<size_t>(d.proc_dim)];
    if (c < 0) continue;
    r += c * d.fold.stride;
    c = -1;  // a processor dimension counts once
  }
  return r;
}

Partition make_partition(const ir::ArrayDecl& decl,
                         const decomp::ArrayDecomposition& ad,
                         std::span<const int> grid_extents,
                         std::span<const int> strides, int num_proc_dims) {
  Partition part;
  part.num_proc_dims = num_proc_dims;
  part.dims.resize(decl.dims.size());
  for (size_t k = 0; k < decl.dims.size(); ++k) {
    Partition::Dim& d = part.dims[k];
    const decomp::DimDistribution& dd = ad.dims[k];
    d.extent = decl.dims[k];
    if (ad.replicated || dd.kind == decomp::DistKind::Serial) continue;
    d.proc_dim = dd.proc_dim;
    const auto pd = static_cast<size_t>(dd.proc_dim);
    d.fold.kind = dd.kind;
    d.fold.procs = grid_extents[pd];
    d.fold.block =
        decomp::fold_block(dd.kind, d.extent, d.fold.procs, dd.block);
    d.fold.stride = strides[pd];
  }
  return part;
}

// ---------------------------------------------------------------------------
// Address-calculation cost model (Section 4.3)
// ---------------------------------------------------------------------------

namespace {
// MIPS R3000-flavoured integer-operation costs (cycles).
constexpr double kDivModCost = 35.0;  ///< one div or mod
constexpr double kCheapOps = 2.0;     ///< increment + compare
}  // namespace

double address_overhead(const ir::LoopNest& nest, const ir::ArrayRef& ref,
                        const Layout& layout, AddrStrategy strategy) {
  if (layout.is_identity()) return 0.0;
  const int depth = nest.depth();

  // Trip count estimate per loop.
  const dep::Hull hull = dep::iteration_hull(nest);
  auto trips_below = [&](int level) {
    double t = 1;
    for (int k = level + 1; k < depth; ++k)
      t *= std::max<double>(
          1.0, static_cast<double>(hull.hi[static_cast<size_t>(k)] -
                                   hull.lo[static_cast<size_t>(k)] + 1));
    return t;
  };

  double overhead = 0;
  for (const auto& f : layout.dim_functions()) {
    const bool needs_div = f.div != 1 || f.mod != 0;
    if (!needs_div) continue;
    // Deepest loop varying the source subscript of this transformed dim.
    int deepest = -1;
    if (f.src < ref.access.rows()) {
      for (int c = 0; c < ref.access.cols(); ++c)
        if (ref.access.at(f.src, c) != 0) deepest = c;
    }
    switch (strategy) {
      case AddrStrategy::Naive:
        // mod and/or div on every access.
        overhead += kDivModCost * ((f.div != 1) + (f.mod != 0));
        break;
      case AddrStrategy::Hoisted: {
        // Recomputed when the deepest varying loop iterates; amortized
        // over everything below it.
        const double amort = deepest < 0 ? 1e9 : trips_below(deepest);
        overhead += kDivModCost * ((f.div != 1) + (f.mod != 0)) / amort;
        break;
      }
      case AddrStrategy::Optimized: {
        // Strength reduction (4.3): the mod counter is incremented and
        // compared each step; crossing a strip boundary resets it and
        // bumps the div counter — all cheap operations, no divisions
        // remain on the hot path.
        const double amort = deepest < 0 ? 1e9 : trips_below(deepest);
        const double crossings =
            1.0 / static_cast<double>(std::max<Int>(1, f.div) *
                                      std::max<Int>(1, f.mod));
        overhead += (kCheapOps + kCheapOps * crossings) / amort;
        break;
      }
    }
  }
  return overhead;
}

}  // namespace dct::layout
