#include "verify/oracle.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <sstream>

#include "dep/dependence.hpp"
#include "native/native.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace dct::verify {

using decomp::DistKind;
using linalg::floor_div;
using linalg::floor_mod;

namespace {

constexpr size_t kMaxViolations = 16;
constexpr int kSamples = 256;  ///< sampled iterations/elements per subject
constexpr std::uint64_t kSeed = 0x5eedULL;
/// Arrays with at most this many elements are checked exhaustively for
/// address collisions; larger ones are sampled.
constexpr Int kExhaustiveBelow = 4096;
/// Exhaustive collision checks keep a bitmap over the layout's addresses
/// up to this many.
constexpr Int kBitmapBelow = 16 * kExhaustiveBelow;
/// Fold domains wider than this skip the exact coverage count (totality
/// and step-consistency are still sampled).
constexpr Int kCoverageCap = 65536;

void add_violation(OracleReport& rep, std::string msg) {
  if (rep.violations.size() < kMaxViolations)
    rep.violations.push_back(std::move(msg));
  else if (rep.violations.size() == kMaxViolations)
    rep.violations.push_back("... further violations suppressed");
}

/// Draws random iterations of a nest, bounds resolved outermost-in. A
/// level whose bounds read no loop variable has the same range at every
/// draw: it is resolved the first time a draw reaches it and reused.
class IterationSampler {
 public:
  /// Starts drawing iterations of `nest`.
  void reset(const ir::LoopNest& nest) {
    const auto constant = [](const std::vector<ir::Bound>& bounds) {
      return std::all_of(bounds.begin(), bounds.end(),
                         [](const ir::Bound& b) {
                           return std::all_of(b.expr.coeffs.begin(),
                                              b.expr.coeffs.end(),
                                              [](Int c) { return c == 0; });
                         });
    };
    nest_ = &nest;
    levels_.clear();
    levels_.reserve(nest.loops.size());
    for (const ir::Loop& lp : nest.loops)
      levels_.push_back({constant(lp.lowers) && constant(lp.uppers)});
  }

  /// One random iteration into `iter`; false when a sampled prefix leads
  /// to an empty inner range.
  bool draw(Rng& rng, std::vector<Int>& iter) {
    iter.assign(levels_.size(), 0);
    for (size_t l = 0; l < levels_.size(); ++l) {
      Level& lv = levels_[l];
      Int lb = lv.lb, ub = lv.ub;
      if (!lv.known) {
        lb = nest_->loops[l].lower_bound(iter);
        ub = nest_->loops[l].upper_bound(iter);
        if (lv.constant) lv = {true, true, lb, ub};
      }
      if (ub < lb) return false;
      iter[l] = rng.uniform(lb, ub);
    }
    return true;
  }

 private:
  struct Level {
    bool constant;  ///< no bound reads a loop variable
    bool known = false;
    Int lb = 0, ub = 0;
  };
  const ir::LoopNest* nest_ = nullptr;
  std::vector<Level> levels_;
};

/// A set of at most `max_values` (>= 1) non-negative Ints: open
/// addressing with linear probing in a table at least twice that size, so
/// a probe ends within a few slots.
class IntSet {
 public:
  explicit IntSet(size_t max_values)
      : slots_(std::bit_ceil(2 * max_values), -1),
        mask_(slots_.size() - 1) {}

  /// Adds `v` (>= 0); false when it was already there.
  bool insert(Int v) {
    // Fibonacci hashing: consecutive values land far apart.
    size_t i = static_cast<size_t>(static_cast<std::uint64_t>(v) *
                                   0x9e3779b97f4a7c15ULL >> 32) &
               mask_;
    for (; slots_[i] != -1; i = (i + 1) & mask_)
      if (slots_[i] == v) return false;
    slots_[i] = v;
    return true;
  }

 private:
  std::vector<Int> slots_;  ///< -1 = empty
  size_t mask_;
};

}  // namespace

std::string OracleReport::to_string() const {
  std::ostringstream os;
  os << oracle << ": " << (ok() ? "ok" : "VIOLATED") << " (" << subjects
     << " subjects, " << checks << " checks)";
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Equation 1: D_x(F_jx(i)) == G_j(i) on DOALL-bound dimensions
// ---------------------------------------------------------------------------

OracleReport check_equation1(const core::CompiledProgram& cp) {
  OracleReport rep;
  rep.oracle = "equation1";
  const decomp::ProgramDecomposition& dec = cp.dec();
  Rng rng(kSeed ^ 0xe91ULL);

  // One reference's claim on one virtual dimension: the data coordinate is
  // its subscript row `row`, the computation coordinate iteration level
  // `loop`. Everything but the sampled iteration is fixed per nest.
  struct Probe {
    int stmt;
    const ir::ArrayRef* ref;
    int pd;
    int row;
    int loop;
  };
  std::vector<Probe> probes;
  std::vector<Int> iter, rows;
  IterationSampler sampler;

  for (size_t j = 0; j < cp.nests.size(); ++j) {
    if (j >= dec.nests.size()) break;
    const decomp::NestDecomposition& nd = dec.nests[j];
    // The condition is exact only where no data is meant to move: skip
    // nests the decomposition itself charged with communication or
    // boundary traffic.
    if (!nd.comm_free || !nd.boundary_free) continue;
    const ir::LoopNest& nest = dec.par[j].nest;
    if (nest.depth() == 0) continue;
    ++rep.subjects;

    // Statement-level owner loop for a virtual dimension (imperfect nests
    // give different statements different owners), nest-level fallback.
    auto owner_loop = [&](size_t s, int pd) -> int {
      if (s < nd.stmts.size() &&
          pd < static_cast<int>(nd.stmts[s].loop_for_dim.size()) &&
          nd.stmts[s].loop_for_dim[static_cast<size_t>(pd)] >= 0)
        return nd.stmts[s].loop_for_dim[static_cast<size_t>(pd)];
      for (size_t l = 0; l < nd.loops.size(); ++l)
        if (nd.loops[l].proc_dim == pd) return static_cast<int>(l);
      return -1;
    };
    // Nest-level schedule of a virtual dimension.
    auto dim_sched = [&](int pd) {
      for (const decomp::LoopAssignment& la : nd.loops)
        if (la.proc_dim == pd) return la.sched;
      return decomp::LoopSched::Sequential;
    };

    probes.clear();
    for (size_t s = 0; s < nest.stmts.size(); ++s) {
      auto add_probes = [&](const ir::ArrayRef& ref) {
        // The data coordinates of the subscript row numbers: per virtual
        // dimension, the row whose value is its data coordinate (< 0 when
        // unbound); none for a replicated or fully serial array.
        rows.resize(static_cast<size_t>(ref.access.rows()));
        std::iota(rows.begin(), rows.end(), Int{0});
        const auto row_of = decomp::data_coords(dec, ref.array, rows);
        if (!row_of) return;
        const decomp::ArrayDecomposition& ad =
            dec.arrays[static_cast<size_t>(ref.array)];
        for (int pd = 0; pd < dec.num_proc_dims; ++pd) {
          const Int row = (*row_of)[static_cast<size_t>(pd)];
          if (row < 0) continue;
          // Pipelined dimensions move data point-to-point by design;
          // Equation 1 equality is only promised on DOALL dimensions.
          if (dim_sched(pd) != decomp::LoopSched::Distributed) continue;
          // A constant subscript along a distributed dimension is a
          // single-owner broadcast: the cost model reads it through the
          // cache rather than charging communication, so Equation 1
          // makes no alignment claim for it.
          bool constant_subscript = false;
          for (size_t k = 0; k < ad.dims.size(); ++k) {
            if (ad.dims[k].proc_dim != pd) continue;
            bool varies = false;
            for (int c = 0; c < ref.access.cols(); ++c)
              varies |= ref.access.at(static_cast<int>(k), c) != 0;
            constant_subscript = !varies;
            break;
          }
          if (constant_subscript) continue;
          const int l = owner_loop(s, pd);
          if (l < 0) continue;
          probes.push_back(
              {static_cast<int>(s), &ref, pd, static_cast<int>(row), l});
        }
      };
      for (const ir::ArrayRef& r : nest.stmts[s].reads) add_probes(r);
      add_probes(nest.stmts[s].write);
    }

    sampler.reset(nest);
    for (int draw = 0; draw < 2 * kSamples; ++draw) {
      if (!sampler.draw(rng, iter)) continue;
      for (const Probe& p : probes) {
        const ir::ArrayRef& ref = *p.ref;
        Int data_c = ref.offset[static_cast<size_t>(p.row)];
        for (int c = 0; c < ref.access.cols(); ++c)
          data_c = linalg::checked_add(
              data_c, linalg::checked_mul(ref.access.at(p.row, c),
                                          iter[static_cast<size_t>(c)]));
        if (data_c < 0) continue;  // dimension unbound for this element
        ++rep.checks;
        const Int comp_c = iter[static_cast<size_t>(p.loop)];
        if (data_c != comp_c)
          add_violation(
              rep,
              strf("%s nest %d stmt %d array %s dim p%d: D_x(F(i))=%lld "
                   "but G(i)=%lld at sampled iteration",
                   cp.program().name.c_str(), static_cast<int>(j), p.stmt,
                   cp.program().arrays[static_cast<size_t>(ref.array)]
                       .name.c_str(),
                   p.pd, static_cast<long long>(data_c),
                   static_cast<long long>(comp_c)));
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Layout bijectivity: injective into [0, size), closed form == steps
// ---------------------------------------------------------------------------

void check_layout_against(const ir::ArrayDecl& decl,
                          const layout::Layout& layout, OracleReport& rep) {
  ++rep.subjects;
  const Int total = layout.size();
  const std::vector<Int>& ldims = layout.dims();
  std::vector<Int> mapped, scratch;  // map_index buffers

  // Checks one declared index; returns its address when in range, else -1.
  auto check_index = [&](std::span<const Int> idx) -> Int {
    ++rep.checks;
    Int lin = -1;
    try {
      lin = layout.linearize(idx);
    } catch (const Error& e) {
      // linearize bounds-checks on both paths now: a declared index the
      // layout rejects means the layout does not cover the array.
      add_violation(rep, decl.name + ": linearize rejected declared index: " +
                             e.what());
      return -1;
    }
    if (lin < 0 || lin >= total) {
      add_violation(rep, strf("%s: linearize out of range: %lld not in "
                              "[0, %lld)",
                              decl.name.c_str(), static_cast<long long>(lin),
                              static_cast<long long>(total)));
      return -1;
    }
    // The step-interpreted mapping must agree with the linear address —
    // this differentially checks dim_functions() (which the §4.3 address
    // walkers are built from) against the transform composition.
    layout.map_index(idx, mapped, scratch);
    Int addr = 0, stride = 1;
    bool in_range = mapped.size() == ldims.size();
    for (size_t k = 0; in_range && k < mapped.size(); ++k) {
      in_range = mapped[k] >= 0 && mapped[k] < ldims[k];
      addr += mapped[k] * stride;
      stride *= ldims[k];
    }
    if (!in_range)
      add_violation(rep, decl.name + ": map_index outside restructured dims");
    else if (addr != lin)
      add_violation(rep,
                    strf("%s: closed-form address %lld != step-interpreted "
                         "%lld",
                         decl.name.c_str(), static_cast<long long>(lin),
                         static_cast<long long>(addr)));
    return lin;
  };
  auto collision = [&](Int lin) {
    add_violation(rep, strf("%s: address collision at %lld (layout not "
                            "injective)",
                            decl.name.c_str(), static_cast<long long>(lin)));
  };

  std::vector<Int> idx(decl.dims.size(), 0);
  if (decl.elem_count() <= kExhaustiveBelow) {
    // Addresses seen: a bitmap over [0, total), or a hash set when a
    // layout far larger than the array would make the bitmap wasteful.
    const bool bitmap = total <= kBitmapBelow;
    std::vector<bool> seen_bits(bitmap ? static_cast<size_t>(total) : 0);
    std::optional<IntSet> seen;
    if (!bitmap) seen.emplace(static_cast<size_t>(decl.elem_count()));
    auto first_visit = [&](Int lin) {
      if (!bitmap) return seen->insert(lin);
      const bool fresh = !seen_bits[static_cast<size_t>(lin)];
      seen_bits[static_cast<size_t>(lin)] = true;
      return fresh;
    };
    // Every element in column-major order (ir::for_each_element).
    for (Int n = decl.elem_count(); n > 0; --n) {
      const Int lin = check_index(idx);
      if (lin >= 0 && !first_visit(lin)) collision(lin);
      for (size_t k = 0; k < idx.size() && ++idx[k] == decl.dims[k]; ++k)
        idx[k] = 0;
    }
  } else {
    // Sampled: distinct original elements must still get distinct
    // addresses.
    Rng rng(kSeed ^ 0xb13ULL ^ static_cast<std::uint64_t>(total));
    IntSet orig_seen(kSamples), addr_seen(kSamples);
    for (int s = 0; s < kSamples; ++s) {
      Int orig = 0, stride = 1;
      for (size_t k = 0; k < decl.dims.size(); ++k) {
        idx[k] = rng.uniform(0, decl.dims[k] - 1);
        orig += idx[k] * stride;
        stride *= decl.dims[k];
      }
      if (!orig_seen.insert(orig)) continue;
      const Int lin = check_index(idx);
      if (lin >= 0 && !addr_seen.insert(lin)) collision(lin);
    }
  }
}

OracleReport check_layout_bijectivity(const core::CompiledProgram& cp) {
  OracleReport rep;
  rep.oracle = "layout-bijectivity";
  for (size_t a = 0; a < cp.arrays.size(); ++a)
    check_layout_against(cp.program().arrays[a], cp.arrays[a].layout, rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Fold totality / step-consistency / coverage
// ---------------------------------------------------------------------------

void check_one_fold(const core::CoordFold& fold, Int lo, Int hi,
                    const std::string& subject, OracleReport& rep) {
  ++rep.subjects;
  if (fold.procs < 1) {
    add_violation(rep, subject + ": fold has non-positive processor extent");
    return;
  }
  const Int block = std::max<Int>(1, fold.block);
  const Int span = hi >= lo ? hi - lo + 1 : 0;

  // Totality: any Int — including values below the offset and far past the
  // domain — must fold into [0, procs).
  Rng rng(kSeed ^ 0xf01dULL ^ static_cast<std::uint64_t>(lo));
  const Int ext_lo = lo - 2 * span - 3, ext_hi = hi + 2 * span + 3;
  for (int s = 0; s < kSamples; ++s) {
    const Int v = rng.uniform(ext_lo, std::max(ext_lo, ext_hi));
    const int c = fold.fold(v);
    ++rep.checks;
    if (c < 0 || c >= fold.procs) {
      add_violation(rep, strf("%s: fold(%lld) = %d outside [0, %d)",
                              subject.c_str(), static_cast<long long>(v), c,
                              fold.procs));
      return;
    }
  }
  if (span == 0) return;

  // Step-consistency and owner coverage over the iteration domain.
  const bool capped = span > kCoverageCap;
  const Int whi = capped ? lo + kCoverageCap - 1 : hi;
  std::vector<char> hit(static_cast<size_t>(fold.procs), 0);
  int prev = fold.fold(lo);
  hit[static_cast<size_t>(prev)] = 1;
  Int distinct = 1;
  for (Int v = lo + 1; v <= whi; ++v) {
    const int cur = fold.fold(v);
    ++rep.checks;
    bool consistent = true;
    switch (fold.kind) {
      case DistKind::Serial:
        consistent = cur == 0;
        break;
      case DistKind::Block:
        consistent = cur == prev || cur == prev + 1;
        break;
      case DistKind::Cyclic:
        consistent = cur == (prev + 1) % fold.procs;
        break;
      case DistKind::BlockCyclic: {
        const bool boundary = floor_mod(v - fold.offset, block) == 0;
        consistent = boundary ? cur == (prev + 1) % fold.procs : cur == prev;
        break;
      }
    }
    if (!consistent) {
      add_violation(rep,
                    strf("%s: fold stepped %d -> %d at v=%lld (violates %s "
                         "semantics)",
                         subject.c_str(), prev, cur,
                         static_cast<long long>(v),
                         decomp::to_string(fold.kind).c_str()));
      return;
    }
    if (!hit[static_cast<size_t>(cur)]) {
      hit[static_cast<size_t>(cur)] = 1;
      ++distinct;
    }
    prev = cur;
  }
  if (capped) return;

  // Coverage: the walked distinct-owner count must match the analytic one.
  Int expected = 1;
  const Int xlo = lo - fold.offset, xhi = hi - fold.offset;
  switch (fold.kind) {
    case DistKind::Serial:
      expected = 1;
      break;
    case DistKind::Block: {
      const Int clo = std::clamp<Int>(floor_div(xlo, block), 0,
                                      fold.procs - 1);
      const Int chi = std::clamp<Int>(floor_div(xhi, block), 0,
                                      fold.procs - 1);
      expected = chi - clo + 1;
      break;
    }
    case DistKind::Cyclic:
      expected = std::min<Int>(fold.procs, span);
      break;
    case DistKind::BlockCyclic:
      expected = std::min<Int>(fold.procs,
                               floor_div(xhi, block) - floor_div(xlo, block) +
                                   1);
      break;
  }
  ++rep.checks;
  if (distinct != expected)
    add_violation(rep, strf("%s: fold covers %lld owners over [%lld, %lld], "
                            "expected %lld",
                            subject.c_str(), static_cast<long long>(distinct),
                            static_cast<long long>(lo),
                            static_cast<long long>(hi),
                            static_cast<long long>(expected)));
}

OracleReport check_fold_coverage(const core::CompiledProgram& cp) {
  OracleReport rep;
  rep.oracle = "fold-coverage";

  // Owner folds of the lowered schedule, over each nest's iteration hull.
  for (size_t j = 0; j < cp.nests.size(); ++j) {
    const core::CompiledNest& cn = cp.nests[j];
    const ir::LoopNest& nest = cp.dec().par[j].nest;
    if (nest.depth() == 0) continue;
    const dep::Hull hull = dep::iteration_hull(nest);
    if (hull.empty) continue;
    for (size_t s = 0; s < cn.stmts.size(); ++s)
      for (const auto& [loop, fold] : cn.stmts[s].owner)
        check_one_fold(fold, hull.lo[static_cast<size_t>(loop)],
                       hull.hi[static_cast<size_t>(loop)],
                       strf("%s nest %d stmt %d loop %d",
                            cp.program().name.c_str(), static_cast<int>(j),
                            static_cast<int>(s), loop),
                       rep);
  }

  // Partition folds: in-range over the array's extent.
  for (size_t a = 0; a < cp.arrays.size(); ++a) {
    const layout::Partition& part = cp.arrays[a].part;
    for (size_t k = 0; k < part.dims.size(); ++k) {
      const layout::Partition::Dim& d = part.dims[k];
      if (d.proc_dim < 0 || d.extent <= 0) continue;
      ++rep.subjects;
      Rng rng(kSeed ^ 0x9a27ULL ^ static_cast<std::uint64_t>(a << 8 | k));
      for (int s = 0; s < kSamples; ++s) {
        const Int v = rng.uniform(0, d.extent - 1);
        const int c = part.fold(static_cast<int>(k), v);
        ++rep.checks;
        if (c < 0 || c >= d.fold.procs) {
          add_violation(
              rep, strf("%s dim %d: partition fold(%lld) = %d outside "
                        "[0, %d)",
                        cp.program().arrays[a].name.c_str(),
                        static_cast<int>(k), static_cast<long long>(v), c,
                        d.fold.procs));
          break;
        }
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Differential: fast engine vs interpreter vs sequential reference
// ---------------------------------------------------------------------------

OracleReport check_differential(
    const core::CompiledProgram& cp, const machine::MachineConfig& mcfg,
    const std::vector<std::vector<double>>& reference) {
  OracleReport rep;
  rep.oracle = "differential";
  ++rep.subjects;

  runtime::ExecOptions fast_o;
  fast_o.fast_exec = true;
  runtime::ExecOptions interp_o;
  interp_o.fast_exec = false;
  const runtime::RunResult fast = runtime::simulate(cp, mcfg, fast_o);
  const runtime::RunResult interp = runtime::simulate(cp, mcfg, interp_o);

  auto expect = [&](bool ok, const std::string& what) {
    ++rep.checks;
    if (!ok)
      add_violation(rep, strf("%s procs=%d: ", cp.program().name.c_str(),
                              cp.procs) + what);
  };
  auto expect_eq = [&](bool eq, const char* field) {
    expect(eq, std::string("fast engine and interpreter disagree on ") +
                   field);
  };
  expect_eq(fast.cycles == interp.cycles, "cycles");
  expect_eq(fast.proc_cycles == interp.proc_cycles, "per-processor clocks");
  expect_eq(fast.barrier_cycles == interp.barrier_cycles, "barrier cycles");
  expect_eq(fast.wait_cycles == interp.wait_cycles, "dataflow wait cycles");
  expect_eq(fast.statements == interp.statements, "statement count");
  expect_eq(fast.values == interp.values, "final array values");
  // Memory behaviour must match except dir_fast_hits, which records the
  // fast path itself.
  const machine::ProcStats& fm = fast.mem;
  const machine::ProcStats& im = interp.mem;
  expect_eq(fm.accesses == im.accesses, "memory accesses");
  expect_eq(fm.l1_hits == im.l1_hits, "L1 hits");
  expect_eq(fm.l2_hits == im.l2_hits, "L2 hits");
  expect_eq(fm.local_fills == im.local_fills, "local fills");
  expect_eq(fm.remote_fills == im.remote_fills, "remote fills");
  expect_eq(fm.remote_dirty_fills == im.remote_dirty_fills,
            "remote dirty fills");
  expect_eq(fm.upgrades == im.upgrades, "upgrades");
  expect_eq(fm.cold_misses == im.cold_misses, "cold misses");
  expect_eq(fm.replace_misses == im.replace_misses, "replacement misses");
  expect_eq(fm.coherence_true == im.coherence_true,
            "true-sharing coherence misses");
  expect_eq(fm.coherence_false == im.coherence_false,
            "false-sharing coherence misses");
  expect_eq(fm.memory_cycles == im.memory_cycles, "memory cycles");
  expect(im.dir_fast_hits == 0 && interp.counters.walker_fast == 0,
         "interpreter took a fast path");
  expect(fast.values == reference,
         "transformed program diverges from the sequential reference");
  return rep;
}

OracleReport check_native(const core::CompiledProgram& cp) {
  OracleReport rep;
  rep.oracle = "native-differential";
  ++rep.subjects;

  const auto reference = runtime::run_reference(cp.program());
  native::NativeOptions nopts;
  nopts.threads = cp.procs;
  native::NativeResult res;
  try {
    res = native::run_native(cp, nopts);
  } catch (const Error& e) {
    add_violation(rep, cp.program().name + ": native backend failed: " +
                           e.full_message());
    return rep;
  }

  ++rep.checks;
  if (res.values.size() != reference.size()) {
    add_violation(rep, cp.program().name + ": native backend array count "
                       "differs from the reference");
    return rep;
  }
  for (size_t a = 0; a < reference.size(); ++a) {
    ++rep.checks;
    if (res.values[a] == reference[a]) continue;
    size_t at = 0;
    while (at < reference[a].size() &&
           at < res.values[a].size() &&
           res.values[a][at] == reference[a][at])
      ++at;
    add_violation(
        rep, strf("%s: native backend diverges from the reference on "
                  "array %s (%d threads, first mismatch at element %zu)",
                  cp.program().name.c_str(),
                  cp.program().arrays[a].name.c_str(), cp.procs, at));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

bool ValidationReport::ok() const {
  return std::all_of(oracles.begin(), oracles.end(),
                     [](const OracleReport& r) { return r.ok(); });
}

long ValidationReport::total_checks() const {
  long n = 0;
  for (const OracleReport& r : oracles) n += r.checks;
  return n;
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const OracleReport& r : oracles) os << r.to_string() << "\n";
  return os.str();
}

void ValidationReport::raise_if_violated(const std::string& unit) const {
  if (ok()) return;
  std::ostringstream os;
  os << unit << ": validation oracles violated:";
  for (const OracleReport& r : oracles)
    for (const std::string& v : r.violations)
      os << "\n  [" << r.oracle << "] " << v;
  throw Error(Error::Code::kOracleViolation, os.str());
}

ValidationReport validate_compiled(const core::CompiledProgram& cp) {
  ValidationReport rep;
  rep.oracles.push_back(check_equation1(cp));
  rep.oracles.push_back(check_layout_bijectivity(cp));
  rep.oracles.push_back(check_fold_coverage(cp));
  return rep;
}

}  // namespace dct::verify
