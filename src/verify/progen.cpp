#include "verify/progen.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/compiler.hpp"
#include "native/native.hpp"
#include "runtime/executor.hpp"
#include "runtime/walker.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "verify/oracle.hpp"

namespace dct::verify {

using ir::Stmt;
using linalg::Int;

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

namespace {

// Shape limits of a generated program. Changing any of them changes the
// program every fuzz seed replays.
constexpr int kMaxArrays = 3;
constexpr int kMaxNests = 3;
constexpr int kMaxDepth = 3;
constexpr int kMaxStmts = 2;
constexpr int kMaxReads = 3;
constexpr int kMaxTimeSteps = 2;
constexpr Int kMinExtent = 6;  ///< array extents (loops stay shorter)
constexpr Int kMaxExtent = 10;

/// One-hot reference into `array`: every array dimension either reads a
/// loop below `sdepth` with an offset that keeps the subscript inside the
/// extent for every iteration, or is a constant. `loop_hi[l]` is loop l's
/// inclusive upper bound.
ir::ArrayRef random_ref(Rng& rng, int array, std::span<const Int> dims,
                        int nest_depth, int sdepth,
                        std::span<const Int> loop_hi) {
  std::vector<std::pair<int, Int>> spec;
  for (const Int extent : dims) {
    // Candidate loops that fit inside this extent.
    std::vector<int> fits;
    for (int l = 0; l < sdepth; ++l)
      if (loop_hi[static_cast<size_t>(l)] < extent) fits.push_back(l);
    if (!fits.empty() && rng.uniform(0, 9) < 8) {
      const int l = fits[static_cast<size_t>(
          rng.uniform(0, static_cast<int>(fits.size()) - 1))];
      const Int slack = extent - 1 - loop_hi[static_cast<size_t>(l)];
      spec.push_back({l, rng.uniform(0, slack)});
    } else {
      spec.push_back({-1, rng.uniform(0, extent - 1)});  // constant dim
    }
  }
  return ir::simple_ref(array, nest_depth, spec);
}

}  // namespace

ir::Program generate_program(std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedf00dULL);
  ir::ProgramBuilder pb(strf("fuzz-%llu", static_cast<unsigned long long>(seed)));

  const int narrays = static_cast<int>(rng.uniform(1, kMaxArrays));
  std::vector<std::vector<Int>> array_dims;
  for (int a = 0; a < narrays; ++a) {
    // Rank weighted toward 2 (the common case in the paper's apps).
    const int roll = static_cast<int>(rng.uniform(0, 9));
    const int rank = roll < 3 ? 1 : roll < 8 ? 2 : 3;
    std::vector<Int> dims;
    for (int k = 0; k < rank; ++k)
      dims.push_back(rng.uniform(kMinExtent, kMaxExtent));
    pb.array(strf("a%d", a), dims);
    array_dims.push_back(std::move(dims));
  }

  static const double kCoef[] = {0.5, 0.25, 1.0, -0.5};
  static const double kBias[] = {1.0, 0.5, -1.0, 2.0, 0.25};

  const int nnests = static_cast<int>(rng.uniform(1, kMaxNests));
  for (int j = 0; j < nnests; ++j) {
    ir::LoopNest& nest = pb.nest(strf("n%d", j));
    const int depth = static_cast<int>(rng.uniform(1, kMaxDepth));
    std::vector<Int> loop_hi;
    for (int l = 0; l < depth; ++l) {
      // Loops stay shorter than the smallest extent so offsets have slack.
      loop_hi.push_back(rng.uniform(2, kMinExtent - 2));
      nest.loops.push_back(ir::loop(strf("i%d", l), ir::cst(0),
                                    ir::cst(loop_hi.back())));
    }

    const int nstmts = static_cast<int>(rng.uniform(1, kMaxStmts));
    for (int s = 0; s < nstmts; ++s) {
      Stmt stmt;
      // Occasionally an imperfect nest: the statement sits above the
      // innermost loops (LU's divide is the app-side analogue).
      int sdepth = depth;
      if (depth > 1 && rng.uniform(0, 3) == 0)
        sdepth = static_cast<int>(rng.uniform(1, depth - 1));
      stmt.depth = sdepth == depth ? -1 : sdepth;

      const int w = static_cast<int>(rng.uniform(0, narrays - 1));
      stmt.write = random_ref(rng, w, array_dims[static_cast<size_t>(w)],
                              depth, sdepth, loop_hi);
      const int nreads = static_cast<int>(rng.uniform(0, kMaxReads));
      std::vector<double> coef;
      for (int r = 0; r < nreads; ++r) {
        const int a = static_cast<int>(rng.uniform(0, narrays - 1));
        stmt.reads.push_back(random_ref(
            rng, a, array_dims[static_cast<size_t>(a)], depth, sdepth,
            loop_hi));
        coef.push_back(kCoef[rng.uniform(0, 3)]);
      }
      const double bias = kBias[rng.uniform(0, 4)];
      // The evaluator tolerates FEWER reads than it was built for — the
      // shrinker drops reads without touching the closure.
      stmt.eval = [bias, coef](std::span<const double> vals) {
        double acc = bias;
        const size_t n = std::min(coef.size(), vals.size());
        for (size_t i = 0; i < n; ++i) acc += coef[i] * vals[i];
        return acc;
      };
      stmt.compute_cycles = 4.0;
      nest.stmts.push_back(std::move(stmt));
    }
  }
  pb.set_time_steps(static_cast<int>(rng.uniform(1, kMaxTimeSteps)));
  return pb.build();
}

// ---------------------------------------------------------------------------
// Differential check
// ---------------------------------------------------------------------------

decomp::ProgramDecomposition refold(decomp::ProgramDecomposition dec,
                                    decomp::DistKind kind) {
  for (decomp::ArrayDecomposition& ad : dec.arrays)
    for (decomp::DimDistribution& d : ad.dims)
      if (d.kind != decomp::DistKind::Serial) {
        d.kind = kind;
        d.block = kind == decomp::DistKind::BlockCyclic ? 3 : 0;
      }
  return dec;
}

namespace {

/// Tally the innermost restricted slices of `plan` whose walkers cross
/// strips, by fold kind.
void count_strip_slices(const core::CompiledProgram& cp,
                        const native::ProgramPlan& plan,
                        CheckCoverage& cov) {
  for (size_t j = 0; j < plan.nests.size(); ++j) {
    const int d = cp.dec().par[j].nest.depth();
    for (const native::NestRestriction& r : plan.nests[j].restrictions) {
      if (r.level != d - 1 || r.fold.kind == decomp::DistKind::Serial)
        continue;
      bool strips = false;
      const auto note = [&](const core::CompiledRef& ref) {
        runtime::RefWalker w;
        const auto& lay = cp.arrays[static_cast<size_t>(ref.array)].layout;
        strips |= w.build(ref, lay, d) && w.walks_strips();
      };
      for (const core::CompiledStmt& cs : cp.nests[j].stmts) {
        if (cs.depth < d) continue;
        for (const core::CompiledRef& ref : cs.reads) note(ref);
        note(cs.write);
      }
      // DistKind order: Serial, Block, Cyclic, BlockCyclic.
      if (strips) ++cov.strip_slices[static_cast<int>(r.fold.kind) - 1];
    }
  }
}

/// Each statement pair's vectors, as a set.
std::map<std::pair<int, int>, std::set<std::string>> pair_sets(
    const std::vector<dep::PairDeps>& pairs) {
  std::map<std::pair<int, int>, std::set<std::string>> out;
  for (const dep::PairDeps& pd : pairs)
    for (const dep::DepVector& v : pd.vectors)
      out[{pd.src_stmt, pd.dst_stmt}].insert(v.to_string());
  return out;
}

/// Both engines and the native backend on one compilation, against the
/// sequential reference.
std::optional<std::string> run_engines(
    const core::CompiledProgram& cp, const std::string& what,
    const std::vector<std::vector<double>>& reference, CheckCoverage* cov) {
  const int procs = cp.procs;
  // The native plan folds the pairs parallelize mapped through each
  // nest's transform: they must be what analyzing the compiled nest finds.
  for (size_t j = 0; j < cp.nests.size(); ++j)
    if (pair_sets(cp.dec().par[j].pairs) !=
        pair_sets(dep::analyze_pairs(cp.dec().par[j].nest)))
      return strf("%s procs=%d nest %zu: stored dependence pairs differ "
                  "from the compiled nest's",
                  what.c_str(), procs, j);
  const OracleReport diff = check_differential(
      cp, machine::MachineConfig::dash(procs), reference);
  if (!diff.ok())
    return strf("%s %s", what.c_str(), diff.to_string().c_str());

  // Real threads: the plan's derived barriers, owner posts, gathers
  // and doacross waits must order every dependence.
  const native::ProgramPlan plan = native::plan_program(cp);
  if (cov != nullptr) count_strip_slices(cp, plan, *cov);
  native::NativeOptions nopts;
  nopts.threads = procs;
  const native::NativeResult res = native::run_native(cp, plan, nopts);
  if (cov != nullptr) cov->split_instances += res.split_instances;
  if (res.values != reference)
    return strf("%s procs=%d engine=native diverges from the sequential "
                "reference",
                what.c_str(), procs);
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_program(const ir::Program& prog,
                                         CheckCoverage* cov) {
  try {
    const auto reference = runtime::run_reference(prog);
    const std::shared_ptr<const core::Analysis> analysis =
        core::analyze(prog);
    for (const core::Mode mode :
         {core::Mode::Base, core::Mode::CompDecomp, core::Mode::Full}) {
      for (const int procs : {1, 3, 4}) {
        const core::CompiledProgram cp = core::compile(analysis, mode, procs);

        // Static oracles on every compilation.
        const ValidationReport vr = validate_compiled(cp);
        if (!vr.ok())
          return strf("mode=%s procs=%d static oracle violation:\n%s",
                      core::to_string(mode).c_str(), procs,
                      vr.to_string().c_str());
        if (auto bad = run_engines(cp, "mode=" + core::to_string(mode),
                                   reference, cov))
          return bad;
      }
    }
    // FULL with every distributed dimension refolded: the CYCLIC and
    // BLOCK-CYCLIC slices the generated programs' own folds never pick.
    const decomp::ProgramDecomposition& dec = analysis->dec(core::Mode::Full);
    for (const decomp::DistKind kind :
         {decomp::DistKind::Cyclic, decomp::DistKind::BlockCyclic}) {
      const decomp::ProgramDecomposition re = refold(dec, kind);
      for (const int procs : {3, 4}) {
        std::optional<core::CompiledProgram> cp;
        try {
          cp = core::compile_with_decomposition(prog, re, core::Mode::Full,
                                                procs);
        } catch (const Error&) {
          if (cov != nullptr) ++cov->refold_skips;
          continue;
        }
        if (auto bad = run_engines(
                *cp, "mode=FULL refolded=" + decomp::to_string(kind),
                reference, cov))
          return bad;
      }
    }
  } catch (const Error& e) {
    return "crash: " + e.full_message();
  } catch (const std::exception& e) {
    return strf("crash (foreign exception): %s", e.what());
  } catch (...) {
    return "crash (unknown exception)";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

ir::Program shrink_program(
    const ir::Program& prog,
    const std::function<std::optional<std::string>(const ir::Program&)>&
        failing) {
  ir::Program best = prog;
  bool progress = true;
  while (progress) {
    progress = false;

    // Drop whole nests.
    for (size_t j = 0; best.nests.size() > 1 && j < best.nests.size();) {
      ir::Program cand = best;
      cand.nests.erase(cand.nests.begin() + static_cast<long>(j));
      if (failing(cand)) {
        best = std::move(cand);
        progress = true;
      } else {
        ++j;
      }
    }
    // Drop statements (a nest keeps at least one).
    for (size_t j = 0; j < best.nests.size(); ++j) {
      for (size_t s = 0;
           best.nests[j].stmts.size() > 1 && s < best.nests[j].stmts.size();) {
        ir::Program cand = best;
        cand.nests[j].stmts.erase(cand.nests[j].stmts.begin() +
                                  static_cast<long>(s));
        if (failing(cand)) {
          best = std::move(cand);
          progress = true;
        } else {
          ++s;
        }
      }
    }
    // Drop reads (evaluators ignore missing trailing reads).
    for (size_t j = 0; j < best.nests.size(); ++j) {
      for (size_t s = 0; s < best.nests[j].stmts.size(); ++s) {
        for (size_t r = 0; r < best.nests[j].stmts[s].reads.size();) {
          ir::Program cand = best;
          cand.nests[j].stmts[s].reads.erase(
              cand.nests[j].stmts[s].reads.begin() + static_cast<long>(r));
          if (failing(cand)) {
            best = std::move(cand);
            progress = true;
          } else {
            ++r;
          }
        }
      }
    }
    // Collapse the time loop.
    if (best.time_steps > 1) {
      ir::Program cand = best;
      cand.time_steps = 1;
      if (failing(cand)) {
        best = std::move(cand);
        progress = true;
      }
    }
  }
  return best;
}

std::optional<Divergence> fuzz_one(std::uint64_t seed, CheckCoverage* cov) {
  const ir::Program prog = generate_program(seed);
  if (!check_program(prog, cov)) return std::nullopt;
  Divergence d;
  d.seed = seed;
  d.program = shrink_program(prog);
  d.detail = check_program(d.program).value_or("(not reproducible?)");
  return d;
}

}  // namespace dct::verify
