#include "native/plan.hpp"

#include <algorithm>
#include <set>

#include "dep/parallelize.hpp"
#include "support/str.hpp"

namespace dct::native {

using core::CompiledNest;
using core::CompiledStmt;
using core::CoordFold;

namespace {

/// `cn` holds the owners lowering decided for `par.nest`, statement for
/// statement, so the pairs' statement indices name both.
NestPlan plan_nest(const dep::ParallelizedNest& par, const CompiledNest& cn,
                   int procs) {
  NestPlan np;
  const int d = par.nest.depth();
  if (d == 0 || cn.stmts.empty()) {
    np.why = "empty";
    return np;
  }

  auto depth = [&](int s) {
    return par.nest.stmts[static_cast<size_t>(s)].effective_depth(d);
  };
  auto full = [&](int s) { return depth(s) >= d; };
  const int nstmts = static_cast<int>(cn.stmts.size());
  bool gated = false;
  for (int s = 0; s < nstmts; ++s)
    if (!full(s)) gated = true;

  // A dependence between two same-owner endpoints is ordered by the
  // owning thread's walk; owners are provably equal when the statements
  // share one owner signature and the distance is exactly 0 at every
  // owner-bound loop. Only loops common to both endpoints count: a vector
  // with a gated endpoint is padded with 0 past its depth, while the gated
  // statement's owner folds those loops at their lower bounds.
  auto same_owner = [&](const dep::PairDeps& pd, const dep::DepVector& v) {
    const CompiledStmt& src = cn.stmts[static_cast<size_t>(pd.src_stmt)];
    const CompiledStmt& dst = cn.stmts[static_cast<size_t>(pd.dst_stmt)];
    if (src.owner != dst.owner) return false;
    for (const auto& [loop, fold] : src.owner) {
      const auto& dist = v.dist[static_cast<size_t>(loop)];
      if (loop >= std::min(depth(pd.src_stmt), depth(pd.dst_stmt)) ||
          !dist.has_value() || *dist != 0)
        return false;
    }
    return true;
  };
  auto same_sig = [&](int s1, int s2) {
    return cn.stmts[static_cast<size_t>(s1)].owner ==
           cn.stmts[static_cast<size_t>(s2)].owner;
  };

  // Whether an owner signature decides ownership digit by digit: one fold
  // per level, and an owner sum that cannot overflow (a clamped sum, digits
  // adding past procs-1, hands the top thread iterations outside its own
  // digit range). Restricted walks and doacross upstreams rely on digits.
  auto digits_exact = [&](const std::vector<std::pair<int, CoordFold>>& sig) {
    std::set<int> levels;
    int max_q = 0;
    for (const auto& [loop, fold] : sig) {
      if (!levels.insert(loop).second) return false;
      max_q += (fold.procs - 1) * fold.stride;
    }
    return max_q <= procs - 1;
  };
  // The owner signature every full-depth statement shares, if they do.
  int lead = -1;
  bool full_uniform = true;
  for (int s = 0; s < nstmts; ++s)
    if (full(s)) {
      if (lead < 0) lead = s;
      full_uniform = full_uniform && same_sig(lead, s);
    }
  const auto& sig = cn.stmts[static_cast<size_t>(std::max(lead, 0))].owner;
  full_uniform = full_uniform && lead >= 0 && digits_exact(sig);

  int bl = -1;
  bool post = false, gather = false;
  std::vector<dep::DepVector> cross;  // full-depth, between different owners
  for (const dep::PairDeps& pd : par.pairs) {
    for (const dep::DepVector& v : pd.vectors) {
      if (same_owner(pd, v)) continue;  // one thread, walk order
      if (!full(pd.src_stmt)) {
        // Out of a gated statement: every other thread waits on its
        // owner's post right after the firing, ahead of every later
        // instance.
        post = true;
        continue;
      }
      if (!full(pd.dst_stmt)) {
        // Into a gated statement: carried ones are ordered by the barrier
        // level. At the equal prefix the gated statement fires at the
        // first inner iteration, ahead of every statement listed after
        // it; one listed before may run first, so the owner gathers.
        if (!v.loop_independent())
          bl = std::max(bl, v.carrier_level());
        else if (pd.src_stmt < pd.dst_stmt)
          gather = true;
        continue;
      }
      if (v.loop_independent()) {
        // Same iteration, different owners: only per-statement syncs
        // could order it — run the nest on one thread instead.
        np.schedule = NestSchedule::Sequential;
        np.why = strf("loop-independent dependence %d->%d across owners",
                      pd.src_stmt, pd.dst_stmt);
        return np;
      }
      bl = std::max(bl, v.carrier_level());
      cross.push_back(v);
    }
  }

  if (bl >= d - 1) {
    // A barrier per innermost iteration is slower than not threading; a
    // BLOCK-owned innermost loop whose cross-owner sources all lie in the
    // same outer iteration and at most one block back pipelines instead.
    const auto inner =
        std::find_if(sig.begin(), sig.end(),
                     [&](const auto& lf) { return lf.first == d - 1; });
    bool doacross = full_uniform && !gated && d >= 2 &&
                    inner != sig.end() &&
                    inner->second.kind == decomp::DistKind::Block &&
                    inner->second.procs > 1;
    for (const dep::DepVector& v : cross) {
      if (!doacross) break;
      for (int k = 0; k < d - 1; ++k)
        if (v.dist[static_cast<size_t>(k)] != Int{0}) doacross = false;
      const auto& dist = v.dist[static_cast<size_t>(d - 1)];
      if (!dist.has_value() || *dist < 1 ||
          *dist > std::max<Int>(1, inner->second.block))
        doacross = false;
    }
    if (!doacross) {
      np.schedule = NestSchedule::Sequential;
      np.why = strf("dependence carried by the innermost loop (level %d), "
                    "not a doacross",
                    bl);
      return np;
    }
    np.doacross = {d - 1, inner->second};
    bl = -1;  // every cross-owner vector is carried innermost
  }
  np.barrier_level = bl;
  np.gate = gather ? GateSync::GatherPost
         : post ? GateSync::Post
                : GateSync::None;

  // Restriction: prune the walk at an owner-bound level of the full-depth
  // statements' shared signature that is deeper than every synchronized
  // level (the doacross posts per iteration of the loop enclosing the
  // innermost one), so every thread counts the same sync events. Gated
  // statements constrain it further. An innermost restriction walks only
  // the full-depth statements, after the gated ones fire, so those must be
  // listed first. Any other level must be a prefix level of every gated
  // statement with the same fold in its signature, and no firing may
  // synchronize, since threads then skip firings that are not their own.
  // A single-processor fold owns the whole range: restricting it prunes
  // nothing.
  const int sync_level = np.doacross.level >= 0 ? d - 2 : bl;
  auto gated_allow = [&](int loop, const CoordFold& fold) {
    for (int g = 0; g < nstmts; ++g) {
      if (full(g)) continue;
      const CompiledStmt& gs = cn.stmts[static_cast<size_t>(g)];
      if (loop == d - 1) {
        if (g > lead) return false;
        continue;
      }
      if (np.gate != GateSync::None || depth(g) <= loop ||
          !digits_exact(gs.owner) ||
          std::find(gs.owner.begin(), gs.owner.end(),
                    std::pair<int, CoordFold>(loop, fold)) == gs.owner.end())
        return false;
    }
    return true;
  };
  if (full_uniform) {
    for (const auto& [loop, fold] : sig)
      if (loop > sync_level && fold.kind != decomp::DistKind::Serial &&
          fold.procs > 1 && gated_allow(loop, fold))
        np.restrictions.push_back({loop, fold});
    std::sort(np.restrictions.begin(), np.restrictions.end(),
              [](const NestRestriction& a, const NestRestriction& b) {
                return a.level < b.level;
              });
  }
  std::string levels;
  for (const NestRestriction& r : np.restrictions)
    levels += strf("%s%d", levels.empty() ? "" : ",", r.level);
  const std::string sync =
      np.doacross.level >= 0
          ? strf("doacross level=%d upstream=digit-1", np.doacross.level)
          : strf("barrier_level=%d", np.barrier_level);
  const char* gate = np.gate == GateSync::None   ? ""
                     : np.gate == GateSync::Post ? " gate=post(owner)"
                                                 : " gate=gather+post(owner)";
  np.why = strf("parallel: %s%s restrict=[%s]", sync.c_str(), gate,
                levels.c_str());
  return np;
}

}  // namespace

ProgramPlan plan_program(const core::CompiledProgram& cp) {
  ProgramPlan pp;
  pp.nests.reserve(cp.nests.size());
  for (size_t j = 0; j < cp.nests.size(); ++j) {
    pp.nests.push_back(plan_nest(cp.dec().par[j], cp.nests[j], cp.procs));
    if (pp.nests.back().schedule == NestSchedule::Sequential)
      ++pp.sequential_nests;
  }
  return pp;
}

}  // namespace dct::native
