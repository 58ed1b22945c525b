// The owner-computes traversal kernel: the one SPMD walk (the paper's
// Section 4 code shape) that every execution engine runs. Traversal<Policy>
// owns the loop-nest recursion (optionally restricted per level to one
// processor's iterations), the innermost segment (hoisted owner folds,
// incremental OwnerStep owners, walker addressing with the
// Layout::linearize fallback, the gated-statement firing rule, the split
// of the innermost loop where a walker's run ends) and the
// statement-instance body: reads, then eval, then the write. What an
// instance does is the policy's:
//
//   Slot slot(int array, double addr_overhead)   per-reference storage
//                                      handle (the overhead: Section 4.3)
//   bool owns(int q)                   run instances owned by q here?
//   Cursor cursor() / flush(Cursor&)   open / close a segment's cursor
//   begin(Cursor&, q, compute_cycles) / end(Cursor&)   bracket an instance
//   double load(Cursor&, const Slot&, Int lin)
//   store(Cursor&, const Slot&, Int lin, double v, bool has_value)
//   poll()                once per non-empty segment
//   gate()                before and after every gated-statement firing;
//                         owns() is asked about its owner once in between
//   after_iteration(l)    after each iteration of non-innermost loop l
//   kRunLoops             static constexpr bool: takes whole runs
//   bool values()         evaluate statements? When false, load()'s
//                         result is unused, no evaluator is called and
//                         store() gets has_value = false
//
// A policy whose loads and stores are plain memory accesses, whose
// begin() and end() do nothing and whose values() is true, may set
// kRunLoops and then also provides
//
//   double* element(const Slot&, Int lin)   the element at address lin
//
// The kernel then runs each owned piece of an innermost segment (a stretch
// inside every walker's run, with every owner constant over it) through
// the statements' compiled runs (ir::StmtEval::run) instead of instance by
// instance: one statement's n instances in one call. Several statements
// run the same way, one run loop each in program order, when they are
// independent (no array written by one is read or written by another, so
// any order of their instances gives the same values); otherwise they run
// one position at a time in program order, the instances and their order
// being the same as instance by instance. Pieces fall back to the
// per-instance body when a full-depth statement has more reads than
// ir::StmtRun::kMaxReads or an owner that changes along the segment; the
// first iteration of a segment that fires gated statements always does.
//
// With `fast` off the kernel is the reference interpreter: every address
// comes from Layout::linearize and every owner is folded per instance.
//
// Each statement is read where the compile keeps it: its references,
// depth, compute cost and evaluator from the transformed nest
// (cp.dec().par[j].nest.stmts[s]), its owners and address overheads from
// what lowering decided (cp.nests[j].stmts[s]).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/compiler.hpp"
#include "runtime/executor.hpp"
#include "runtime/walker.hpp"
#include "support/diagnostics.hpp"

namespace dct::runtime {

/// Incremental owner fold over the innermost loop variable: the same
/// BLOCK / CYCLIC / BLOCK-CYCLIC folding as core::CoordFold::fold, but
/// maintained by increment-and-compare instead of div/mod per iteration.
class OwnerStep {
 public:
  explicit OwnerStep(const core::CoordFold& cf)
      : kind_(cf.kind), block_(std::max<Int>(1, cf.block)), procs_(cf.procs),
        stride_(cf.stride), offset_(cf.offset) {}

  void init(Int v) {
    const Int x = v - offset_;
    f_ = linalg::floor_div(x, block_);
    rem_ = x - f_ * block_;
    g_ = static_cast<int>(
        linalg::floor_mod(kind_ == decomp::DistKind::Cyclic ? x : f_, procs_));
  }

  void step() {
    if (kind_ == decomp::DistKind::Cyclic) {
      if (++g_ == procs_) g_ = 0;
    } else if (++rem_ == block_) {
      rem_ = 0;
      ++f_;
      if (++g_ == procs_) g_ = 0;
    }
  }

  /// value() is 0 at every iteration: a single-processor or unbound fold.
  bool constant() const {
    return kind_ == decomp::DistKind::Serial || procs_ == 1;
  }

  /// Folded coordinate times the mixed-radix stride (CoordFold semantics).
  int value() const {
    switch (kind_) {
      case decomp::DistKind::Serial:
        return 0;
      case decomp::DistKind::Block:
        return static_cast<int>(std::clamp<Int>(f_, 0, procs_ - 1)) * stride_;
      default:
        return g_ * stride_;
    }
  }

 private:
  decomp::DistKind kind_;
  Int block_;
  int procs_, stride_;
  Int offset_;
  Int rem_ = 0;  ///< (v - offset) mod block, in [0, block)
  Int f_ = 0;    ///< unclamped floor((v - offset) / block)
  int g_ = 0;    ///< f mod procs (CYCLIC: (v - offset) mod procs)
};

/// Ascending iterator over the values of [lo, hi] owned by digit `t` of a
/// fold — the per-thread loop bounds of the paper's generated SPMD code —
/// as runs of equally spaced values: one clamped run for BLOCK (edge digits
/// absorb the out-of-range spill, matching CoordFold::fold's clamp), one
/// stride-procs run for CYCLIC, and block-length runs every procs blocks
/// for BLOCK-CYCLIC.
class OwnedIter {
 public:
  OwnedIter(const core::CoordFold& f, int t, Int lo, Int hi)
      : kind_(f.kind), procs_(f.procs), block_(std::max<Int>(1, f.block)),
        offset_(f.offset), hi_(hi) {
    switch (kind_) {
      case decomp::DistKind::Serial:  // unbound: every value "owned"
        v_ = lo;
        run_hi_ = hi;
        break;
      case decomp::DistKind::Block:
        v_ = t == 0 ? lo : std::max(lo, f.block_lo(t));
        run_hi_ = t == procs_ - 1 ? hi : std::min(hi, f.block_hi(t));
        break;
      case decomp::DistKind::Cyclic:
        v_ = lo + linalg::floor_mod(offset_ + t - lo, procs_);
        run_hi_ = hi;
        break;
      case decomp::DistKind::BlockCyclic:
        g_ = linalg::floor_div(lo - offset_, block_);
        g_ += linalg::floor_mod(t - g_, procs_);
        v_ = std::max(lo, offset_ + g_ * block_);
        run_hi_ = std::min(hi, offset_ + (g_ + 1) * block_ - 1);
        break;
    }
  }

  bool done() const { return v_ > run_hi_; }
  /// First value of the current run.
  Int value() const { return v_; }
  /// Distance between consecutive owned values of a run.
  Int stride() const {
    return kind_ == decomp::DistKind::Cyclic ? procs_ : 1;
  }
  /// Owned values in the current run.
  Int run_left() const { return (run_hi_ - v_) / stride() + 1; }

  /// Move to the next run; done() afterwards when there is none.
  void next_run() {
    if (kind_ != decomp::DistKind::BlockCyclic) {
      run_hi_ = v_ - 1;  // Serial / Block / Cyclic: a single run
      return;
    }
    g_ += procs_;
    v_ = offset_ + g_ * block_;
    run_hi_ = std::min(hi_, v_ + block_ - 1);
  }

 private:
  decomp::DistKind kind_;
  int procs_;
  Int block_, offset_, hi_;
  Int v_ = 0, run_hi_ = -1, g_ = 0;
};

/// One loop level walked only over the values that digit `digit` of
/// `fold` owns. An innermost restriction requires every full-depth
/// statement of the nest to share one owner signature, and every gated
/// statement to be listed ahead of them.
struct Restriction {
  int level = -1;
  core::CoordFold fold;
  int digit = 0;
};

template <class Policy>
class Traversal {
  // Compile-time, so that a policy without run loops compiles none of the
  // batching branches into its segment loops.
  static constexpr bool kRunLoops = Policy::kRunLoops;

 public:
  Traversal(const core::CompiledProgram& cp, Policy& policy, bool fast)
      : cp_(cp), policy_(policy), fast_(fast), procs_(cp.procs) {
    size_t max_rank = 1, max_reads = 1;
    plans_.resize(cp.nests.size());
    for (size_t j = 0; j < cp.nests.size(); ++j) {
      const ir::LoopNest& nest = cp.dec().par[j].nest;
      const int d = nest.depth();
      for (size_t i = 0; i < nest.stmts.size(); ++i) {
        const ir::Stmt& st = nest.stmts[i];
        const core::CompiledStmt& cs = cp.nests[j].stmts[i];
        max_reads = std::max(max_reads, st.reads.size());
        Stmt s;
        s.st = &st;
        s.cs = &cs;
        s.full = st.effective_depth(d) >= d;
        for (const auto& pair : cs.owner) {
          if (!fast || !s.full)
            s.folded.push_back(pair);
          else if (pair.first == d - 1)
            s.stepped.emplace_back(pair.second);
          else
            s.hoisted.push_back(pair);
        }
        // Walkers pay off only for references advanced every innermost
        // iteration; gated statements keep the linearize path.
        auto add = [&](const ir::ArrayRef& ref) {
          max_rank = std::max(max_rank, ref.offset.size());
          Ref& r = s.refs.emplace_back();
          r.ref = &ref;
          r.slot = policy.slot(ref.array, cs.addr_overhead[s.refs.size() - 1]);
          r.walk = fast && s.full;
          if (r.walk)
            r.walker.build(ref,
                           cp.arrays[static_cast<size_t>(ref.array)].layout);
        };
        for (const ir::ArrayRef& ref : st.reads) add(ref);
        DCT_CHECK(!cp.dec().arrays[static_cast<size_t>(st.write.array)]
                       .replicated,
                  "write to replicated array");
        add(st.write);
        s.runs = kRunLoops && fast && s.full &&
                 st.reads.size() <= ir::StmtRun::kMaxReads;
        if (s.runs) s.run = st.eval.run(st.reads.size());
        plans_[j].stmts.push_back(std::move(s));
      }
    }
    // The plans are final: their statements' and walkers' addresses are
    // stable.
    for (Plan& plan : plans_) {
      bool runs = true, constant_owners = true;
      for (Stmt& s : plan.stmts) {
        for (Ref& r : s.refs)
          if (r.walk) plan.walkers.push_back(&r.walker);
        if (!s.full) {
          plan.gated = true;
          continue;
        }
        plan.full.push_back(&s);
        runs &= s.runs;
        constant_owners &=
            std::all_of(s.stepped.begin(), s.stepped.end(),
                        [](const OwnerStep& os) { return os.constant(); });
      }
      plan.run_slices = runs && !plan.full.empty();
      plan.run_segments = plan.run_slices && constant_owners;
      plan.split = plan.run_slices && plan.full.size() > 1 &&
                   independent(plan.full);
    }
    scratch_.assign(max_rank, 0);
    vals_.assign(max_reads, 0.0);
  }

  /// Walk nest `j` once. Levels named in `restrictions` visit only the
  /// owned values of their fold digit.
  void run_nest(size_t j, std::span<const Restriction> restrictions = {}) {
    loops_ = &cp_.dec().par[j].nest.loops;
    const int d = static_cast<int>(loops_->size());
    if (d == 0) return;
    plan_ = &plans_[j];
    inner_ = d - 1;
    iter_.assign(static_cast<size_t>(d), 0);
    lb_.assign(static_cast<size_t>(d), 0);
    ub_.assign(static_cast<size_t>(d), 0);
    restrict_.assign(static_cast<size_t>(d), nullptr);
    for (const Restriction& r : restrictions)
      restrict_[static_cast<size_t>(r.level)] = &r;
    walk(0);
  }

  long long statements = 0;  ///< statement instances executed
  ExecCounters counters;     ///< all but dir_fast, which is the machine's

 private:
  using Cursor = typename Policy::Cursor;
  struct Ref {
    const ir::ArrayRef* ref = nullptr;
    typename Policy::Slot slot{};
    bool walk = false;  ///< addresses come from the incremental walker
    RefWalker walker;
  };
  struct Stmt {
    const ir::Stmt* st = nullptr;          ///< the transformed statement
    const core::CompiledStmt* cs = nullptr;  ///< its owners and overheads
    bool full = false;  ///< executes on every innermost iteration
    /// Owner pairs invariant over the innermost loop: folded once per
    /// segment into q_base.
    std::vector<std::pair<int, core::CoordFold>> hoisted;
    /// Owner pairs on the innermost loop: stepped incrementally.
    std::vector<OwnerStep> stepped;
    /// Owner pairs folded per instance (gated statements, interpreter).
    std::vector<std::pair<int, core::CoordFold>> folded;
    std::vector<Ref> refs;  ///< reads in order, then the write
    int q_base = 0;
    /// Full depth, at most StmtRun::kMaxReads reads, every reference
    /// walked (fast): can run in run loops under a kRunLoops policy.
    bool runs = false;
    ir::StmtRun run;  ///< the current run's addresses
  };
  /// One nest's statements and what the kernel may batch in it.
  struct Plan {
    std::vector<Stmt> stmts;
    std::vector<Stmt*> full;          ///< the full-depth statements
    std::vector<RefWalker*> walkers;  ///< every walker of the nest
    bool gated = false;               ///< some statement is not full depth
    bool run_slices = false;          ///< owned slices run as run loops
    /// So do segment pieces: no owner changes along the innermost loop.
    bool run_segments = false;
    /// A piece runs one run loop per statement rather than position by
    /// position: the full-depth statements are several and independent.
    bool split = false;
  };

  /// No array written by one of `stmts` is read or written by another:
  /// their instances give the same values in any order.
  static bool independent(const std::vector<Stmt*>& stmts) {
    for (const Stmt* w : stmts) {
      const int a = w->st->write.array;
      for (const Stmt* o : stmts) {
        if (o == w) continue;
        if (o->st->write.array == a ||
            std::any_of(o->st->reads.begin(), o->st->reads.end(),
                        [&](const ir::ArrayRef& r) { return r.array == a; }))
          return false;
      }
    }
    return true;
  }

  Int at(int k) const { return iter_[static_cast<size_t>(k)]; }

  int fold(const std::vector<std::pair<int, core::CoordFold>>& pairs) const {
    int q = 0;
    for (const auto& [loop, f] : pairs) q += f.fold(at(loop)) * f.stride;
    return q;
  }

  /// Owner of `s` at the current iteration; advances its OwnerSteps.
  int owner(Stmt& s) {
    int q = s.q_base + fold(s.folded);
    for (OwnerStep& os : s.stepped) {
      q += os.value();
      os.step();  // advance for the next iteration (harmless past end)
    }
    return std::min(q, procs_ - 1);
  }

  /// Address of `r` at the current iteration. A walker then steps on
  /// inside its run.
  Int next_addr(Ref& r) {
    if (!r.walk) return linearize(r);
    const Int a = r.walker.addr();
    r.walker.step();
    return a;
  }

  // Out of line: the cold path of the fast configuration.
  [[gnu::noinline]] Int linearize(const Ref& r) {
    const ir::ArrayRef& ref = *r.ref;
    const size_t rank = ref.offset.size();
    for (size_t k = 0; k < rank; ++k) {
      const std::span<const Int> row = ref.access.row(static_cast<int>(k));
      Int v = ref.offset[k];
      for (size_t l = 0; l < row.size(); ++l) v += row[l] * iter_[l];
      scratch_[k] = v;
    }
    ++counters.linearize_fallback;
    return cp_.arrays[static_cast<size_t>(ref.array)].layout.linearize(
        std::span<const Int>(scratch_.data(), rank));
  }

  /// One statement instance on processor q: reads, then eval, then write.
  /// Without values() the reads still happen and eval does not.
  /// Inlined into every segment loop: this is the engines' hot path.
  [[gnu::always_inline]] void instance(Cursor& cur, Stmt& s, int q) {
    const ir::Stmt& st = *s.st;
    policy_.begin(cur, q, st.compute_cycles);
    const size_t n = st.reads.size();
    for (size_t k = 0; k < n; ++k)
      vals_[k] = policy_.load(cur, s.refs[k].slot, next_addr(s.refs[k]));
    const bool has = policy_.values();
    policy_.store(cur, s.refs[n].slot, next_addr(s.refs[n]),
                  has ? st.eval(std::span<const double>(vals_.data(), n)) : 0.0,
                  has);
    policy_.end(cur);
    ++statements;
  }

  void walk(int level) {
    const ir::Loop& loop = (*loops_)[static_cast<size_t>(level)];
    const Int lo = lb_[static_cast<size_t>(level)] = loop.lower_bound(iter_);
    const Int hi = ub_[static_cast<size_t>(level)] = loop.upper_bound(iter_);
    const Restriction* r = restrict_[static_cast<size_t>(level)];
    if (level == inner_) {
      if (lo > hi) return;  // empty: gated statements do not fire either
      policy_.poll();
      if (r != nullptr)
        restricted_segment(*r, lo, hi);
      else
        segment(lo, hi);
      return;
    }
    auto visit = [&](Int v) {
      iter_[static_cast<size_t>(level)] = v;
      walk(level + 1);
      policy_.after_iteration(level);
    };
    if (r != nullptr) {
      for (OwnedIter oi(r->fold, r->digit, lo, hi); !oi.done();
           oi.next_run()) {
        const Int step = oi.stride();
        for (Int v = oi.value(), n = oi.run_left(); n > 0; --n, v += step)
          visit(v);
      }
    } else {
      for (Int v = lo; v <= hi; ++v) visit(v);
    }
  }

  /// Steps every walker of the nest can take inside its current run.
  Int walker_run() const {
    Int n = kEndlessRun;
    for (const RefWalker* w : plan_->walkers) n = std::min(n, w->run());
    return n;
  }

  /// Close every walker's run after n steps.
  void finish_runs(Int n) {
    for (RefWalker* w : plan_->walkers) w->finish_run(n);
  }

  /// n positions of a piece inside every walker's run, through run loops:
  /// the statements of `batch` (owned, in program order) execute, every
  /// walker of the nest moves n steps. One statement, or the independent
  /// statements of a split nest, run n instances per run loop in turn;
  /// any other batch runs position by position.
  void run_piece(std::span<Stmt* const> batch, Int n) {
    if (n <= 0) return;
    for (Stmt* s : batch) {
      ir::StmtRun& run = s->run;
      for (size_t k = 0; k < run.reads; ++k) {
        run.read[k] = element(s->refs[k]);
        run.read_step[k] = s->refs[k].walker.delta();
      }
      run.write = element(s->refs[run.reads]);
      run.write_step = s->refs[run.reads].walker.delta();
    }
    if (batch.size() == 1 || plan_->split) {
      for (Stmt* s : batch) s->run(n);
    } else {
      for (Int k = 0; k < n; ++k)
        for (Stmt* s : batch) s->run.once();
    }
    for (RefWalker* w : plan_->walkers) w->step(n);
    const long long done = n * static_cast<long long>(batch.size());
    statements += done;
    counters.run_instances += done;
    if (plan_->split) counters.split_instances += done;
  }

  /// The element at walked reference r's current address.
  double* element(const Ref& r) {
    if constexpr (kRunLoops)
      return policy_.element(r.slot, r.walker.addr());
    else
      return nullptr;  // never asked: no run loops
  }

  /// Every statement at innermost iteration i of a segment starting at lo.
  [[gnu::always_inline]] void iteration(Cursor& cur, Int i, Int lo) {
    iter_[static_cast<size_t>(inner_)] = i;
    for (Stmt& s : plan_->stmts) {
      if (!s.full) {
        if (i == lo && fires(s)) fire(cur, s);
        continue;
      }
      const int q = owner(s);
      if (policy_.owns(q)) {
        instance(cur, s, q);
      } else {
        for (Ref& r : s.refs)
          if (r.walk) r.walker.step();
      }
    }
  }

  /// Full innermost segment: every iteration is stepped, each instance
  /// runs when its owner is the policy's. Gated statements run once per
  /// prefix, at the first iteration of every loop below their depth. The
  /// loop is split where any walker's run ends, so inside a piece every
  /// address advances by one add, and with run_segments each piece runs
  /// the owned statements through run loops.
  /// Out of line (like restricted_segment) so the hot loop is compiled
  /// on its own, away from the recursion: measurably faster.
  [[gnu::noinline]] void segment(Int lo, Int hi) {
    Cursor cur = policy_.cursor();
    const Int len = hi - lo + 1;
    iter_[static_cast<size_t>(inner_)] = lo;
    owned_.clear();
    for (Stmt* sp : plan_->full) {
      Stmt& s = *sp;
      s.q_base = fold(s.hoisted);
      for (OwnerStep& os : s.stepped) os.init(lo);
      for (Ref& r : s.refs)
        if (r.walk) {
          r.walker.init(iter_);
          counters.walker_fast += len;
        }
      if (fast_ && s.stepped.empty()) counters.owner_hoisted += len;
      // Constant over the segment when run_segments holds: the stepped
      // folds, if any, add 0.
      if (kRunLoops && plan_->run_segments &&
          policy_.owns(std::min(s.q_base, procs_ - 1)))
        owned_.push_back(&s);
    }
    for (Int i = lo;;) {
      const Int n = std::min(hi - i + 1, walker_run());
      const Int end = i + n;
      if (kRunLoops && plan_->run_segments) {
        if (i == lo && plan_->gated) iteration(cur, i++, lo);
        run_piece(owned_, end - i);
        i = end;
      } else {
        for (; i < end; ++i) iteration(cur, i, lo);
      }
      if (i > hi) break;
      finish_runs(n);
      ++counters.walker_splits;
    }
    policy_.flush(cur);
  }

  /// One firing of gated statement `s`, bracketed by the policy's gates.
  void fire(Cursor& cur, Stmt& s) {
    policy_.gate();
    const int q = owner(s);
    if (policy_.owns(q)) instance(cur, s, q);
    policy_.gate();
  }

  bool fires(const Stmt& s) const {
    for (int k = s.st->effective_depth(inner_ + 1); k < inner_; ++k)
      if (at(k) != lb_[static_cast<size_t>(k)]) return false;
    return true;
  }

  /// Innermost segment restricted to one digit's values: the restricted
  /// fold is the same for every full-depth statement, so ownership of the
  /// whole slice is one comparison and walkers jump between owned values.
  /// Gated statements, listed ahead of every full-depth one, fire first,
  /// exactly as at the segment's first iteration.
  [[gnu::noinline]] void restricted_segment(const Restriction& r, Int lo,
                                            Int hi) {
    Cursor cur = policy_.cursor();
    iter_[static_cast<size_t>(inner_)] = lo;
    const Stmt* lead = nullptr;
    for (Stmt& s : plan_->stmts) {
      if (s.full) {
        if (lead == nullptr) lead = &s;
      } else if (fires(s)) {
        fire(cur, s);
      }
    }
    OwnedIter oi(r.fold, r.digit, lo, hi);
    if (lead != nullptr && !oi.done()) {
      iter_[static_cast<size_t>(inner_)] = oi.value();
      const int q = std::min(fold(lead->cs->owner), procs_ - 1);
      if (policy_.owns(q)) owned_slice(cur, oi, q);
    }
    policy_.flush(cur);
  }

  /// The full-depth instances of a restricted slice, all owned by q: each
  /// run of owned values is split where a walker's run ends, and walkers
  /// jump the gaps between runs.
  void owned_slice(Cursor& cur, OwnedIter& oi, int q) {
    const Int stride = oi.stride();
    for (RefWalker* w : plan_->walkers) w->init(iter_, stride);
    for (Int i = oi.value();;) {
      Int n = 0;  // steps into the walkers' current run
      for (Int left = oi.run_left();;) {
        n = std::min(left, walker_run());
        if (kRunLoops && plan_->run_slices) {
          run_piece(plan_->full, n);
          i += n * stride;
        } else {
          for (const Int end = i + n * stride; i != end; i += stride) {
            iter_[static_cast<size_t>(inner_)] = i;
            for (Stmt* s : plan_->full) instance(cur, *s, q);
          }
        }
        left -= n;
        if (left == 0) break;
        finish_runs(n);
        ++counters.walker_splits;
      }
      oi.next_run();
      if (oi.done()) break;
      finish_runs(n);
      for (RefWalker* w : plan_->walkers) w->jump((oi.value() - i) / stride);
      i = oi.value();
    }
  }

  const core::CompiledProgram& cp_;
  Policy& policy_;
  const bool fast_;
  const int procs_;
  std::vector<Plan> plans_;  ///< per nest
  const std::vector<ir::Loop>* loops_ = nullptr;
  Plan* plan_ = nullptr;  ///< the nest being walked
  std::vector<Stmt*> owned_;  ///< segment(): the statements it runs
  int inner_ = 0;
  std::vector<Int> iter_, lb_, ub_, scratch_;
  std::vector<double> vals_;
  std::vector<const Restriction*> restrict_;
};

}  // namespace dct::runtime
