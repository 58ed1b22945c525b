// Statement evaluators: the arithmetic of one assignment, write =
// eval(reads), together with the loops that run it.
//
// A StmtEval is assigned from any closure taking the read values, exactly
// like the std::function it replaces (`s.eval = [](std::span<const double>
// r) { ... }`), and stores it the same way (a captureless closure costs no
// heap allocation). That assignment also instantiates, from the closure's
// own type, the statement's run entries, so the closure is inlined into
// compiled loops: a StmtRun from run() executes consecutive instances of
// the statement in order, each one reading at its strided addresses,
// evaluating, then writing. The native backend runs owned innermost runs
// through them (runtime/traversal.hpp): a statement's n instances in one
// call, or, for dependent statements sharing a run, one single-instance
// entry (StmtRun::once) per statement per position. The interpreter and
// the simulator call the closure once per instance.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>

namespace dct::ir {

/// A run of one statement: the addresses of its next instance, each moving
/// by a constant number of elements per instance, bound to the statement's
/// run loop by StmtEval::run.
struct StmtRun {
  /// Reads a run loop holds in registers; statements with more reads run
  /// per instance.
  static constexpr std::size_t kMaxReads = 8;

  std::size_t reads = 0;  ///< number of reads, at most kMaxReads
  std::array<const double*, kMaxReads> read{};
  std::array<std::ptrdiff_t, kMaxReads> read_step{};
  double* write = nullptr;
  std::ptrdiff_t write_step = 0;

  /// Execute n instances in order from the current addresses, leaving
  /// them at the instance after the last.
  void operator()(std::ptrdiff_t n) { loop_(closure_, *this, n); }
  /// The single-instance entry: operator()(1) without the loop set-up.
  void once() { once_(closure_, *this); }

 private:
  friend class StmtEval;
  using Loop = void (*)(const void*, StmtRun&, std::ptrdiff_t);
  using Once = void (*)(const void*, StmtRun&);
  Loop loop_ = nullptr;
  Once once_ = nullptr;
  const void* closure_ = nullptr;
};

class StmtEval {
  using Fn = std::function<double(std::span<const double>)>;

 public:
  StmtEval() = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, StmtEval> &&
             std::is_invocable_r_v<double, const std::decay_t<F>&,
                                   std::span<const double>>)
  StmtEval(F&& f) : fn_(std::forward<F>(f)) {
    if (fn_) bind_ = &bind<std::decay_t<F>>;
  }

  explicit operator bool() const { return static_cast<bool>(fn_); }

  /// One evaluation of values already read.
  double operator()(std::span<const double> reads) const { return fn_(reads); }

  /// The run of this statement with `reads` reads (at most
  /// StmtRun::kMaxReads; the evaluator must be non-empty); the caller
  /// fills in the addresses. It calls this evaluator's closure in place,
  /// so it is valid while the evaluator lives unchanged.
  StmtRun run(std::size_t reads) const { return bind_(fn_, reads); }

 private:
  template <class F>
  static StmtRun bind(const Fn& fn, std::size_t reads) {
    StmtRun r;
    r.reads = reads;
    r.loop_ = entries<F>[reads].loop;
    r.once_ = entries<F>[reads].once;
    // Assigned from another std::function, fn_ is a copy of it, not a
    // wrapper around it.
    if constexpr (std::is_same_v<F, Fn>)
      r.closure_ = &fn;
    else
      r.closure_ = fn.template target<F>();
    return r;
  }

  /// The run loop of closure type F over M reads: per instance the reads,
  /// the eval, the write, unrolled over the reads so that the addresses
  /// and values stay in registers.
  template <class F, std::size_t M>
  static void run_fixed(const void* closure, StmtRun& r, std::ptrdiff_t n) {
    const F& f = *static_cast<const F*>(closure);
    [&]<std::size_t... K>(std::index_sequence<K...>) {
      const double* rd[M + 1] = {r.read[K]...};
      const std::ptrdiff_t step[M + 1] = {r.read_step[K]...};
      double* w = r.write;
      const std::ptrdiff_t w_step = r.write_step;
      // Full size, zero past M: a closure may index reads past M in the
      // instantiations for arities it never runs with.
      std::array<double, StmtRun::kMaxReads> v{};
      for (; n > 0; --n) {
        ((v[K] = *rd[K], rd[K] += step[K]), ...);
        *w = f(std::span<const double>(v.data(), M));
        w += w_step;
      }
      ((r.read[K] = rd[K]), ...);
      r.write = w;
    }(std::make_index_sequence<M>{});
  }

  template <class F, std::size_t M>
  static void run_once(const void* closure, StmtRun& r) {
    const F& f = *static_cast<const F*>(closure);
    [&]<std::size_t... K>(std::index_sequence<K...>) {
      std::array<double, StmtRun::kMaxReads> v{};
      ((v[K] = *r.read[K], r.read[K] += r.read_step[K]), ...);
      *r.write = f(std::span<const double>(v.data(), M));
      r.write += r.write_step;
    }(std::make_index_sequence<M>{});
  }

  struct Entries {
    StmtRun::Loop loop;
    StmtRun::Once once;
  };

  template <class F, std::size_t... M>
  static constexpr std::array<Entries, sizeof...(M)> make_entries(
      std::index_sequence<M...>) {
    return {Entries{&run_fixed<F, M>, &run_once<F, M>}...};
  }

  /// The entries of closure type F per read count, 0 to
  /// StmtRun::kMaxReads.
  template <class F>
  static constexpr std::array<Entries, StmtRun::kMaxReads + 1> entries =
      make_entries<F>(std::make_index_sequence<StmtRun::kMaxReads + 1>{});

  Fn fn_;
  StmtRun (*bind_)(const Fn&, std::size_t) = nullptr;
};

}  // namespace dct::ir
