#include "native/native.hpp"

#include <barrier>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/traversal.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::native {

using core::CompiledProgram;

namespace {

/// Traversal policy of one SPMD thread: plain loads and stores into the
/// transformed layouts, the owner filter, and the plan's barriers (after
/// each iteration of the barrier level, around gated-statement firings).
/// Unfiltered, it runs a Sequential nest whole on one thread.
class NativePolicy {
 public:
  using Slot = double*;
  struct Cursor {};

  NativePolicy(std::vector<std::vector<double>>& data, std::barrier<>& bar,
               int T, int myid)
      : data_(data), bar_(bar), T_(T), myid_(myid) {}

  Slot slot(const core::CompiledRef& ref) const {
    return data_[static_cast<size_t>(ref.array)].data();
  }
  bool owns(int q) const { return !filter_ || q == myid_; }
  static Cursor cursor() { return {}; }
  static void flush(Cursor&) {}
  static void begin(Cursor&, int, double) {}
  static void end(Cursor&) {}
  static double load(Cursor&, Slot s, Int lin) { return s[lin]; }
  static void store(Cursor&, Slot s, Int lin, double v, bool has_value) {
    if (has_value) s[lin] = v;
  }
  static void poll() {}
  // All threads evaluate the same firing predicate and visit the same
  // barrier-level iterations, so these barriers are uniform.
  void gate() {
    if (filter_ && np_->gate_sync) sync();
  }
  void after_iteration(int level) {
    if (filter_ && level == np_->barrier_level) sync();
  }

  /// Run the following nest under plan `np`, filtered by ownership or not.
  void enter(const NestPlan& np, bool filter) {
    np_ = &np;
    filter_ = filter;
  }
  void sync() {
    if (T_ > 1) {
      bar_.arrive_and_wait();
      ++barriers;
    }
  }

  long long barriers = 0;

 private:
  std::vector<std::vector<double>>& data_;
  std::barrier<>& bar_;
  const int T_;
  const int myid_;
  const NestPlan* np_ = nullptr;
  bool filter_ = true;
};

struct ThreadStats {
  long long statements = 0;
  long long barriers = 0;
};

/// One SPMD worker: walks every nest with the owner filter (or its
/// restricted slice), synchronizing as the plan dictates.
ThreadStats run_worker(const CompiledProgram& cp, const ProgramPlan& plan,
                       std::vector<std::vector<double>>& data,
                       std::barrier<>& bar, int myid) {
  NativePolicy policy(data, bar, cp.procs, myid);
  runtime::Traversal<NativePolicy> kernel(cp, policy, /*fast=*/true);
  // This thread's digit of every restricted level, per nest.
  std::vector<std::vector<runtime::Restriction>> restrict(plan.nests.size());
  for (size_t j = 0; j < plan.nests.size(); ++j)
    for (const NestRestriction& r : plan.nests[j].restrictions)
      restrict[j].push_back({r.level, r.fold, r.fold.digit_of(myid)});

  const ir::Program& prog = cp.program;
  for (int step = 0; step < prog.time_steps; ++step) {
    for (size_t j = 0; j < cp.nests.size(); ++j) {
      const NestPlan& np = plan.nests[j];
      if (np.schedule == NestSchedule::Sequential) {
        policy.sync();  // prior parallel writes visible to thread 0
        policy.enter(np, /*filter=*/false);
        if (myid == 0) kernel.run_nest(j);
        policy.sync();  // thread 0's writes visible to everyone
      } else {
        policy.enter(np, /*filter=*/true);
        kernel.run_nest(j, restrict[j]);
      }
      const bool last =
          step == prog.time_steps - 1 && j == cp.nests.size() - 1;
      if (cp.nests[j].barrier_after || last) policy.sync();
    }
  }
  return {kernel.statements, policy.barriers};
}

}  // namespace

NativeResult run_native(const CompiledProgram& cp, const ProgramPlan& plan,
                        const NativeOptions& opts) {
  if (opts.threads != cp.procs)
    throw Error(Error::Code::kInvalidArgument,
                strf("native thread count %d != compiled processor count %d "
                     "(recompile for the target thread count)",
                     opts.threads, cp.procs));
  DCT_CHECK(plan.nests.size() == cp.nests.size(), "plan/program mismatch");
  const int T = opts.threads;

  // Arrays live in their TRANSFORMED linear layouts; values are stored as
  // doubles regardless of the modelled element size so results stay
  // bit-identical to the double-valued reference.
  std::vector<std::vector<double>> data(cp.program.arrays.size());
  for (size_t a = 0; a < data.size(); ++a) {
    data[a].assign(static_cast<size_t>(cp.arrays[a].layout.size()), 0.0);
    runtime::for_each_initial(cp, static_cast<int>(a), opts.init_seed,
                              [&](std::span<const Int>, Int lin, double v) {
                                data[a][static_cast<size_t>(lin)] = v;
                              });
  }

  std::barrier<> bar(static_cast<std::ptrdiff_t>(T));
  std::vector<ThreadStats> stats(static_cast<size_t>(T));
  std::exception_ptr first_error;
  std::mutex error_mu;

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(T));
    for (int myid = 0; myid < T; ++myid) {
      threads.emplace_back([&, myid] {
        try {
          stats[static_cast<size_t>(myid)] =
              run_worker(cp, plan, data, bar, myid);
        } catch (...) {
          {
            std::lock_guard<std::mutex> g(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
          // Permanently leave the barrier so surviving threads never
          // block on this one; the run's results are discarded anyway.
          bar.arrive_and_drop();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (first_error) std::rethrow_exception(first_error);

  NativeResult res;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const ThreadStats& s : stats) res.statements += s.statements;
  res.barriers = stats[0].barriers;
  res.sequential_nests = plan.sequential_nests;
  res.restricted_nests = plan.restricted_nests;
  res.parallel_nests =
      static_cast<int>(plan.nests.size()) - plan.sequential_nests;
  if (opts.collect_values)
    res.values = runtime::original_order(cp, [&](int a, Int lin) {
      return data[static_cast<size_t>(a)][static_cast<size_t>(lin)];
    });
  return res;
}

NativeResult run_native(const CompiledProgram& cp, const NativeOptions& opts) {
  return run_native(cp, plan_program(cp), opts);
}

}  // namespace dct::native
