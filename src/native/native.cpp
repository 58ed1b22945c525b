#include "native/native.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "runtime/traversal.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::native {

using core::CompiledProgram;

namespace {

/// Sync event number. Every thread counts the same sequence of sync events
/// (barriers, gated firings, doacross iterations), so "thread t posted
/// epoch e" names the same program point on every thread.
using Epoch = std::uint32_t;
/// Posted by a thread that throws: satisfies every wait on it, now and
/// later, so the survivors run to the end instead of hanging.
constexpr Epoch kTerminal = std::numeric_limits<Epoch>::max();

/// Alignment of a word other threads spin on: two lines, since
/// adjacent-line prefetchers pair 64-byte lines.
constexpr size_t kLinePair = 128;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Every wait in the backend: returns a's value once done(value) holds.
/// Spins on acquire loads with a pause, yielding every kPausesPerYield
/// pauses, for up to kSpinBudget (the awaited thread is usually running
/// and about to post); then sleeps in std::atomic::wait and counts the
/// wait in `slept`. Every poster stores with a seq_cst store or RMW before
/// notify_all: notify_all skips the futex wake when it reads no registered
/// waiter, and a waiter registers before its last check of the word. That
/// check can miss a release store still buffered when the registration is
/// read (store-load reordering), leaving the waiter asleep for good: about
/// one run_native in 10^5 hung that way under load. A seq_cst store is
/// ordered before the read.
template <class Done>
Epoch await(const std::atomic<Epoch>& a, Done done, long long& slept) {
  using Clock = std::chrono::steady_clock;
  // Long enough to cover a run's usual barrier skew and the gap between
  // back-to-back runs; a ~10 us spin slept in most of them.
  constexpr auto kSpinBudget = std::chrono::microseconds(200);
  constexpr int kPausesPerYield = 256;
  Epoch cur = a.load(std::memory_order_acquire);
  if (done(cur)) return cur;
  const Clock::time_point give_up = Clock::now() + kSpinBudget;
  do {
    for (int i = 0; i < kPausesPerYield; ++i) {
      cpu_relax();
      if (done(cur = a.load(std::memory_order_acquire))) return cur;
    }
    std::this_thread::yield();
    if (done(cur = a.load(std::memory_order_acquire))) return cur;
  } while (Clock::now() < give_up);
  ++slept;
  do {
    a.wait(cur, std::memory_order_acquire);
  } while (!done(cur = a.load(std::memory_order_acquire)));
  return cur;
}

/// One monotonic epoch counter per thread, each on its own cache lines. A
/// post is a sequentially consistent store to the poster's own counter, so
/// the waiter's acquire load of any later epoch also sees everything the
/// poster wrote before it. 32 bits wide so std::atomic::wait blocks on a
/// futex of the counter itself.
class EpochCounters {
 public:
  explicit EpochCounters(int threads) : slots_(static_cast<size_t>(threads)) {}

  void post(int t, Epoch e) {
    std::atomic<Epoch>& a = slots_[static_cast<size_t>(t)].epoch;
    a.store(e, std::memory_order_seq_cst);  // see await()
    a.notify_all();
  }

  /// Returns the epoch thread t has posted once it is >= e.
  Epoch wait(int t, Epoch e, long long& slept) const {
    return await(slots_[static_cast<size_t>(t)].epoch,
                 [e](Epoch cur) { return cur >= e; }, slept);
  }

 private:
  struct alignas(kLinePair) Slot {
    std::atomic<Epoch> epoch{0};
  };
  std::vector<Slot> slots_;
};

/// Traversal policy of one SPMD thread: plain loads and stores into the
/// transformed layouts, the owner filter, and the plan's epoch syncs (a
/// barrier after each iteration of the barrier level, owner posts after
/// gated-statement firings, doacross waits and posts per segment).
/// Unfiltered, it runs a Sequential nest whole on one thread. Its accesses
/// being plain, it takes owned pieces of segments as compiled run loops.
class NativePolicy {
 public:
  using Slot = double*;
  struct Cursor {};
  static constexpr bool kRunLoops = true;
  static constexpr bool values() { return true; }

  NativePolicy(std::vector<std::vector<double>>& data, EpochCounters& epochs,
               int T, int myid)
      : data_(data), epochs_(epochs), T_(T), myid_(myid),
        seen_(static_cast<size_t>(T), 0) {}

  Slot slot(int array, double) const {
    return data_[static_cast<size_t>(array)].data();
  }
  bool owns(int q) const { return !filter_ || q == myid_; }
  static Cursor cursor() { return {}; }
  static void flush(Cursor&) {}
  static void begin(Cursor&, int, double) {}
  static void end(Cursor&) {}
  static double load(Cursor&, Slot s, Int lin) { return s[lin]; }
  static double* element(Slot s, Int lin) { return s + lin; }
  static void store(Cursor&, Slot s, Int lin, double v, bool has_value) {
    if (has_value) s[lin] = v;
  }
  /// Before each non-empty innermost segment: a doacross thread waits for
  /// the previous block's owner to finish this iteration.
  void poll() {
    if (upstream_ >= 0) wait(upstream_, n_ + 1);
  }
  /// After each gated-statement firing, owned by q: q posts and every
  /// other thread waits on it. All threads evaluate the same firing
  /// predicate and owner, so every thread counts the firing.
  void fired(int q) {
    if (!filter_ || np_->gate == GateSync::None || T_ == 1) return;
    const Epoch e = next();
    if (q == myid_)
      post(e);
    else
      wait(q, e);
  }
  void after_iteration(int level) {
    if (!filter_) return;
    if (level == np_->barrier_level)
      barrier();
    else if (level == post_level_)
      post(next());
  }

  /// Run the following nest under plan `np`, filtered by ownership or not.
  void enter(const NestPlan& np, bool filter) {
    np_ = &np;
    filter_ = filter;
    upstream_ = post_level_ = -1;
    if (filter && T_ > 1 && np.doacross.level >= 0) {
      post_level_ = np.doacross.level - 1;
      if (np.doacross.fold.digit_of(myid_) > 0)
        upstream_ = myid_ - np.doacross.fold.stride;
    }
  }
  /// Post, then wait for every other thread's post of the same epoch.
  void barrier() {
    if (T_ == 1) return;
    const Epoch e = next();
    post(e);
    for (int t = 0; t < T_; ++t)
      if (t != myid_) observe(t, e);
    ++barriers;
  }

  long long barriers = 0;       ///< all-thread syncs
  long long waits = 0;          ///< point-to-point waits
  long long blocked_waits = 0;  ///< epoch waits that slept

 private:
  Epoch next() {
    DCT_CHECK(n_ < kTerminal - 1, "native sync epoch overflow");
    return ++n_;
  }
  void post(Epoch e) { epochs_.post(myid_, e); }
  /// Thread t has passed epoch e. An epoch already observed needs no new
  /// load: the acquire that observed it ordered everything before it.
  void observe(int t, Epoch e) {
    Epoch& seen = seen_[static_cast<size_t>(t)];
    if (seen < e) seen = epochs_.wait(t, e, blocked_waits);
  }
  void wait(int t, Epoch e) {
    observe(t, e);
    ++waits;
  }

  std::vector<std::vector<double>>& data_;
  EpochCounters& epochs_;
  const int T_;
  const int myid_;
  const NestPlan* np_ = nullptr;
  bool filter_ = true;
  Epoch n_ = 0;          ///< last sync event this thread reached
  int upstream_ = -1;    ///< doacross: thread holding the previous block
  int post_level_ = -1;  ///< doacross: post after each iteration here
  std::vector<Epoch> seen_;  ///< per thread: highest epoch observed
};

struct ThreadStats {
  long long statements = 0;
  long long barriers = 0;
  long long waits = 0;
  long long blocked_waits = 0;
  long long walker_splits = 0;
  long long run_instances = 0;
  long long split_instances = 0;
};

/// One SPMD worker: walks every nest with the owner filter (or its
/// restricted slice), synchronizing as the plan dictates.
ThreadStats run_worker(const CompiledProgram& cp, const ProgramPlan& plan,
                       std::vector<std::vector<double>>& data,
                       EpochCounters& epochs, int myid) {
  NativePolicy policy(data, epochs, cp.procs, myid);
  runtime::Traversal<NativePolicy> kernel(cp, policy, /*fast=*/true);
  // This thread's digit of every restricted level, per nest.
  std::vector<std::vector<runtime::Restriction>> restrict(plan.nests.size());
  for (size_t j = 0; j < plan.nests.size(); ++j)
    for (const NestRestriction& r : plan.nests[j].restrictions)
      restrict[j].push_back({r.level, r.fold, r.fold.digit_of(myid)});

  const ir::Program& prog = cp.program();
  for (int step = 0; step < prog.time_steps; ++step) {
    for (size_t j = 0; j < cp.nests.size(); ++j) {
      const NestPlan& np = plan.nests[j];
      if (np.schedule == NestSchedule::Sequential) {
        policy.barrier();  // prior parallel writes visible to thread 0
        policy.enter(np, /*filter=*/false);
        if (myid == 0) kernel.run_nest(j);
        policy.barrier();  // thread 0's writes visible to everyone
      } else {
        policy.enter(np, /*filter=*/true);
        kernel.run_nest(j, restrict[j]);
      }
      const bool last =
          step == prog.time_steps - 1 && j == cp.nests.size() - 1;
      if (cp.dec().nests[j].barrier_after || last) policy.barrier();
    }
  }
  return {kernel.statements, policy.barriers, policy.waits,
          policy.blocked_waits, kernel.counters.walker_splits,
          kernel.counters.run_instances, kernel.counters.split_instances};
}

/// SPMD threads 1..T-1 of one calling thread's runs; the caller runs
/// thread 0 itself, so a T = 1 run starts no thread. Workers are started
/// by the first run that needs them and live until the calling thread
/// exits, waiting for their next run in between. A run bumps the start
/// word of each worker it uses, so a worker that a smaller run leaves out
/// reads nothing of it; the last worker to finish brings `running_` to 0.
class Team {
 public:
  Team() = default;
  ~Team() {
    stopping_ = true;
    for (const std::unique_ptr<Worker>& w : workers_) {
      w->start.fetch_add(1, std::memory_order_seq_cst);
      w->start.notify_all();
    }
    for (const std::unique_ptr<Worker>& w : workers_) w->thread.join();
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Runs job(myid) for myid 0..threads-1, 0 on the caller, and returns
  /// once every call has. `job` must not throw.
  void run(int threads, const std::function<void(int)>& job) {
    const size_t used = static_cast<size_t>(threads - 1);
    workers_.reserve(used);  // so that push_back cannot drop a started thread
    while (workers_.size() < used) {
      auto w = std::make_unique<Worker>();
      const int myid = static_cast<int>(workers_.size()) + 1;
      w->thread = std::thread([this, &me = *w, myid] { serve(me, myid); });
      workers_.push_back(std::move(w));
    }
    job_ = &job;
    // Ordered before any worker's read by the seq_cst start posts.
    running_.store(static_cast<Epoch>(used), std::memory_order_relaxed);
    for (size_t i = 0; i < used; ++i) {
      workers_[i]->start.fetch_add(1, std::memory_order_seq_cst);  // await()
      workers_[i]->start.notify_all();
    }
    job(0);
    long long slept = 0;
    await(running_, [](Epoch n) { return n == 0; }, slept);
  }

 private:
  struct Worker {
    alignas(kLinePair) std::atomic<Epoch> start{0};  ///< runs published
    std::thread thread;
  };

  void serve(Worker& w, int myid) {
    Epoch seen = 0;
    long long slept = 0;
    for (;;) {
      seen = await(w.start, [seen](Epoch s) { return s != seen; }, slept);
      if (stopping_) return;
      (*job_)(myid);
      if (running_.fetch_sub(1, std::memory_order_seq_cst) == 1)
        running_.notify_all();
    }
  }

  alignas(kLinePair) std::atomic<Epoch> running_{0};  ///< workers still in
  // Written by the caller between runs, read by a worker after its start.
  const std::function<void(int)>* job_ = nullptr;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

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
  std::vector<std::vector<double>> data(cp.program().arrays.size());
  for (size_t a = 0; a < data.size(); ++a) {
    data[a].assign(static_cast<size_t>(cp.arrays[a].layout.size()), 0.0);
    runtime::for_each_initial(cp, static_cast<int>(a), opts.init_seed,
                              [&](std::span<const Int>, Int lin, double v) {
                                data[a][static_cast<size_t>(lin)] = v;
                              });
  }

  EpochCounters epochs(T);
  std::vector<ThreadStats> stats(static_cast<size_t>(T));
  std::exception_ptr first_error;
  std::mutex error_mu;

  const auto spmd_thread = [&](int myid) {
    try {
      stats[static_cast<size_t>(myid)] =
          run_worker(cp, plan, data, epochs, myid);
    } catch (...) {
      {
        std::lock_guard<std::mutex> g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Release every wait on this thread; the run's results are
      // discarded anyway.
      epochs.post(myid, kTerminal);
    }
  };

  // Workers started here, by a thread's first run at more threads than
  // any before, are timed too. They are joined when the thread exits.
  thread_local Team team;
  const auto t0 = std::chrono::steady_clock::now();
  team.run(T, spmd_thread);
  const auto t1 = std::chrono::steady_clock::now();
  if (first_error) std::rethrow_exception(first_error);

  NativeResult res;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const ThreadStats& s : stats) {
    res.statements += s.statements;
    res.waits += s.waits;
    res.blocked_waits += s.blocked_waits;
    res.walker_splits += s.walker_splits;
    res.run_instances += s.run_instances;
    res.split_instances += s.split_instances;
  }
  res.barriers = stats[0].barriers;
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
