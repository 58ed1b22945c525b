// Concurrency regression tests, written to run under ThreadSanitizer
// (the build-tsan CI job builds with -fsanitize=thread and runs this
// binary among others).
//
// The pipeline consults no process-global state: every knob travels in
// CompileOptions, so concurrent compiles with *different* options — with
// the oracles, native threads included, running beside them — are clean,
// and the serving cache keeps its invariants under a thread storm; the
// native backend's team handshake survives thousands of back-to-back runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "native/native.hpp"
#include "runtime/executor.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"
#include "verify/oracle.hpp"

namespace dct {
namespace {

using service::Engine;
using service::Request;
using service::Response;
using service::Server;
using service::ServerOptions;

// Two programs compiled concurrently with different options. Before the
// CompileOptions refactor this setup raced on an env-derived global trace
// flag; now each compile owns its options and its trace, which holds
// exactly its own stages.
TEST(Concurrency, ConcurrentTracedCompiles) {
  constexpr int kRounds = 4;
  const auto compile_rounds = [](const ir::Program& prog,
                                 const core::CompileOptions& opts) {
    for (int i = 0; i < kRounds; ++i) {
      const core::CompiledProgram cp =
          core::compile(prog, core::Mode::Full, 4, opts);
      EXPECT_EQ(cp.trace.passes.size(), 7u) << prog.name;
      for (const support::PassRecord& p : cp.trace.passes)
        EXPECT_EQ(p.runs, 1) << prog.name << " " << p.name;
    }
  };
  std::thread ta([&] { compile_rounds(apps::lu(16), {}); });
  std::thread tb([&] {
    compile_rounds(apps::adi(16, 2), {.strategy = layout::AddrStrategy::Naive});
  });
  ta.join();
  tb.join();
}

// Concurrent compiles with different options, some followed by the static
// oracles and one by the native oracle's threads: proves no hidden
// process-global knob is consulted mid-pipeline.
TEST(Concurrency, MixedOptionCompiles) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &failures] {
      core::CompileOptions opts;
      if (t % 2) opts.strategy = layout::AddrStrategy::Hoisted;
      try {
        for (int i = 0; i < 3; ++i) {
          const core::CompiledProgram cp =
              core::compile(apps::stencil5(16, 2),
                            t % 2 ? core::Mode::Full : core::Mode::CompDecomp,
                            4, opts);
          if (t % 2 == 0)
            verify::validate_compiled(cp).raise_if_violated("stencil5");
          if (t == 0 && !verify::check_native(cp).ok())
            failures.fetch_add(1);  // native threads beside the compiles
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The satellite cache stress: N threads x M requests over a mixed
// workload. Asserts the three cache invariants at once — single-flight
// (compile count == unique programs when nothing is evicted), the LRU
// bound, and bit-identical results against a sequential baseline.
TEST(Concurrency, CacheStressMatchesSequential) {
  struct Combo {
    std::string app;
    core::Mode mode;
    int procs;
  };
  const std::vector<Combo> combos = {
      {"figure1", core::Mode::Full, 2},  {"figure1", core::Mode::Base, 2},
      {"lu", core::Mode::Full, 4},       {"lu", core::Mode::CompDecomp, 2},
      {"adi", core::Mode::Full, 2},      {"stencil5", core::Mode::Full, 4},
  };

  // Sequential baseline, bypassing the service entirely.
  std::map<std::string, std::uint64_t> expected;
  for (const Combo& c : combos) {
    const core::CompiledProgram cp =
        core::compile(service::build_app(c.app, 20, 2), c.mode, c.procs,
                      core::CompileOptions{});
    const runtime::RunResult rr =
        runtime::simulate(cp, machine::MachineConfig::dash(c.procs));
    expected[c.app + std::to_string(static_cast<int>(c.mode)) +
             std::to_string(c.procs)] = service::values_fingerprint(rr.values);
  }

  ServerOptions sopts;
  sopts.workers = 4;
  sopts.queue_cap = 8;  // small: exercises submit() backpressure
  sopts.cache_cap = combos.size();  // no evictions -> single-flight holds
  sopts.spot_check_every = 4;
  Server server(sopts);

  constexpr int kThreads = 4, kPerThread = 24;
  std::atomic<int> mismatches{0}, errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(1234 + t));
      for (int i = 0; i < kPerThread; ++i) {
        const Combo& c = combos[rng() % combos.size()];
        Request r;
        r.id = std::to_string(t) + ":" + std::to_string(i);
        r.app = c.app;
        r.size = 20;
        r.mode = c.mode;
        r.procs = c.procs;
        const Response resp = server.call(r);
        if (!resp.ok) {
          errors.fetch_add(1);
          continue;
        }
        const std::uint64_t want =
            expected.at(c.app + std::to_string(static_cast<int>(c.mode)) +
                        std::to_string(c.procs));
        if (resp.values_hash != want) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent cached results must be bit-identical to sequential";
  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.misses, static_cast<long>(combos.size()))
      << "single-flight: exactly one compile per unique program";
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_EQ(stats.hits + stats.inflight_dedup + stats.misses,
            static_cast<long>(kThreads) * kPerThread);
}

// The native team's start and finish handshake under stress: 2,000
// back-to-back runs of a small program on one caller, T stepping through
// 1, 2, 3, 4 every 4 runs, so the caller's team grows in the first steps
// and later runs use all of it or only its first workers. A lost wake-up hangs a run rather than failing
// it, so a watchdog aborts the test when no run completes for 20 s.
TEST(Concurrency, NativeTeamBackToBackRuns) {
  constexpr int kRuns = 2000, kRunsPerStep = 4;
  const ir::Program prog = apps::lu(8);
  std::vector<core::CompiledProgram> cps;
  std::vector<native::ProgramPlan> plans;
  for (int t = 1; t <= 4; ++t) {
    cps.push_back(core::compile(prog, core::Mode::Full, t));
    plans.push_back(native::plan_program(cps.back()));
  }
  std::atomic<int> done_runs{0};
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lk(mu);
    int last = -1;
    while (!cv.wait_for(lk, std::chrono::seconds(20),
                        [&] { return finished; })) {
      const int now = done_runs.load();
      if (now == last) {
        std::fprintf(stderr, "native team stalled after %d runs\n", now);
        std::abort();
      }
      last = now;
    }
  });

  long long statements = -1;
  int mismatches = 0;
  for (int i = 0; i < kRuns; ++i) {
    const size_t t = static_cast<size_t>((i / kRunsPerStep) % 4);
    native::NativeOptions opts;
    opts.threads = static_cast<int>(t) + 1;
    opts.collect_values = false;
    const long long n = native::run_native(cps[t], plans[t], opts).statements;
    if (statements < 0) statements = n;
    if (n != statements) ++mismatches;
    done_runs.fetch_add(1);
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    finished = true;
  }
  cv.notify_one();
  watchdog.join();
  EXPECT_EQ(mismatches, 0) << "every run executes every statement instance";
}

// LRU bound under churn: a cache far smaller than the workload's unique
// set must stay within capacity while every request still succeeds.
TEST(Concurrency, TinyCacheChurnStaysBounded) {
  ServerOptions sopts;
  sopts.workers = 4;
  sopts.cache_cap = 2;
  Server server(sopts);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 24; ++i) {
    Request r;
    r.id = std::to_string(i);
    r.app = (i % 2) ? "lu" : "figure1";
    r.size = 16 + 2 * (i % 4);  // 4 sizes x 2 apps = 8 unique keys
    r.procs = 2;
    r.engine = Engine::Compile;
    futs.push_back(server.submit(r));
  }
  for (auto& f : futs) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  server.drain();
  const auto stats = server.cache().stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.evictions, 0);
}

}  // namespace
}  // namespace dct
