// Tests for the dctd serving layer (src/service/): the content-addressed
// compilation cache (keys, LRU bound, single-flight, failure paths), the
// request server's analysis cache in front of it (one analysis per
// program, failures, eviction), its crash boundaries and deadlines, the
// HPF request bridge, the wire protocol, and the metrics dump shape.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "runtime/executor.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/diagnostics.hpp"

namespace dct {
namespace {

using service::CompileCache;
using service::Engine;
using service::Request;
using service::Response;
using service::Server;
using service::ServerOptions;

ServerOptions small_server(int workers = 2) {
  ServerOptions o;
  o.workers = workers;
  o.queue_cap = 16;
  o.cache_cap = 8;
  o.spot_check_every = 1;  // spot-check every hit: more teeth per test
  return o;
}

Request req(const std::string& app, int procs = 4,
            Engine engine = Engine::Simulate) {
  Request r;
  r.id = app;
  r.app = app;
  r.size = 24;
  r.procs = procs;
  r.engine = engine;
  return r;
}

// ---------------------------------------------------------------- cache

TEST(CacheKey, DistinguishesEveryInput) {
  const core::CompileOptions opts;
  const ir::Program lu = apps::lu(24);
  const std::string base =
      service::cache_key(lu, core::Mode::Full, 4, opts);
  // Same inputs -> same key (the property caching rests on).
  EXPECT_EQ(base, service::cache_key(lu, core::Mode::Full, 4, opts));

  std::set<std::string> keys = {base};
  keys.insert(service::cache_key(lu, core::Mode::Base, 4, opts));
  keys.insert(service::cache_key(lu, core::Mode::Full, 8, opts));
  keys.insert(service::cache_key(apps::lu(32), core::Mode::Full, 4, opts));
  keys.insert(service::cache_key(apps::adi(24), core::Mode::Full, 4, opts));
  core::CompileOptions strat = opts;
  strat.strategy = layout::AddrStrategy::Naive;
  keys.insert(service::cache_key(lu, core::Mode::Full, 4, strat));
  keys.insert(service::cache_key(lu, core::Mode::Full, 4, opts, "salt"));
  EXPECT_EQ(keys.size(), 7u) << "every varied input must change the key";
}

TEST(CacheKey, TextIsPinned) {
  // Clients see fnv1a of this text as key_hash, so it must not drift.
  const core::CompileOptions opts;
  EXPECT_EQ(service::cache_key(apps::lu(8), core::Mode::Full, 4, opts,
                               "!HPF$ DISTRIBUTE A(*, CYCLIC)"),
      "v1|prog=lu|steps=1|arr A:[8,8]e8t|nest eliminate:f1:I1:lo{[]+0/1;}up"
      "{[]+6/1;};I2:lo{[1]+1/1;}up{[]+7/1;};I3:lo{[1]+1/1;}up{[]+7/1;};s:d2"
      ":c8:ra0:2x3[0,1,0,1,0,0,][0,0]a0:2x3[1,0,0,1,0,0,][0,0]:wa0:2x3[0,1,"
      "0,1,0,0,][0,0];s:d-1:c2:ra0:2x3[0,1,0,0,0,1,][0,0]a0:2x3[0,1,0,1,0,0"
      ",][0,0]a0:2x3[1,0,0,0,0,1,][0,0]:wa0:2x3[0,1,0,0,0,1,][0,0];|mode=2|"
      "P=4|strat=2|salt=!HPF$ DISTRIBUTE A(*, CYCLIC)");

  // No app uses a fractional compute_cycles; these take the %.17g path.
  auto one_stmt = [](double compute_cycles) {
    ir::ProgramBuilder pb("one");
    const int x = pb.array("X", {8}, 8);
    ir::LoopNest& nest = pb.nest("scale", 1);
    nest.loops.push_back(ir::loop("i", ir::cst(0), ir::cst(7)));
    ir::Stmt s;
    s.write = ir::simple_ref(x, 1, {{0, 0}});
    s.reads = {ir::simple_ref(x, 1, {{0, 0}})};
    s.compute_cycles = compute_cycles;
    s.eval = [](std::span<const double> r) { return r[0] * 2; };
    nest.stmts.push_back(std::move(s));
    return pb.build();
  };
  const std::pair<double, const char*> cases[] = {
      {0.1,
       "v1|prog=one|steps=1|arr X:[8]e8t|nest scale:f1:i:lo{[]+0/1;}up{[]+7/"
       "1;};s:d-1:c0.10000000000000001:ra0:1x1[1,][0]:wa0:1x1[1,][0];|mode=0"
       "|P=1|strat=2"},
      {1e21,
       "v1|prog=one|steps=1|arr X:[8]e8t|nest scale:f1:i:lo{[]+0/1;}up{[]+7/"
       "1;};s:d-1:c1e+21:ra0:1x1[1,][0]:wa0:1x1[1,][0];|mode=0|P=1|strat=2"},
      {2.5e-7,
       "v1|prog=one|steps=1|arr X:[8]e8t|nest scale:f1:i:lo{[]+0/1;}up{[]+7/"
       "1;};s:d-1:c2.4999999999999999e-07:ra0:1x1[1,][0]:wa0:1x1[1,][0];|mod"
       "e=0|P=1|strat=2"},
  };
  for (const auto& [cc, want] : cases)
    EXPECT_EQ(service::cache_key(one_stmt(cc), core::Mode::Base, 1, opts),
              want);
}

TEST(Cache, HitMissAndLruEviction) {
  CompileCache cache(2);
  const auto compile_app = [](const ir::Program& p) {
    return std::make_shared<const core::CompiledProgram>(
        core::compile(p, core::Mode::Full, 2, core::CompileOptions{}));
  };
  const core::CompileOptions opts;
  const ir::Program a = apps::figure1(16, 2), b = apps::lu(16),
                    c = apps::adi(16, 2);
  const std::string ka = service::cache_key(a, core::Mode::Full, 2, opts);
  const std::string kb = service::cache_key(b, core::Mode::Full, 2, opts);
  const std::string kc = service::cache_key(c, core::Mode::Full, 2, opts);

  EXPECT_FALSE(cache.get_or_compile(ka, [&] { return compile_app(a); }).hit);
  EXPECT_FALSE(cache.get_or_compile(kb, [&] { return compile_app(b); }).hit);
  EXPECT_TRUE(cache.get_or_compile(ka, [&] { return compile_app(a); }).hit);

  // Inserting c evicts the LRU entry — b, since a was just touched.
  EXPECT_FALSE(cache.get_or_compile(kc, [&] { return compile_app(c); }).hit);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.get_or_compile(ka, [&] { return compile_app(a); }).hit);
  EXPECT_TRUE(cache.get_or_compile(kc, [&] { return compile_app(c); }).hit);
  // b was evicted: it compiles again.
  EXPECT_FALSE(cache.get_or_compile(kb, [&] { return compile_app(b); }).hit);
}

TEST(Cache, FailedCompileLeavesNoEntryAndRetries) {
  CompileCache cache(4);
  int calls = 0;
  const auto failing = [&calls]() -> CompileCache::Compiled {
    ++calls;
    throw Error(Error::Code::kUnsupportedConfig, "nope");
  };
  EXPECT_THROW(cache.get_or_compile("k", failing), Error);
  EXPECT_EQ(cache.stats().failures, 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The next request for the same key retries (and may succeed).
  EXPECT_THROW(cache.get_or_compile("k", failing), Error);
  EXPECT_EQ(calls, 2);
}

TEST(Cache, SingleFlightCompilesOnce) {
  CompileCache cache(8);
  const ir::Program prog = apps::lu(24);
  std::atomic<int> compiles{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CompileCache::Compiled> got(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<size_t>(t)] =
          cache
              .get_or_compile("same-key",
                              [&]() -> CompileCache::Compiled {
                                compiles.fetch_add(1);
                                return std::make_shared<
                                    const core::CompiledProgram>(
                                    core::compile(prog, core::Mode::Full, 4,
                                                  core::CompileOptions{}));
                              })
              .program;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1) << "single-flight must dedup compiles";
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(got[static_cast<size_t>(t)].get(), got[0].get())
        << "every waiter must receive the same artifact";
  const CompileCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits + s.inflight_dedup, kThreads - 1);
}

/// A cached value whose destructor reads its cache's stats from a second
/// thread and waits for that read a bounded time. Released under the
/// cache's lock, the read would block until the destructor returned.
struct LockProbe {
  struct Shared {
    service::BuildCache<LockProbe>* cache = nullptr;
    bool probing = true;  ///< off before the cache itself is destroyed
    int released = 0;
    int blocked = 0;  ///< reads that did not finish within the wait
    std::vector<std::thread> readers;
  };
  explicit LockProbe(Shared* s) : shared(s) {}
  LockProbe(const LockProbe&) = delete;
  LockProbe& operator=(const LockProbe&) = delete;
  ~LockProbe() {
    if (!shared->probing) return;
    ++shared->released;
    auto read = std::make_shared<std::promise<void>>();
    const std::future<void> done = read->get_future();
    shared->readers.emplace_back([cache = shared->cache, read] {
      cache->stats();
      read->set_value();
    });
    if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready)
      ++shared->blocked;
  }

  Shared* shared;
};

TEST(Cache, EvictedValuesAreReleasedOutsideTheLock) {
  service::BuildCache<LockProbe> cache(2);
  LockProbe::Shared shared;
  shared.cache = &cache;
  // Five keys through a cache of two: three evictions, each dropping the
  // last reference to its value (no Lookup is kept).
  for (const char* key : {"k0", "k1", "k2", "k3", "k4"})
    cache.get_or_compile(key, [&] {
      return std::make_shared<const LockProbe>(&shared);
    });
  const service::CacheStats stats = cache.stats();
  shared.probing = false;
  for (std::thread& t : shared.readers) t.join();
  EXPECT_EQ(stats.evictions, 3);
  EXPECT_EQ(shared.released, stats.evictions);
  EXPECT_EQ(shared.blocked, 0) << "an evicted value was released under the "
                                  "cache lock";
}

// --------------------------------------------------------------- server

TEST(Server, KeyHashIsFnvOfKeyText) {
  // dctd hashes only the suffix of each key and continues from the hash
  // of the prefix its analysis holds; the result must be fnv1a of the
  // whole key text, computed here independently.
  Server server(small_server());
  struct Sent {
    std::future<Response> response;
    std::uint64_t want;
  };
  std::vector<Sent> sent;
  for (const char* app : {"figure1", "vpenta", "lu", "stencil5", "adi",
                          "erlebacher", "swm256", "tomcatv"}) {
    const ir::Program prog = service::build_app(app, 16, 2);
    std::string all_serial = "!HPF$ DISTRIBUTE " + prog.arrays[0].name + "(*";
    for (size_t k = 1; k < prog.arrays[0].dims.size(); ++k) all_serial += ", *";
    all_serial += ")";
    for (const core::Mode mode :
         {core::Mode::Base, core::Mode::CompDecomp, core::Mode::Full})
      for (const int procs : {1, 4, 32})
        for (const std::string& hpf : {std::string(), all_serial}) {
          Request r = req(app, procs, Engine::Compile);
          r.size = 16;
          r.steps = 2;
          r.mode = mode;
          r.hpf = hpf;
          sent.push_back({server.submit(r),
                          service::fnv1a(service::cache_key(
                              prog, mode, procs, core::CompileOptions{},
                              hpf))});
        }
  }
  EXPECT_EQ(sent.size(), 144u);
  for (Sent& s : sent) {
    const Response r = s.response.get();
    ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_EQ(r.key_hash, s.want) << r.id;
  }
}

TEST(Server, ValuesFingerprintIsPinned) {
  // Responses carry values_hash and perfbench compares native runs by it,
  // so it must not drift: FNV-1a over each array's length, then each
  // value's bits, 8 little-endian bytes apiece. -0.0 and a NaN hash by
  // their bits.
  using Values = std::vector<std::vector<double>>;
  const double nan = std::bit_cast<double>(std::uint64_t{0x7ff8000000000001});
  EXPECT_EQ(service::values_fingerprint(Values{}), 0x14650fb0739d0383u);
  EXPECT_EQ(service::values_fingerprint(Values{{1.0, 2.5, -3.25}}),
            0x0b574746f1802653u);
  EXPECT_EQ(service::values_fingerprint(
                Values{{0.0, -0.0}, {nan, 1e300, -1e-300}}),
            0x9483fd7109376635u);
  EXPECT_EQ(service::values_fingerprint(Values{{}, {}}), 0xa31e272015f12c43u);
}

TEST(Server, ServesAndCaches) {
  Server server(small_server());
  const Response r1 = server.call(req("lu"));
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_GT(r1.cycles, 0);
  EXPECT_GT(r1.statements, 0);

  const Response r2 = server.call(req("lu"));
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.key_hash, r2.key_hash);
  // Identical request -> bit-identical results, cached or not.
  EXPECT_EQ(r1.values_hash, r2.values_hash);
  EXPECT_EQ(r1.cycles, r2.cycles);
}

TEST(Server, CacheHitSkipsCompile) {
  // 48 distinct lu sizes compile cold; then 48 repeats of one of those
  // keys must all hit, compile nothing, and spend at most a fifth of the
  // cold pass's summed compile stage. The true ratio is thousands, so the
  // margin holds under sanitizers.
  constexpr int kRequests = 48;
  ServerOptions opts;
  opts.workers = 4;
  opts.queue_cap = kRequests;
  opts.cache_cap = kRequests;  // room for every cold key: no evictions
  opts.spot_check_every = 0;
  Server server(opts);
  auto compile_ms = [&](auto size_of, bool want_hit) {
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < kRequests; ++i) {
      Request r = req("lu", 4, Engine::Compile);
      r.size = size_of(i);
      r.id = std::to_string(r.size);
      futs.push_back(server.submit(r));
    }
    double sum = 0;
    for (auto& f : futs) {
      const Response r = f.get();
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.cache_hit, want_hit) << "lu size " << r.id;
      sum += r.compile_ms;
    }
    return sum;
  };
  const double cold = compile_ms([](int i) { return 32 + 2 * i; }, false);
  const long misses = server.cache().stats().misses;
  EXPECT_EQ(misses, kRequests);
  const double warm = compile_ms([](int) { return 32; }, true);
  EXPECT_EQ(server.cache().stats().misses, misses);
  EXPECT_LE(warm * 5, cold) << "warm " << warm << " ms, cold " << cold
                            << " ms";
}

TEST(Server, EnginesAgreeOnValues) {
  // The simulator and the native backend run the same compiled artifact
  // and must produce bit-identical array results.
  Server server(small_server());
  const Response sim = server.call(req("stencil5", 2, Engine::Simulate));
  const Response nat = server.call(req("stencil5", 2, Engine::Native));
  ASSERT_TRUE(sim.ok) << sim.error;
  ASSERT_TRUE(nat.ok) << nat.error;
  EXPECT_TRUE(nat.cache_hit) << "same compile key regardless of engine";
  EXPECT_EQ(sim.values_hash, nat.values_hash);
}

TEST(Server, OutOfRangeFieldsAreInvalidArgument) {
  // size, steps and procs outside their documented ranges are the
  // caller's error, not an internal one.
  Server server(small_server());
  const auto with = [](const std::function<void(Request&)>& set) {
    Request r = req("lu");
    set(r);
    return r;
  };
  for (const Request& r :
       {with([](Request& x) { x.size = 3; }),
        with([](Request& x) { x.size = 1025; }),
        with([](Request& x) { x.steps = 0; }),
        with([](Request& x) { x.steps = 65; }),
        with([](Request& x) { x.procs = 0; })}) {
    const Response resp = server.call(r);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, to_string(Error::Code::kInvalidArgument))
        << resp.error;
  }
  EXPECT_EQ(server.metrics().errors(), 5);
}

TEST(Server, FaultIsolation) {
  // A crashing request, a malformed request and a deadline trip must each
  // produce a structured error while healthy requests keep flowing.
  Server server(small_server(4));
  std::vector<std::future<Response>> futs;
  futs.push_back(server.submit(req("crash")));
  futs.push_back(server.submit(req("nosuch-app")));
  Request dead = req("adi");
  dead.deadline_ms = 0.0001;  // trips in the queue, long before compile
  futs.push_back(server.submit(dead));
  Request bad_procs = req("lu");
  bad_procs.procs = 65;
  futs.push_back(server.submit(bad_procs));
  for (int i = 0; i < 6; ++i) futs.push_back(server.submit(req("lu")));

  const Response crash = futs[0].get();
  EXPECT_FALSE(crash.ok);
  EXPECT_EQ(crash.error_code, to_string(Error::Code::kFault));

  const Response unknown = futs[1].get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error_code, to_string(Error::Code::kInvalidArgument));

  const Response deadline = futs[2].get();
  EXPECT_FALSE(deadline.ok);
  EXPECT_EQ(deadline.error_code,
            to_string(Error::Code::kDeadlineExceeded));

  const Response procs = futs[3].get();
  EXPECT_FALSE(procs.ok);
  EXPECT_EQ(procs.error_code, to_string(Error::Code::kInvalidArgument));

  for (size_t i = 4; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(server.metrics().errors(), 4);
  EXPECT_EQ(server.metrics().ok(), 6);
}

TEST(Server, HpfDirectiveRequests) {
  Server server(small_server());
  Request plain = req("adi");
  Request directed = req("adi");
  directed.hpf = "!HPF$ DISTRIBUTE X(*, BLOCK)";
  const Response a = server.call(plain);
  const Response b = server.call(directed);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  // The directive text salts the cache key: these are distinct artifacts.
  EXPECT_NE(a.key_hash, b.key_hash);
  EXPECT_FALSE(b.cache_hit);
  // Results stay bit-identical under a different data decomposition.
  EXPECT_EQ(a.values_hash, b.values_hash);

  Request malformed = req("adi");
  malformed.hpf = "!HPF$ DISTRIBUTE nosucharray(BLOCK)";
  const Response c = server.call(malformed);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.error_code, to_string(Error::Code::kInvalidArgument));

  // A directive grid larger than the automatic decomposition's processor
  // space is refused by the compile's layout stage.
  Request oversized = req("adi");
  oversized.hpf = "!HPF$ DISTRIBUTE X(BLOCK, BLOCK)";
  const Response d = server.call(oversized);
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error_code, to_string(Error::Code::kUnsupportedConfig));
  EXPECT_NE(d.error.find("HPF directive for \"X\" uses processor dim 1 "
                         "but the decomposition has 1"),
            std::string::npos)
      << d.error;
  EXPECT_NE(d.context.find("pass layout"), std::string::npos) << d.context;
}

TEST(Server, AnalyzesOncePerProgram) {
  // 15 (mode, P) keys of one program, each requested twice at once: one
  // analysis serves all of them, and every key compiles once.
  ServerOptions opts = small_server(4);
  opts.queue_cap = 32;
  opts.cache_cap = 16;
  Server server(opts);
  std::vector<std::future<Response>> futs;
  for (int round = 0; round < 2; ++round)
    for (const core::Mode mode :
         {core::Mode::Base, core::Mode::CompDecomp, core::Mode::Full})
      for (const int procs : {1, 2, 3, 4, 8}) {
        Request r = req("stencil5", procs, Engine::Compile);
        r.mode = mode;
        futs.push_back(server.submit(r));
      }
  std::set<std::uint64_t> keys;
  for (auto& f : futs) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    keys.insert(r.key_hash);
  }
  EXPECT_EQ(keys.size(), 15u);
  const service::CacheStats analyses = server.analyses().stats();
  EXPECT_EQ(analyses.misses, 1);
  EXPECT_EQ(analyses.hits + analyses.inflight_dedup, 29);
  EXPECT_EQ(analyses.entries, 1u);
  const service::CacheStats compiles = server.cache().stats();
  EXPECT_EQ(compiles.misses, 15);
  EXPECT_EQ(compiles.hits + compiles.inflight_dedup, 15);
}

TEST(Server, AppsThatIgnoreStepsShareOneAnalysis) {
  // lu builds one program whatever `steps` asks for, so lu(64) at steps
  // 1, 2 and 3 is one analysis and one compile. stencil5 reads steps:
  // each value is a program of its own.
  Server server(small_server(1));
  for (const char* app : {"lu", "stencil5"})
    for (const int steps : {1, 2, 3}) {
      Request r = req(app, 4, Engine::Compile);
      r.size = 64;
      r.steps = steps;
      const Response resp = server.call(r);
      EXPECT_TRUE(resp.ok) << app << " steps=" << steps << ": " << resp.error;
    }
  const service::CacheStats analyses = server.analyses().stats();
  EXPECT_EQ(analyses.misses, 1 + 3);
  EXPECT_EQ(analyses.hits, 2);
  EXPECT_EQ(server.cache().stats().misses, 1 + 3);
}

TEST(Server, FailedAnalysisLeavesNoEntryAndRetries) {
  // The crash app throws while its program is built, inside the
  // analysis cache: every request misses, fails and leaves nothing.
  Server server(small_server());
  for (int i = 0; i < 2; ++i) {
    const Response r = server.call(req("crash"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_code, to_string(Error::Code::kFault));
  }
  const service::CacheStats analyses = server.analyses().stats();
  EXPECT_EQ(analyses.misses, 2);
  EXPECT_EQ(analyses.failures, 2);
  EXPECT_EQ(analyses.entries, 0u);
  EXPECT_EQ(server.cache().stats().misses, 0);
  // A healthy program after them analyzes and is kept.
  EXPECT_TRUE(server.call(req("lu")).ok);
  EXPECT_EQ(server.analyses().stats().entries, 1u);
}

TEST(Server, AnalysesAreEvictedAtCacheCap) {
  // cache_cap bounds the analysis cache too: with room for 2, a third
  // program evicts the least recently used analysis, which analyzes
  // again on its next request.
  ServerOptions opts = small_server(1);
  opts.cache_cap = 2;
  Server server(opts);
  for (const char* app : {"lu", "adi", "lu", "stencil5", "adi"}) {
    const Response r = server.call(req(app, 4, Engine::Compile));
    EXPECT_TRUE(r.ok) << app << ": " << r.error;
  }
  const service::CacheStats analyses = server.analyses().stats();
  EXPECT_EQ(analyses.misses, 4);
  EXPECT_EQ(analyses.hits, 1);
  EXPECT_EQ(analyses.evictions, 2);
  EXPECT_EQ(analyses.entries, 2u);
  EXPECT_EQ(analyses.capacity, 2u);
}

TEST(Server, DrainWaitsForAllAccepted) {
  Server server(small_server(2));
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    server.submit_async(req(i % 2 ? "lu" : "figure1"),
                        [&done](Response) { done.fetch_add(1); });
  server.drain();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(Server, MetricsDumpShape) {
  Server server(small_server());
  (void)server.call(req("lu"));
  (void)server.call(req("lu"));
  (void)server.call(req("nosuch-app"));
  server.drain();
  const std::string dump = server.metrics_text();
  // The failed build of nosuch-app is an analysis miss that leaves no
  // entry, and it never reaches the compile cache.
  for (const char* needle :
       {"dctd_requests_total 3", "dctd_requests_ok 2",
        "dctd_requests_error 1", "dctd_cache_hits 1", "dctd_cache_misses 1",
        "dctd_analysis_hits 1\n", "dctd_analysis_misses 2\n",
        "dctd_analysis_evictions 0\n", "dctd_queue_depth 0",
        "dctd_latency_ms{stage=\"total\",quantile=\"p99\"}",
        "dctd_latency_ms{stage=\"key\",quantile=\"mean\"}",
        "dctd_latency_ms{stage=\"spot_check\",quantile=\"mean\"}"})
    EXPECT_NE(dump.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n"
        << dump;
}

TEST(Server, RefusedAtShutdownIsCounted) {
  Server server(small_server());
  (void)server.call(req("lu"));
  server.shutdown();
  const Response refused = server.call(req("lu"));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, "cancelled");
  // Every received request completed: the refusal counts as an error
  // with its code.
  const std::string dump = server.metrics_text();
  for (const char* needle :
       {"dctd_requests_total 2\n", "dctd_requests_completed 2\n",
        "dctd_requests_ok 1\n", "dctd_requests_error 1\n",
        "dctd_requests_rejected 0\n",
        "dctd_requests_error_code{code=\"cancelled\"} 1\n"})
    EXPECT_NE(dump.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n"
        << dump;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, ParsesRequestsAndCommands) {
  const service::ParsedLine r = service::parse_line(
      R"({"id":"x", "app":"lu", "size": 32, "procs": 8, "mode": "base",)"
      R"( "engine": "native", "deadline_ms": 12.5, "seed": 7})");
  ASSERT_EQ(r.kind, service::ParsedLine::Kind::kRequest);
  EXPECT_EQ(r.request.id, "x");
  EXPECT_EQ(r.request.app, "lu");
  EXPECT_EQ(r.request.size, 32);
  EXPECT_EQ(r.request.procs, 8);
  EXPECT_EQ(r.request.mode, core::Mode::Base);
  EXPECT_EQ(r.request.engine, Engine::Native);
  EXPECT_DOUBLE_EQ(r.request.deadline_ms, 12.5);
  EXPECT_EQ(r.request.seed, 7u);

  EXPECT_EQ(service::parse_line(R"({"cmd":"metrics"})").kind,
            service::ParsedLine::Kind::kMetrics);
  EXPECT_EQ(service::parse_line(R"({"cmd":"drain"})").kind,
            service::ParsedLine::Kind::kDrain);
  EXPECT_EQ(service::parse_line(R"({"cmd":"shutdown"})").kind,
            service::ParsedLine::Kind::kShutdown);
}

TEST(Protocol, RejectsMalformedLines) {
  for (const char* line :
       {"", "not json", "{", R"({"app" "lu"})", R"({"app":"lu")",
        R"({"app":"lu"} trailing)", R"({"size": 32})",
        R"({"app":"lu", "size": "big"})", R"({"app":"lu", "procs": 1.5})",
        R"({"cmd":"reboot"})", R"({"app":"lu", "mode":"turbo"})",
        R"({"app":"lu", "engine":"gpu"})",
        // Numeric fields: non-finite, out of range, or empty.
        R"({"app":"lu", "deadline_ms":"inf"})",
        R"({"app":"lu", "deadline_ms":1e300})",
        R"({"app":"lu", "deadline_ms":"nan"})",
        R"({"app":"lu", "deadline_ms":""})", R"({"app":"lu", "seed":""})"}) {
    EXPECT_THROW((void)service::parse_line(line), Error)
        << "accepted: " << line;
  }
}

TEST(Protocol, ResponseJsonRoundTrips) {
  Response resp;
  resp.id = "he said \"hi\"\n";
  resp.ok = false;
  resp.error_code = "fault";
  resp.error = "tab\there";
  const std::string json = service::to_json(resp);
  // Our own parser must accept our own output (escapes included).
  const auto kv = service::parse_flat_json(json);
  EXPECT_EQ(kv.at("id"), resp.id);
  EXPECT_EQ(kv.at("ok"), "false");
  EXPECT_EQ(kv.at("error"), resp.error);
}

}  // namespace
}  // namespace dct
