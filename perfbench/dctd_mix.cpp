// Workload `dctd_mix`: an in-process service::Server (3 workers, default
// spot-check cadence, a cache far smaller than the key universe) fed a
// seeded, Zipf-skewed stream of compile-only requests. The only workload
// where compile passes (on misses), cache reads and writes, and queue
// wait dominate; the simulator and the native backend do nothing here.
//
// Phase 1 is an open loop at a fixed rate, each request timed from when it
// was due. Phase 2 is a closed loop with a fixed window of outstanding
// requests and measures throughput.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "service/server.hpp"
#include "support/str.hpp"

namespace perfbench {

namespace {

using dct::strf;
using dct::core::Mode;

/// About half of what 3 workers sustain on this mix on a 4-CPU Xeon
/// (closed-loop capacity ~10k req/s); fixed so runs are comparable.
constexpr double kOpenLoopRate = 5000;  // requests per second
constexpr int kWindow = 32;             // phase-2 outstanding requests
constexpr std::size_t kCacheCap = 512;
constexpr int kWarmRequests = 4000;
constexpr double kZipfS = 1.0;
constexpr double kSliceS = 0.25;  // phase-2 throughput sample length
// Sizes the phase-2 record (about 3x the closed-loop capacity here).
constexpr double kMaxClosedRate = 40000;  // requests per second
constexpr std::size_t kRecompileSample = 256;
constexpr int kSetups = 5;  // server start + warm-up, median reported

const char* const kApps[] = {"vpenta", "lu",     "stencil5", "adi",
                             "erlebacher", "swm256", "tomcatv"};
const Mode kModes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
const int kProcs[] = {2, 4, 8, 16, 32};
constexpr int kSizes = 24;  // 32, 40, ..., 216

struct Key {
  int app, mode, procs, size;
};

std::vector<Key> universe() {
  std::vector<Key> u;
  for (int a = 0; a < 7; ++a)
    for (int m = 0; m < 3; ++m)
      for (const int p : kProcs)
        for (int s = 0; s < kSizes; ++s) u.push_back({a, m, p, 32 + 8 * s});
  return u;
}

/// Seeded request stream over universe(), drawn with Zipf(kZipfS)
/// probabilities by rank. Ranks cycle through the 21 (app, mode) groups and
/// the seed orders the keys within each group, so every seed has the same
/// mix of apps and modes among its hot keys.
class Stream {
 public:
  Stream(std::size_t n, std::uint64_t seed) : rng_(seed) {
    const std::size_t groups = 7 * 3, per_group = n / groups;
    std::vector<std::vector<int>> by_group(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t j = 0; j < per_group; ++j)
        by_group[g].push_back(static_cast<int>(g * per_group + j));
      std::shuffle(by_group[g].begin(), by_group[g].end(), rng_);
    }
    for (std::size_t j = 0; j < per_group; ++j)
      for (std::size_t g = 0; g < groups; ++g) rank_.push_back(by_group[g][j]);
    double sum = 0;
    for (std::size_t r = 1; r <= n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfS);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  int next() {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_[std::min(r, rank_.size() - 1)];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<int> rank_;
  std::vector<double> cdf_;
};

dct::service::Request make_request(const Key& k, long id) {
  dct::service::Request r;
  r.id = std::to_string(id);
  r.app = kApps[k.app];
  r.size = k.size;
  r.steps = 2;
  r.mode = kModes[k.mode];
  r.procs = k.procs;
  r.engine = dct::service::Engine::Compile;
  r.deadline_ms = 0;
  return r;
}

dct::service::ServerOptions server_options() {
  dct::service::ServerOptions o;
  o.workers = 3;
  o.queue_cap = 8192;
  o.cache_cap = kCacheCap;
  o.default_deadline_ms = 0;
  o.compile = dct::core::CompileOptions{};
  o.spot_check_every = 16;
  return o;
}

/// What the benchmark keeps of one response.
struct Slot {
  int key = -1;
  bool done = false, ok = false, hit = false, dedup = false;
  double due_us = 0, submit_us = 0, done_us = 0;
  double queue_ms = 0, service_ms = 0;
  std::uint64_t key_hash = 0;
};

/// Submits requests and records their responses. One generator thread
/// (the caller) submits; workers complete.
class Driver {
 public:
  Driver(dct::service::Server& server, const std::vector<Key>& keys,
         Tracer& tr, std::size_t capacity)
      : server_(server), keys_(keys), tr_(tr), slots_(capacity) {}

  std::size_t size() const { return next_; }
  const Slot& slot(std::size_t i) const { return slots_[i]; }
  bool full() const { return next_ >= slots_.size(); }

  /// Submit stream key `key`, due at `due_us`; `traced` adds a span.
  void submit(int key, double due_us, bool traced) {
    const std::size_t i = next_++;
    Slot& s = slots_[i];
    s.key = key;
    s.due_us = due_us;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    s.submit_us = tr_.now_us();
    server_.submit_async(
        make_request(keys_[static_cast<std::size_t>(key)],
                     static_cast<long>(i)),
        [this, i, traced](dct::service::Response r) {
          Slot& s = slots_[i];
          s.done_us = tr_.now_us();
          s.ok = r.ok;
          s.hit = r.cache_hit;
          s.dedup = r.deduped;
          s.queue_ms = r.queue_ms;
          s.service_ms = r.total_ms - r.queue_ms;
          s.key_hash = r.key_hash;
          s.done = true;
          if (traced)
            tr_.add("service.request", -1, s.submit_us, s.done_us,
                    static_cast<long>(i));
          // Notify under the lock: once wait_all() sees 0 the Driver may
          // be destroyed while this worker is still in the callback.
          const std::lock_guard<std::mutex> lock(mu_);
          --outstanding_;
          cv_.notify_all();
        });
  }

  void wait_below(int window) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < window; });
  }
  void wait_all() { wait_below(1); }

 private:
  dct::service::Server& server_;
  const std::vector<Key>& keys_;
  Tracer& tr_;
  std::vector<Slot> slots_;
  std::size_t next_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  int outstanding_ = 0;
};

void sleep_until_us(const Tracer& tr, double due_us) {
  for (;;) {
    const double left = due_us - tr.now_us();
    if (left <= 0) return;
    if (left > 300)
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(left - 200)));
    else
      std::this_thread::yield();
  }
}

}  // namespace

void run_dctd_mix(const Config& cfg, Report& rep, Tracer& tr) {
  const std::vector<Key> keys = universe();
  const double phase1_s = cfg.seconds * 0.5;
  const double phase2_s = cfg.seconds * 0.5;
  Tracer quiet(false);

  // Set-up: start a server and warm its cache with the head of the
  // stream. Repeated so the reported set-up time is a median.
  std::vector<double> setup_s;
  std::unique_ptr<dct::service::Server> server;
  std::unique_ptr<Stream> stream;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<dct::service::Server>(server_options());
    stream = std::make_unique<Stream>(keys.size(), cfg.seed);
    Driver warm(*server, keys, quiet, kWarmRequests);
    while (!warm.full()) {
      warm.wait_below(kWindow);
      warm.submit(stream->next(), quiet.now_us(), false);
    }
    warm.wait_all();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Phase 1: open loop.
  const auto stats0 = server->cache().stats();
  const std::size_t n1 =
      static_cast<std::size_t>(std::llround(kOpenLoopRate * phase1_s));
  Driver open(*server, keys, tr, n1);
  const double t1 = tr.now_us() + 1000;
  std::vector<double> late_ms;
  late_ms.reserve(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const double due = t1 + 1e6 * static_cast<double>(i) / kOpenLoopRate;
    const int key = stream->next();
    sleep_until_us(tr, due);
    late_ms.push_back((tr.now_us() - due) / 1000.0);
    open.submit(key, due, cfg.trace);
  }
  open.wait_all();
  const auto stats1 = server->cache().stats();

  // Phase 2: closed loop. Throughput is sampled per slice; a traced run
  // alternates traced and untraced slices to measure tracing overhead.
  Driver closed(*server, keys, tr,
                static_cast<std::size_t>(kMaxClosedRate * phase2_s) + 1024);
  const double t2 = tr.now_us();
  int slices = std::max(2, static_cast<int>(phase2_s / kSliceS));
  const auto slice_of = [&](double us) {
    return static_cast<int>((us - t2) / (kSliceS * 1e6));
  };
  for (;;) {
    closed.wait_below(kWindow);
    const double now = tr.now_us();
    const int slice = slice_of(now);
    if (slice >= slices) break;
    if (closed.full()) {  // a host faster than kMaxClosedRate
      slices = std::max(1, slice);
      break;
    }
    closed.submit(stream->next(), now, cfg.trace && slice % 2 == 1);
  }
  closed.wait_all();
  server->shutdown();

  // Correctness: every response ok, one key_hash per key.
  std::vector<std::uint64_t> key_hash(keys.size(), 0);
  const auto check = [&](const Driver& d) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      const Slot& s = d.slot(i);
      rep.attempt();
      if (!s.done || !s.ok) {
        rep.fail(strf("request %zu failed", i));
        continue;
      }
      std::uint64_t& h = key_hash[static_cast<std::size_t>(s.key)];
      if (h == 0) h = s.key_hash;
      if (h != s.key_hash) rep.fail(strf("request %zu: key_hash differs", i));
    }
  };
  check(open);
  check(closed);

  std::vector<double> lat, queue, hit_ms, miss_ms;
  std::vector<int> miss_keys;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const Slot& s = open.slot(i);
    lat.push_back(s.ok ? (s.done_us - s.due_us) / 1000.0 : INFINITY);
    queue.push_back(s.queue_ms);
    (s.hit ? hit_ms : miss_ms).push_back(s.service_ms);
    if (!s.hit && !s.dedup) miss_keys.push_back(s.key);
  }
  std::vector<double> rate[2];  // [traced] successful responses per second
  {
    std::vector<long> per_slice(static_cast<std::size_t>(slices) + 1, 0);
    for (std::size_t i = 0; i < closed.size(); ++i) {
      const Slot& s = closed.slot(i);
      const int sl = slice_of(s.done_us);
      if (s.ok && sl >= 0 && sl < slices) ++per_slice[sl];
    }
    for (int sl = 0; sl < slices; ++sl)
      rate[cfg.trace && sl % 2 == 1 ? 1 : 0].push_back(
          static_cast<double>(per_slice[sl]) / kSliceS);
  }
  const double rps = median(rate[0]);
  const long lookups = (stats1.hits - stats0.hits) +
                       (stats1.misses - stats0.misses) +
                       (stats1.inflight_dedup - stats0.inflight_dedup);

  std::cout << strf(
      "dctd_mix: phase 1 %zu requests at %.0f/s (hit frac %.3f, %ld "
      "evictions, %ld dedups); phase 2 %zu requests, window %d\n",
      open.size(), kOpenLoopRate,
      static_cast<double>(stats1.hits - stats0.hits) /
          static_cast<double>(std::max(1L, lookups)),
      stats1.evictions - stats0.evictions,
      stats1.inflight_dedup - stats0.inflight_dedup, closed.size(), kWindow);

  // The end-to-end metrics every workload reports: work_s here is the time
  // to serve 1000 phase-2 requests, one sample per slice.
  std::vector<double> per_1000;
  for (const double r : rate[0])
    per_1000.push_back(r > 0 ? 1000.0 / r : INFINITY);
  rep.add("setup_s", "s", setup_s);
  rep.add("work_s", "s", per_1000);
  rep.add("dctd_p50_ms", "ms", percentile(lat, 50));
  rep.add("dctd_p99_ms", "ms", percentile(lat, 99));
  rep.add("dctd_rps", "req/s", rate[0]);
  if (!cfg.trace) return;

  rep.add("trace.overhead_frac", "ratio", rps / median(rate[1]) - 1.0);
  rep.add("service.queue_ms.p50", "ms", percentile(queue, 50));
  rep.add("service.queue_ms.p99", "ms", percentile(queue, 99));
  rep.add("service.hit_ms.p50", "ms", percentile(hit_ms, 50));
  rep.add("service.hit_ms.p99", "ms", percentile(hit_ms, 99));
  rep.add("service.miss_ms.p50", "ms", percentile(miss_ms, 50));
  rep.add("service.miss_ms.p99", "ms", percentile(miss_ms, 99));
  rep.add("service.hit_frac", "ratio",
          static_cast<double>(stats1.hits - stats0.hits) /
              static_cast<double>(std::max(1L, lookups)));
  rep.add("service.evictions", "count",
          static_cast<double>(stats1.evictions - stats0.evictions));
  rep.add("service.dedup", "count",
          static_cast<double>(stats1.inflight_dedup - stats0.inflight_dedup));
  rep.add("service.gen_late_ms.p99", "ms", percentile(late_ms, 99));

  // Compile cost of the phase-1 misses, re-measured alone after the
  // phases: a fixed-size sample of distinct missed keys.
  std::sort(miss_keys.begin(), miss_keys.end());
  miss_keys.erase(std::unique(miss_keys.begin(), miss_keys.end()),
                  miss_keys.end());
  std::shuffle(miss_keys.begin(), miss_keys.end(), std::mt19937_64(cfg.seed));
  miss_keys.resize(std::min(miss_keys.size(), kRecompileSample));
  std::vector<double> compile_ms;
  std::map<std::string, double> pass_ms;
  const dct::core::CompileOptions copts{};
  for (const int k : miss_keys) {
    const Key& key = keys[static_cast<std::size_t>(k)];
    const dct::ir::Program prog =
        dct::service::build_app(kApps[key.app], key.size, 2);
    const double c0 = tr.now_us();
    const dct::core::CompiledProgram cp =
        dct::core::compile(prog, kModes[key.mode], key.procs, copts);
    const double c1 = tr.now_us();
    tr.add("core.compile", -1, c0, c1);
    compile_ms.push_back((c1 - c0) / 1000.0);
    for (const dct::support::PassRecord& p : cp.trace.passes)
      pass_ms[p.name] += p.wall_ms;
  }
  rep.add("core.compile_ms.p50", "ms", percentile(compile_ms, 50));
  rep.add("core.compile_ms.p99", "ms", percentile(compile_ms, 99));
  for (const auto& [p, ms] : pass_ms) rep.add("core." + p + "_ms", "ms", ms);
  for (const auto& [layer, ms] : tr.self_ms_by_layer())
    rep.add("self." + layer + "_ms", "ms", ms);
}

}  // namespace perfbench
