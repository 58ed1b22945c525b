// The dctd request server: a worker pool draining a bounded queue of
// compile-and-execute requests against two caches. The analysis cache is
// keyed by the request's app, size and (for apps that read them) steps:
// a hit builds nothing, and its entry holds the analyzed program
// (core::analyze) and the program part of the compile key. The
// content-addressed CompileCache is keyed by that text plus mode, P,
// options and HPF salt; a miss runs only the compile's tail on the cached
// analysis.
//
// The serving model composes three prior layers of the repo:
//  * PR 1's pass pipeline is the unit of work (compile once per unique
//    cache key, execute per request);
//  * PR 3's fault isolation is the crash boundary — a request that throws
//    (malformed input, unsupported config, tripped deadline, a genuine
//    bug) produces a structured error Response and the worker moves on;
//  * PR 4's native backend and the simulator are alternative engines the
//    request selects at will, both running against the same immutable
//    cached artifact.
//
// Concurrency contract: submit() applies backpressure (blocks while the
// queue is full), workers pull in FIFO order, and every request carries a
// support::Deadline set from its deadline_ms at submit time — a request
// that waited out its deadline in the queue fails fast without compiling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "support/deadline.hpp"

namespace dct::service {

/// What to do with the compiled program.
enum class Engine {
  Compile,   ///< compile (or hit the cache) only; no execution
  Simulate,  ///< run the DASH-class machine simulator
  Native     ///< run the threaded native backend (threads == procs)
};
const char* to_string(Engine e);
std::optional<Engine> parse_engine(const std::string& s);
std::optional<core::Mode> parse_mode(const std::string& s);

struct Request {
  std::string id;         ///< echoed in the Response
  std::string app;        ///< registered program name (see build_app)
  linalg::Int size = 64;  ///< problem size passed to the app builder
  int steps = 2;          ///< time steps for apps that take them
  std::string hpf;        ///< optional HPF directive block overriding the
                          ///< automatic data decomposition
  core::Mode mode = core::Mode::Full;
  int procs = 4;
  Engine engine = Engine::Simulate;
  double deadline_ms = 0;  ///< 0 = server default; < 0 = no deadline
  std::uint64_t seed = 42;
};

struct Response {
  std::string id;
  bool ok = false;
  std::string error_code;  ///< to_string(Error::Code) when !ok
  std::string error;       ///< top-level message when !ok
  std::string context;     ///< chained context lines, newline-joined

  bool cache_hit = false;
  bool deduped = false;  ///< joined another request's in-flight compile
  std::uint64_t key_hash = 0;

  double cycles = 0;          ///< simulator completion time
  double seconds = 0;         ///< native wall-clock
  long long statements = 0;   ///< statement instances executed
  std::uint64_t values_hash = 0;  ///< FNV over result array bit patterns

  double queue_ms = 0;
  double compile_ms = 0;
  double exec_ms = 0;
  double total_ms = 0;
};

struct ServerOptions {
  int workers = 2;
  std::size_t queue_cap = 64;   ///< submit() blocks beyond this depth
  /// Capacity (entries) of the CompileCache and of the analysis cache.
  std::size_t cache_cap = 32;
  double default_deadline_ms = 0;  ///< 0 = requests have no deadline
  /// Compilation knobs shared by every request, threaded explicitly into
  /// each compile.
  core::CompileOptions compile;
  /// Run the static validation oracles on every Nth cache hit (0 = never):
  /// continuous self-checking that a cached artifact still satisfies its
  /// invariants. One check (verify::validate_compiled) averages
  /// 0.15–0.19 ms over perfbench dctd_mix's 2,520 keys, 0.66–0.69 of the
  /// 0.22–0.27 ms it took before its oracles' hash sets and cached loop
  /// bounds, and about 10 compile tails from a shared analysis (one
  /// thread, 4-vCPU Xeon). At 16, in a closed loop over those keys with
  /// 3 workers, the checks take 34% of a worker's time (42% before).
  int spot_check_every = 16;
};

/// Build a registered application program. Throws Error(kInvalidArgument)
/// for unknown names or out-of-range sizes or steps. The name "crash" is a fault-
/// injection hook that throws a plain std::runtime_error — it exists so
/// tests (and the CI smoke) can prove the crash boundary holds.
ir::Program build_app(const std::string& name, linalg::Int size, int steps);

/// FNV-1a over the bit patterns of every result element (order-sensitive,
/// bit-exact): two runs agree on this iff their results are bit-identical.
std::uint64_t values_fingerprint(
    const std::vector<std::vector<double>>& values);

/// One analysis cache entry: a request's program, analyzed, and the
/// program part of its compile cache key with that part's hash.
struct AnalyzedProgram {
  std::shared_ptr<const core::Analysis> analysis;
  std::string key_prefix;             ///< program_key(analysis->program)
  std::uint64_t key_prefix_hash = 0;  ///< fnv1a(key_prefix)
};
using AnalysisCache = BuildCache<AnalyzedProgram>;

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue a request; blocks while the queue is at capacity
  /// (backpressure). The future resolves to a Response — never an
  /// exception; failures are structured error Responses.
  std::future<Response> submit(Request req);

  /// Enqueue a request whose Response is delivered by invoking `done` on
  /// the worker thread that served it (before the request counts as
  /// complete, so drain() implies every callback has returned). Same
  /// backpressure as submit().
  void submit_async(Request req, std::function<void(Response)> done);

  /// Synchronous convenience: submit and wait.
  Response call(Request req);

  /// Block until every accepted request has completed.
  void drain();

  /// Stop accepting work, drain the queue, join the workers. Idempotent.
  void shutdown();

  /// Metrics text dump (includes live cache stats and queue depth).
  std::string metrics_text() const;

  Metrics& metrics() { return metrics_; }
  const CompileCache& cache() const { return cache_; }
  const AnalysisCache& analyses() const { return analyses_; }
  std::size_t queue_depth() const;

 private:
  struct Item {
    Request req;
    support::Deadline deadline;
    std::chrono::steady_clock::time_point enqueued;
    std::function<void(Response)> callback;  ///< receives the Response
  };

  void enqueue(Item item);
  void worker_loop();
  Response process(Item& item);
  static void deliver(Item& item, Response resp);

  ServerOptions opts_;
  AnalysisCache analyses_;
  CompileCache cache_;
  Metrics metrics_;
  std::atomic<long> spot_counter_{0};  ///< cache hits, for spot cadence

  mutable std::mutex mu_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_idle_;
  std::deque<Item> queue_;
  int in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dct::service
