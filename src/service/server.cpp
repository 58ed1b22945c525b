#include "service/server.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "apps/apps.hpp"
#include "hpf/hpf.hpp"
#include "machine/machine.hpp"
#include "native/native.hpp"
#include "runtime/executor.hpp"
#include "support/str.hpp"
#include "verify/oracle.hpp"

namespace dct::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::string join_context(const Error& e) {
  std::string out;
  for (const std::string& frame : e.context()) {
    if (!out.empty()) out += '\n';
    out += frame;
  }
  return out;
}

using linalg::Int;

/// The apps build_app knows, and whether each one's program reads
/// `steps` (lu and vpenta run one step whatever is asked).
struct App {
  const char* name;
  bool reads_steps;
  ir::Program (*build)(Int size, int steps);
};
constexpr App kApps[] = {
    {"figure1", true, apps::figure1},
    {"vpenta", false, [](Int n, int) { return apps::vpenta(n); }},
    {"lu", false, [](Int n, int) { return apps::lu(n); }},
    {"stencil5", true, apps::stencil5},
    {"adi", true, apps::adi},
    {"erlebacher", true, apps::erlebacher},
    {"swm256", true, apps::swm256},
    {"tomcatv", true, apps::tomcatv},
};

const App* find_app(const std::string& name) {
  for (const App& app : kApps)
    if (name == app.name) return &app;
  return nullptr;
}

void check_steps(int steps) {
  if (steps < 1 || steps > 64)
    throw Error(Error::Code::kInvalidArgument,
                strf("app steps %d out of range [1, 64]", steps));
}

/// The analysis cache key of `req`: app, size and, for an app that reads
/// them, steps. Out-of-range steps throw here, as a cached analysis of an
/// app that ignores them would hide them.
std::string analysis_key(const Request& req) {
  check_steps(req.steps);
  const App* app = find_app(req.app);
  return req.app + '|' + std::to_string(req.size) +
         (app == nullptr || app->reads_steps ? '|' + std::to_string(req.steps)
                                             : "");
}

}  // namespace

ir::Program build_app(const std::string& name, Int size, int steps) {
  if (name == "crash")
    // Deliberate non-dct exception: exercises the kFault crash boundary.
    throw std::runtime_error("injected crash (app \"crash\")");
  if (size < 4 || size > 1024)
    throw Error(Error::Code::kInvalidArgument,
                strf("app size %lld out of range [4, 1024]",
                     static_cast<long long>(size)));
  check_steps(steps);
  if (const App* app = find_app(name)) return app->build(size, steps);
  std::string known;
  for (const App& app : kApps) known += std::string(" ") + app.name;
  throw Error(Error::Code::kInvalidArgument,
              strf("unknown app \"%s\" (known:%s)", name.c_str(),
                   known.c_str()));
}

const char* to_string(Engine e) {
  switch (e) {
    case Engine::Compile: return "compile";
    case Engine::Simulate: return "simulate";
    case Engine::Native: return "native";
  }
  return "?";
}

std::optional<Engine> parse_engine(const std::string& s) {
  if (s == "compile") return Engine::Compile;
  if (s == "simulate" || s.empty()) return Engine::Simulate;
  if (s == "native") return Engine::Native;
  return std::nullopt;
}

std::optional<core::Mode> parse_mode(const std::string& s) {
  if (s == "base") return core::Mode::Base;
  if (s == "comp_decomp" || s == "compdecomp") return core::Mode::CompDecomp;
  if (s == "full" || s.empty()) return core::Mode::Full;
  return std::nullopt;
}

std::uint64_t values_fingerprint(
    const std::vector<std::vector<double>>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const std::vector<double>& arr : values) {
    mix(arr.size());
    for (const double d : arr) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

Server::Server(const ServerOptions& opts)
    : opts_(opts), analyses_(opts.cache_cap), cache_(opts.cache_cap) {
  DCT_CHECK(opts_.workers >= 1, "server needs at least one worker");
  DCT_CHECK(opts_.queue_cap >= 1, "server queue capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Server::~Server() { shutdown(); }

void Server::deliver(Item& item, Response resp) {
  if (item.callback) item.callback(std::move(resp));
}

void Server::enqueue(Item item) {
  metrics_.on_received();
  const double dl = item.req.deadline_ms != 0 ? item.req.deadline_ms
                                              : opts_.default_deadline_ms;
  if (dl > 0) item.cancel = support::CancelToken::with_deadline_ms(dl);
  item.enqueued = Clock::now();

  std::unique_lock<std::mutex> lock(mu_);
  cv_not_full_.wait(lock, [this] {
    return queue_.size() < opts_.queue_cap || stopping_;
  });
  if (stopping_) {
    lock.unlock();
    // Refused, but received: it completes as a cancelled error, so the
    // counters still add up (received = completed + rejected).
    Response resp;
    resp.id = item.req.id;
    resp.error_code = to_string(Error::Code::kCancelled);
    resp.error = "server is shutting down";
    resp.total_ms = resp.queue_ms = ms_since(item.enqueued);
    RequestSample sample;
    sample.queue_us = sample.total_us = resp.total_ms * 1000.0;
    metrics_.on_completed(sample, false, Error::Code::kCancelled);
    deliver(item, std::move(resp));
    return;
  }
  queue_.push_back(std::move(item));
  cv_not_empty_.notify_one();
}

std::future<Response> Server::submit(Request req) {
  // std::function needs a copyable callable; the promise is move-only.
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = promise->get_future();
  submit_async(std::move(req), [promise](Response resp) {
    promise->set_value(std::move(resp));
  });
  return fut;
}

void Server::submit_async(Request req, std::function<void(Response)> done) {
  Item item;
  item.req = std::move(req);
  item.callback = std::move(done);
  enqueue(std::move(item));
}

Response Server::call(Request req) { return submit(std::move(req)).get(); }

void Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock,
                [this] { return queue_.empty() && in_flight_ == 0; });
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_not_empty_.notify_all();
  cv_not_full_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::string Server::metrics_text() const {
  return metrics_.render(cache_.stats(), analyses_.stats(), queue_depth());
}

void Server::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_not_empty_.wait(lock,
                         [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        // stopping_ with an empty queue: done. (A non-empty queue is
        // drained even during shutdown so accepted requests complete.)
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      cv_not_full_.notify_one();
    }

    deliver(item, process(item));

    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

Response Server::process(Item& item) {
  const Request& req = item.req;
  Response resp;
  resp.id = req.id;

  const Clock::time_point dequeued = Clock::now();
  resp.queue_ms =
      std::chrono::duration<double, std::milli>(dequeued - item.enqueued)
          .count();

  double key_ms = 0, compile_ms = 0, spot_check_ms = 0, exec_ms = 0;
  Error::Code code = Error::Code::kGeneric;  // of a failed request
  try {
    item.cancel.check("dctd queue wait");
    if (req.procs < 1 || req.procs > 64)
      throw Error(Error::Code::kInvalidArgument,
                  strf("procs %d out of range [1, 64]", req.procs));

    // The analysis level, keyed by the request's fields (analysis_key): a
    // hit builds nothing. A build or analysis that throws leaves no entry.
    const Clock::time_point a0 = Clock::now();
    const AnalysisCache::Lookup analyzed = analyses_.get_or_compile(
        analysis_key(req), [&]() -> AnalysisCache::Compiled {
          const ir::Program prog = build_app(req.app, req.size, req.steps);
          return std::make_shared<const AnalyzedProgram>(
              AnalyzedProgram{core::analyze(prog), program_key(prog)});
        });
    const AnalyzedProgram& entry = *analyzed.program;
    const double analysis_ms = ms_since(a0);

    const Clock::time_point k0 = Clock::now();
    const std::string key = cache_key(entry.key_prefix, req.mode, req.procs,
                                      opts_.compile, req.hpf);
    resp.key_hash = fnv1a(key);
    key_ms = ms_since(k0);

    // The compile level: a miss runs only the tail on the analysis.
    const Clock::time_point c0 = Clock::now();
    const CompileCache::Lookup looked =
        cache_.get_or_compile(key, [&]() -> CompileCache::Compiled {
          return std::make_shared<const core::CompiledProgram>(
              req.hpf.empty()
                  ? core::compile(entry.analysis, req.mode, req.procs,
                                  opts_.compile)
                  : hpf::compile(*entry.analysis, req.hpf, req.mode,
                                 req.procs, opts_.compile));
        });
    compile_ms = analysis_ms + ms_since(c0);
    resp.cache_hit = looked.hit;
    resp.deduped = looked.deduped;
    const core::CompiledProgram& cp = *looked.program;

    if (looked.hit) {
      metrics_.on_cache_hit();
      if (opts_.spot_check_every > 0 &&
          spot_counter_.fetch_add(1, std::memory_order_relaxed) %
                  opts_.spot_check_every ==
              0) {
        metrics_.on_spot_check();
        const Clock::time_point s0 = Clock::now();
        const verify::ValidationReport checked = verify::validate_compiled(cp);
        spot_check_ms = ms_since(s0);
        checked.raise_if_violated(strf("cache spot-check %s", req.app.c_str()));
      }
    }

    item.cancel.check("dctd post-compile");
    const Clock::time_point e0 = Clock::now();
    switch (req.engine) {
      case Engine::Compile:
        break;
      case Engine::Simulate: {
        runtime::ExecOptions eo;
        eo.init_seed = req.seed;
        eo.cancel = item.cancel;
        const runtime::RunResult rr =
            runtime::simulate(cp, machine::MachineConfig::dash(req.procs),
                              eo);
        resp.cycles = rr.cycles;
        resp.statements = rr.statements;
        resp.values_hash = values_fingerprint(rr.values);
        break;
      }
      case Engine::Native: {
        native::NativeOptions no;
        no.threads = req.procs;
        no.init_seed = req.seed;
        const native::NativeResult nr = native::run_native(cp, no);
        resp.seconds = nr.seconds;
        resp.statements = nr.statements;
        resp.values_hash = values_fingerprint(nr.values);
        break;
      }
    }
    exec_ms = ms_since(e0);
    resp.ok = true;
  } catch (const Error& e) {
    // Crash boundary tier 1: structured dct errors pass through verbatim.
    code = e.code();
    resp.error = e.what();
    resp.context = join_context(e);
  } catch (const std::exception& e) {
    // Tier 2: foreign exceptions become kFault — the request failed but
    // the worker (and every other queued request) is unaffected.
    code = Error::Code::kFault;
    resp.error = e.what();
  } catch (...) {
    code = Error::Code::kFault;
    resp.error = "unknown exception";
  }
  if (!resp.ok) resp.error_code = to_string(code);

  resp.compile_ms = compile_ms;
  resp.exec_ms = exec_ms;
  resp.total_ms = resp.queue_ms + ms_since(dequeued);

  RequestSample sample;
  sample.queue_us = resp.queue_ms * 1000.0;
  sample.key_us = key_ms * 1000.0;
  sample.compile_us = resp.compile_ms * 1000.0;
  sample.spot_check_us = spot_check_ms * 1000.0;
  sample.exec_us = resp.exec_ms * 1000.0;
  sample.total_us = resp.total_ms * 1000.0;
  metrics_.on_completed(sample, resp.ok, code);
  return resp;
}

}  // namespace dct::service
