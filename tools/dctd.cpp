// dctd — the concurrent compile-and-execute service front door.
//
// Reads JSON lines from stdin (see src/service/protocol.hpp for the
// schema), serves them through a worker pool backed by the content-
// addressed compilation cache, and writes one JSON response line to
// stdout per request, in completion order. Control lines:
//
//   {"cmd": "metrics"}   drain, then print the metrics text dump to stderr
//   {"cmd": "drain"}     block until all accepted requests completed
//   {"cmd": "shutdown"}  drain and exit 0 (EOF on stdin does the same)
//
// Configuration (environment, read here once at startup; the library
// itself reads no environment variables):
//   DCT_SERVICE_WORKERS      worker threads            (default 2, >= 1)
//   DCT_SERVICE_CACHE_CAP    entries per cache         (default 32, >= 1)
//   DCT_SERVICE_QUEUE_CAP    queue bound, backpressure (default 64, >= 1)
//   DCT_SERVICE_DEADLINE_MS  default request deadline  (default 0 = none)
// A value that is not a whole decimal integer in range is rejected with one
// line on stderr and exit status 2, before the server starts. Every request
// compiles with default core::CompileOptions; every 16th cache hit is
// spot-checked by the static oracles.
//
//   $ printf '%s\n' '{"id":"1","app":"lu","size":64,"procs":4}' | ./dctd
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>

#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

/// The DCT_SERVICE_* variable `name` as a whole decimal integer in
/// [min, INT_MAX], or `def` when unset or empty. Anything else ends the
/// process with status 2.
long service_knob(const char* name, long def, long min) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const std::string s = v;
  errno = 0;
  const long x = std::strtol(v, nullptr, 10);
  if (s.find_first_not_of("0123456789") != std::string::npos ||
      errno != 0 || x < min || x > INT_MAX) {
    std::cerr << "dctd: " << name << "=\"" << s
              << "\" is not a whole number in [" << min << ", " << INT_MAX
              << "]\n";
    std::exit(2);
  }
  return x;
}

dct::service::ServerOptions server_options_from_env() {
  dct::service::ServerOptions o;
  o.workers = static_cast<int>(service_knob("DCT_SERVICE_WORKERS", 2, 1));
  o.queue_cap =
      static_cast<std::size_t>(service_knob("DCT_SERVICE_QUEUE_CAP", 64, 1));
  o.cache_cap =
      static_cast<std::size_t>(service_knob("DCT_SERVICE_CACHE_CAP", 32, 1));
  o.default_deadline_ms =
      static_cast<double>(service_knob("DCT_SERVICE_DEADLINE_MS", 0, 0));
  return o;
}

}  // namespace

int main() {
  using namespace dct;

  service::Server server(server_options_from_env());
  std::mutex out_mu;  // response lines must not interleave

  const auto respond = [&out_mu](const service::Response& resp) {
    const std::lock_guard<std::mutex> lock(out_mu);
    std::cout << service::to_json(resp) << "\n" << std::flush;
  };

  std::string line;
  long lineno = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    if (line.empty()) continue;

    service::ParsedLine parsed;
    try {
      parsed = service::parse_line(line);
    } catch (const Error& e) {
      // Malformed input is a per-line failure, never a server failure.
      server.metrics().on_rejected();
      service::Response resp;
      resp.id = "line-" + std::to_string(lineno);
      resp.error_code = to_string(e.code());
      resp.error = e.what();
      respond(resp);
      continue;
    }

    switch (parsed.kind) {
      case service::ParsedLine::Kind::kMetrics:
        server.drain();  // settle counters so the dump is deterministic
        std::cerr << server.metrics_text() << std::flush;
        break;
      case service::ParsedLine::Kind::kDrain:
        server.drain();
        break;
      case service::ParsedLine::Kind::kShutdown:
        server.drain();
        server.shutdown();
        return 0;
      case service::ParsedLine::Kind::kRequest:
        if (parsed.request.id.empty())
          parsed.request.id = "line-" + std::to_string(lineno);
        // Completion-order output: the serving worker prints the response
        // the moment the request finishes (drain() then guarantees every
        // accepted request has been answered on stdout).
        server.submit_async(std::move(parsed.request), respond);
        break;
    }
  }

  server.drain();
  server.shutdown();
  return 0;
}
