// Shared pieces of the pipeline benchmark: run configuration, sample
// statistics, an in-memory span recorder and the metric report that ends
// every run with one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_path;  ///< Table 1 expected file
  bool write_expected = false;
  std::string out_dir;        ///< report and span files; empty = none
  std::string source_id;      ///< git sha / source hash from the launcher
  int threads = 1;            ///< min(4, nproc)
};

/// Median and quartiles as Python's statistics.quantiles(n=4) computes
/// them (exclusive method), so the figures match the acceptance check.
struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);
double median(const std::vector<double>& v);
/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

/// In-memory span recorder: spans are appended under a mutex (tracing is
/// only on in traced runs) and written out once the run has ended.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< "<layer>.<call>", a string literal
    int id;
    int parent;        ///< -1 = root
    long request;      ///< dctd_mix request index, -1 otherwise
    double t0_us, t1_us;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  int open(const char* name, int parent, long request = -1);
  void close(int id);
  /// Record an already-timed span in one call; a no-op when disabled.
  int add(const char* name, int parent, double t0_us, double t1_us,
          long request = -1);

  /// Self time (duration minus the part covered by child spans) summed
  /// per layer, in milliseconds.
  std::map<std::string, double> self_ms_by_layer() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, int parent, long request = -1)
      : t_(t), id_(t.enabled() ? t.open(name, parent, request) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) t_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Collected metrics of one run. Every metric keeps its samples; the
/// reported value is their median.
class Report {
 public:
  void add(const std::string& name, const std::string& unit,
           std::vector<double> samples);
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, std::vector<double>{value});
  }
  /// One failed operation, with a reason printed to stderr (first few).
  void fail(const std::string& why);
  void attempt(long n = 1) { attempted_ += n; }

  /// Print the metric lines and the final JSON line, and write the
  /// detailed report (host fingerprint, quartiles, sample counts).
  /// Returns the process exit code: 0 only when nothing failed.
  int finish(const Config& cfg) const;

 private:
  struct Metric {
    std::string name, unit;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Host fingerprint as a JSON object (nproc, CPU model, cache sizes,
/// compiler, build type, source id, seed).
std::string host_json(const Config& cfg);

void run_table1(const Config& cfg, Report& rep, Tracer& tr);
void run_native_spmd(const Config& cfg, Report& rep, Tracer& tr);
void run_dctd_mix(const Config& cfg, Report& rep, Tracer& tr);

}  // namespace perfbench
