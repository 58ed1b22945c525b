#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "support/remark.hpp"
#include "support/str.hpp"

namespace perfbench {

using dct::strf;

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  if (v.size() < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(v, n=4), method="exclusive".
  const long m = static_cast<long>(v.size()) + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp<long>(i * m / 4, 1, m - 2);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double median(const std::vector<double>& in) {
  if (in.empty()) return 0;
  std::vector<double> v = in;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

int Tracer::open(const char* name, int parent, long request) {
  const double t = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, id, parent, request, t, -1});
  return id;
}

void Tracer::close(int id) {
  const double t = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1_us = t;
}

int Tracer::add(const char* name, int parent, double t0_us, double t1_us,
                long request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, id, parent, request, t0_us, t1_us});
  return id;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.t0_us, s.t1_us});
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    // Children may run concurrently on several threads: subtract the
    // union of their intervals, clipped to the parent.
    auto& iv = kids[static_cast<std::size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.t0_us);
      hi = std::min(hi, s.t1_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += (s.t1_us - s.t0_us - covered) / 1000.0;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  for (const Span& s : spans_) {
    os << strf("{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,"
               "\"end_us\":%.3f",
               s.id, s.parent, s.name, s.t0_us, s.t1_us);
    if (s.request >= 0) os << strf(",\"request\":%ld", s.request);
    os << "}\n";
  }
}

void Report::add(const std::string& name, const std::string& unit,
                 std::vector<double> samples) {
  metrics_.push_back({name, unit, std::move(samples)});
}

void Report::fail(const std::string& why) {
  if (failed_ < 10) std::cerr << "perfbench: FAILED: " << why << "\n";
  ++failed_;
}

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  return strf("%.17g", v);
}

#if defined(__x86_64__) || defined(__i386__)
std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
}
#else
std::string cpu_model() { return "unknown"; }
#endif

long cache_bytes(int name) {
#ifdef _SC_LEVEL2_CACHE_SIZE
  return sysconf(name);
#else
  (void)name;
  return -1;
#endif
}

}  // namespace

std::string host_json(const Config& cfg) {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  return strf(
      "{\"nproc\":%u,\"cpu\":\"%s\",\"l2_per_core_bytes\":%ld,"
      "\"l3_bytes\":%ld,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"release_build\":%s,\"source\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%s,\"threads\":%d}",
      std::thread::hardware_concurrency(),
      dct::support::json_escape(cpu_model()).c_str(),
      cache_bytes(_SC_LEVEL2_CACHE_SIZE), cache_bytes(_SC_LEVEL3_CACHE_SIZE),
      dct::support::json_escape(PERFBENCH_COMPILER).c_str(),
      build_type.c_str(), build_type == "Release" ? "true" : "false",
      dct::support::json_escape(cfg.source_id).c_str(),
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? "true" : "false", cfg.threads);
}

int Report::finish(const Config& cfg) const {
  std::vector<Metric> all = metrics_;
  all.push_back({"fail_frac", "ratio",
                 {attempted_ > 0 ? static_cast<double>(failed_) /
                                       static_cast<double>(attempted_)
                                 : 1.0}});

  std::string detail, last;
  std::cout << "metrics (median [q1, q3] of n samples):\n";
  for (const Metric& m : all) {
    const Summary s = summarize(m.samples);
    std::cout << strf("  %-36s %14.6g %-6s [%.6g, %.6g] n=%zu\n",
                      m.name.c_str(), s.median, m.unit.c_str(), s.q1, s.q3,
                      s.n);
    detail += strf("%s\"%s\":{\"unit\":\"%s\",\"median\":%s,\"q1\":%s,"
                   "\"q3\":%s,\"n\":%zu}",
                   detail.empty() ? "" : ",", m.name.c_str(), m.unit.c_str(),
                   json_num(s.median).c_str(), json_num(s.q1).c_str(),
                   json_num(s.q3).c_str(), s.n);
    last += strf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                 last.empty() ? "" : ",", m.name.c_str(),
                 json_num(s.median).c_str(), m.unit.c_str());
  }

  const std::string host = host_json(cfg);
  std::cout << "host: " << host << "\n";
  if (!cfg.out_dir.empty()) {
    std::ofstream os(strf("%s/%s-seed%llu-trace%d.json", cfg.out_dir.c_str(),
                          cfg.workload.c_str(),
                          static_cast<unsigned long long>(cfg.seed),
                          cfg.trace ? 1 : 0));
    os << "{\"host\":" << host << ",\"attempted\":" << attempted_
       << ",\"failed\":" << failed_ << ",\"metrics\":{" << detail << "}}\n";
  }
  const bool ok = failed_ == 0 && attempted_ > 0;
  std::cout << strf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
                    "\"metrics\":{",
                    ok ? "true" : "false", std::max(attempted_, 1L), failed_)
            << last << "}}" << std::endl;
  return ok ? 0 : 1;
}

}  // namespace perfbench
