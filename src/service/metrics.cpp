#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/str.hpp"

namespace dct::service {

namespace {

int bucket_of(double us) {
  if (us < 1.0) return 0;
  const int b = static_cast<int>(std::floor(std::log2(us)));
  return std::clamp(b, 0, LatencyHistogram::kBuckets - 1);
}

}  // namespace

void LatencyHistogram::record_us(double us) {
  buckets_[static_cast<size_t>(bucket_of(us))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<long long>(us * 1000.0),
                    std::memory_order_relaxed);
}

double LatencyHistogram::mean_us() const {
  const long n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
         1000.0 / static_cast<double>(n);
}

double LatencyHistogram::quantile_us(double q) const {
  // Snapshot the buckets; concurrent recording can skew a quantile by at
  // most the records that land mid-scan, which is fine for a dashboard.
  std::array<long, kBuckets> snap{};
  long total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    total += snap[static_cast<size_t>(i)];
  }
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  long seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<size_t>(i)];
    if (static_cast<double>(seen) >= target)
      return std::pow(2.0, i + 1);  // bucket upper bound
  }
  return std::pow(2.0, kBuckets);
}

void Metrics::on_completed(const RequestSample& s, bool ok, Error::Code code) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (ok) {
    ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
    const int c = std::clamp(static_cast<int>(code), 0, kCodes - 1);
    by_code_[static_cast<size_t>(c)].fetch_add(1, std::memory_order_relaxed);
  }
  queue_.record_us(s.queue_us);
  key_.record_us(s.key_us);
  compile_.record_us(s.compile_us);
  spot_check_.record_us(s.spot_check_us);
  exec_.record_us(s.exec_us);
  total_.record_us(s.total_us);
}

std::string Metrics::render(const CacheStats& cache,
                            const CacheStats& analyses,
                            std::size_t queue_depth) const {
  std::ostringstream os;
  os << "dctd_requests_total " << received() << "\n"
     << "dctd_requests_completed " << completed() << "\n"
     << "dctd_requests_ok " << ok() << "\n"
     << "dctd_requests_error " << errors() << "\n"
     << "dctd_requests_rejected "
     << rejected_.load(std::memory_order_relaxed) << "\n";
  for (int c = 0; c < kCodes; ++c) {
    const long n = by_code_[static_cast<size_t>(c)].load(
        std::memory_order_relaxed);
    if (n > 0)
      os << "dctd_requests_error_code{code=\""
         << to_string(static_cast<Error::Code>(c)) << "\"} " << n << "\n";
  }
  os << "dctd_cache_hits " << cache.hits << "\n"
     << "dctd_cache_misses " << cache.misses << "\n"
     << "dctd_cache_evictions " << cache.evictions << "\n"
     << "dctd_cache_inflight_dedup " << cache.inflight_dedup << "\n"
     << "dctd_cache_failures " << cache.failures << "\n"
     << "dctd_cache_entries " << cache.entries << "\n"
     << "dctd_cache_capacity " << cache.capacity << "\n"
     << "dctd_cache_spot_checks "
     << spot_checks_.load(std::memory_order_relaxed) << "\n"
     << "dctd_analysis_hits " << analyses.hits << "\n"
     << "dctd_analysis_misses " << analyses.misses << "\n"
     << "dctd_analysis_evictions " << analyses.evictions << "\n"
     << "dctd_queue_depth " << queue_depth << "\n";
  const struct {
    const char* stage;
    const LatencyHistogram* h;
  } stages[] = {{"queue", &queue_},
                {"key", &key_},
                {"compile", &compile_},
                {"spot_check", &spot_check_},
                {"exec", &exec_},
                {"total", &total_}};
  for (const auto& [stage, h] : stages) {
    os << strf("dctd_latency_ms{stage=\"%s\",quantile=\"p50\"} %.3f\n", stage,
               h->quantile_us(0.50) / 1000.0)
       << strf("dctd_latency_ms{stage=\"%s\",quantile=\"p95\"} %.3f\n", stage,
               h->quantile_us(0.95) / 1000.0)
       << strf("dctd_latency_ms{stage=\"%s\",quantile=\"p99\"} %.3f\n", stage,
               h->quantile_us(0.99) / 1000.0)
       << strf("dctd_latency_ms{stage=\"%s\",quantile=\"mean\"} %.3f\n",
               stage, h->mean_us() / 1000.0);
  }
  return os.str();
}

}  // namespace dct::service
