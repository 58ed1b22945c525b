// Serving-layer observability: request counters, per-stage latency
// histograms with p50/p95/p99 extraction, and a text dump — the PR 1
// remark/trace subsystem extended to the service tier. Everything here is
// lock-free (atomic counters and fixed log-scale buckets) so the hot path
// of every worker can record without contention.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "service/cache.hpp"
#include "support/diagnostics.hpp"

namespace dct::service {

/// Fixed log2-bucket latency histogram over microseconds: bucket i covers
/// [2^i, 2^(i+1)) us, so the range spans 1 us .. ~1 hour. Quantiles are
/// bucket upper bounds — accurate to a factor of two, plenty for p50/p95/
/// p99 dashboards (the sum/count pair recovers the exact mean).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 32;

  void record_us(double us);

  long count() const { return count_.load(std::memory_order_relaxed); }
  double mean_us() const;
  /// Upper bound of the bucket containing quantile q (0 < q <= 1), in us.
  double quantile_us(double q) const;

 private:
  std::array<std::atomic<long>, kBuckets> buckets_{};
  std::atomic<long> count_{0};
  std::atomic<long long> sum_ns_{0};  ///< ns, so short stages keep a mean
};

/// One request's timing breakdown, recorded on completion.
struct RequestSample {
  double queue_us = 0;       ///< submit -> dequeue
  double key_us = 0;         ///< compose the compile cache key
  /// Both cache lookups: the analysis (on a miss: build the program and
  /// analyze it) and the compile (on a miss: the tail). Near-zero on hits.
  double compile_us = 0;
  double spot_check_us = 0;  ///< cache-hit spot check (zero on most)
  double exec_us = 0;        ///< simulate / native run
  double total_us = 0;       ///< submit -> response
};

class Metrics {
 public:
  void on_received() { received_.fetch_add(1, std::memory_order_relaxed); }
  /// `code` is consulted only when !ok.
  void on_completed(const RequestSample& s, bool ok, Error::Code code);
  void on_cache_hit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void on_spot_check() { spot_checks_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected() {
    received_.fetch_add(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  long received() const { return received_.load(std::memory_order_relaxed); }
  long completed() const { return completed_.load(std::memory_order_relaxed); }
  long ok() const { return ok_.load(std::memory_order_relaxed); }
  long errors() const { return errors_.load(std::memory_order_relaxed); }

  /// Text dump, one `dctd_<name>[{labels}] <value>` per line; the stats
  /// of the compile and analysis caches and the live queue depth are
  /// supplied by the owner (the Server).
  std::string render(const CacheStats& cache, const CacheStats& analyses,
                     std::size_t queue_depth) const;

 private:
  std::atomic<long> received_{0};
  std::atomic<long> completed_{0};
  std::atomic<long> ok_{0};
  std::atomic<long> errors_{0};
  std::atomic<long> rejected_{0};  ///< malformed before reaching the queue
  std::atomic<long> cache_hits_{0};
  std::atomic<long> spot_checks_{0};
  /// Per-error-code counters, indexed by Error::Code.
  static constexpr int kCodes = static_cast<int>(Error::Code::kFault) + 1;
  std::array<std::atomic<long>, kCodes> by_code_{};

  LatencyHistogram queue_, key_, compile_, spot_check_, exec_, total_;
};

}  // namespace dct::service
