#include "support/parallel.hpp"

#include <atomic>
#include <thread>

namespace dct::support {

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::exception_ptr ParallelOutcome::first_error() const {
  for (const std::exception_ptr& e : errors)
    if (e) return e;
  return nullptr;
}

ParallelOutcome parallel_for_collect(int n, int threads,
                                     const std::function<void(int)>& fn,
                                     const CancelToken& cancel) {
  ParallelOutcome out;
  if (n <= 0) return out;
  out.errors.assign(static_cast<size_t>(n), nullptr);
  out.started.assign(static_cast<size_t>(n), 1);
  if (threads <= 0) threads = default_threads();
  const int workers = std::min(threads, n);
  const bool watch = cancel.valid();

  auto run_one = [&](int i) {
    try {
      fn(i);
    } catch (...) {
      out.errors[static_cast<size_t>(i)] = std::current_exception();
    }
  };

  if (workers <= 1) {
    for (int i = 0; i < n; ++i) {
      if (watch && cancel.expired()) {
        for (int j = i; j < n; ++j) out.started[static_cast<size_t>(j)] = 0;
        break;
      }
      run_one(i);
    }
    return out;
  }

  std::atomic<int> next{0};
  auto work = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (watch && cancel.expired()) {
        out.started[static_cast<size_t>(i)] = 0;
        continue;  // drain the counter so every index gets a verdict
      }
      run_one(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return out;
}

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
  const ParallelOutcome out = parallel_for_collect(n, threads, fn);
  if (const std::exception_ptr e = out.first_error())
    std::rethrow_exception(e);
}

}  // namespace dct::support
