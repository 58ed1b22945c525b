// A minimal fork/join helper for embarrassingly parallel index spaces
// (the experiment sweep: every (app, mode, P) simulation is independent).
#pragma once

#include <functional>

namespace dct::support {

/// Worker count to use when the caller does not specify one:
/// std::thread::hardware_concurrency() (1 when unknown).
int default_threads();

/// Run fn(0) .. fn(n-1) on up to `threads` worker threads (<= 0 means
/// default_threads(); 1 runs serially on the calling thread). Blocks until
/// every index has completed. If any invocation throws, the exception of
/// the lowest-numbered failing index is rethrown after the join, so
/// failure reporting is deterministic regardless of scheduling; callers
/// that must see every failure catch inside `fn`.
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

}  // namespace dct::support
