// A minimal fork/join helper for embarrassingly parallel index spaces
// (the experiment sweep: every (app, mode, P) simulation is independent).
#pragma once

#include <exception>
#include <functional>
#include <vector>

#include "support/cancel.hpp"

namespace dct::support {

/// Worker count to use when the caller does not specify one:
/// std::thread::hardware_concurrency() (1 when unknown).
int default_threads();

/// Outcome of a parallel_for_collect run: one slot per index.
struct ParallelOutcome {
  /// errors[i] is the exception fn(i) threw, or null on success (also null
  /// when the index never started — see started).
  std::vector<std::exception_ptr> errors;
  /// started[i] is false when cancellation stopped the loop before fn(i)
  /// was dispatched.
  std::vector<char> started;

  /// The exception of the lowest-numbered failing index, or null.
  std::exception_ptr first_error() const;
};

/// Run fn(0) .. fn(n-1) on up to `threads` worker threads (<= 0 means
/// default_threads(); 1 runs serially on the calling thread). Blocks until
/// every dispatched index has completed. Exceptions are captured per index
/// rather than rethrown, so a caller building a failure table sees *every*
/// failing index, not just the first. When `cancel` is a valid token,
/// workers stop fetching new indices once it expires; indices never
/// dispatched come back with started[i] == false.
ParallelOutcome parallel_for_collect(int n, int threads,
                                     const std::function<void(int)>& fn,
                                     const CancelToken& cancel = {});

/// Run fn(0) .. fn(n-1) on up to `threads` worker threads. Blocks until
/// every index has completed. If any invocation throws, the exception of
/// the lowest-numbered failing index is rethrown after the join, so
/// failure reporting is deterministic regardless of scheduling.
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

}  // namespace dct::support
