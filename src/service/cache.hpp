// Content-addressed compilation cache (the serving layer's workhorse).
//
// The compile stages (decompose → fold-select → layout → lower) are a pure,
// expensive function of (program IR, mode, P, layout-relevant options) —
// exactly the shape serving stacks hide behind a cache. CompileCache maps
// a canonical fingerprint of those inputs to a shared_ptr<const
// CompiledProgram>; entries are immutable after insertion, so any number
// of concurrent requests can simulate / natively execute the same compiled
// artifact without copying (simulate() and run_native() take const refs
// and allocate all mutable state internally).
//
// Properties:
//  * content-addressed — the key is a canonical text serialization of the
//    structural IR plus the compile options (see cache_key); statement
//    evaluator closures are not serializable, so the program name (unique
//    per registered app builder in the service) is part of the canonical
//    text as a tie-breaker against closure-only differences;
//  * single-flight — N concurrent requests for the same key trigger
//    exactly one compile; the rest block on a shared_future and are
//    counted as in-flight dedups;
//  * LRU-bounded — completed entries beyond the capacity are evicted in
//    least-recently-used order (in-flight compiles are never evicted; the
//    resident count can transiently exceed the capacity while more than
//    `capacity` distinct keys are compiling simultaneously);
//  * failure-transparent — a failing compile propagates its exception to
//    every waiter and leaves no entry behind, so the next request retries.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/compiler.hpp"

namespace dct::service {

/// Canonical text serialization of everything layout-relevant about a
/// compilation request: the structural IR (arrays, nests, bounds, access
/// matrices, statement shapes — evaluator closures excluded), the mode,
/// the processor count, and the one compile option (address strategy).
/// `salt` folds in request context the IR cannot express (e.g. the HPF
/// directive text a request carried).
std::string cache_key(const ir::Program& prog, core::Mode mode, int procs,
                      const core::CompileOptions& opts,
                      const std::string& salt = {});

/// FNV-1a 64-bit hash (exposed for fingerprint display and tests).
std::uint64_t fnv1a(const std::string& s);

class CompileCache {
 public:
  using Compiled = std::shared_ptr<const core::CompiledProgram>;
  using CompileFn = std::function<Compiled()>;

  /// `capacity` >= 1: maximum number of completed entries kept resident.
  explicit CompileCache(std::size_t capacity);

  struct Lookup {
    Compiled program;
    bool hit = false;      ///< served from a completed entry
    bool deduped = false;  ///< joined another request's in-flight compile
  };

  /// Return the cached program for `key`, or run `compile` (on the calling
  /// thread) and cache its result. Exactly one caller per key compiles at
  /// a time; concurrent callers for the same key wait for that compile.
  /// Exceptions from `compile` propagate to every waiting caller and the
  /// entry is dropped.
  Lookup get_or_compile(const std::string& key, const CompileFn& compile);

  struct Stats {
    long hits = 0;
    long misses = 0;          ///< lookups that ran a compile
    long evictions = 0;
    long inflight_dedup = 0;  ///< lookups that joined an in-flight compile
    long failures = 0;        ///< compiles that threw
    std::size_t entries = 0;  ///< completed entries resident now
    std::size_t capacity = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_future<Compiled> future;
    bool ready = false;
    /// Position in lru_ (valid only when ready).
    std::list<std::string>::iterator lru_pos;
  };

  void evict_excess_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recently used, ready keys
  Stats stats_;
};

}  // namespace dct::service
