// Content-addressed compilation cache (the serving layer's workhorse).
//
// A compile is a pure, expensive function of (program IR, mode, P,
// layout-relevant options) — exactly the shape serving stacks hide
// behind a cache. CompileCache maps
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
//    `capacity` distinct keys are compiling simultaneously). An evicted
//    entry leaves the map under the lock but is released (its key text,
//    its value when no request still holds it) after the lock, by the
//    request whose insert evicted it;
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
#include <string_view>
#include <unordered_map>

#include "core/compiler.hpp"
#include "support/diagnostics.hpp"

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

/// FNV-1a's 64-bit offset basis: the hash of the empty text.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// FNV-1a 64-bit hash of `s`, continuing from `state`, the hash of the
/// text before it: fnv1a(b, fnv1a(a)) == fnv1a(a + b). dctd reports it of
/// each cache key as the response's key_hash.
std::uint64_t fnv1a(std::string_view s, std::uint64_t state = kFnv1aBasis);

/// Canonical text of the program part of cache_key: everything up to
/// the mode. cache_key(prog, ...) == cache_key(program_key(prog), ...).
std::string program_key(const ir::Program& prog);

/// cache_key from a program_key text.
std::string cache_key(std::string_view program_key, core::Mode mode,
                      int procs, const core::CompileOptions& opts,
                      const std::string& salt = {});

/// Counters of one BuildCache.
struct CacheStats {
  long hits = 0;
  long misses = 0;          ///< lookups that ran a compile
  long evictions = 0;
  long inflight_dedup = 0;  ///< lookups that joined an in-flight compile
  long failures = 0;        ///< compiles that threw
  std::size_t entries = 0;  ///< completed entries resident now
  std::size_t capacity = 0;
};

/// A single-flight, LRU-bounded cache of immutable values built on
/// demand (the properties listed at the top of this file). The compile
/// cache holds CompiledPrograms; dctd's analysis cache (server.hpp) holds
/// analyses with the same code.
template <typename T>
class BuildCache {
 public:
  using Compiled = std::shared_ptr<const T>;
  using CompileFn = std::function<Compiled()>;

  /// `capacity` >= 1: maximum number of completed entries kept resident.
  explicit BuildCache(std::size_t capacity) : capacity_(capacity) {
    DCT_CHECK(capacity >= 1, "cache capacity must be at least 1");
    stats_.capacity = capacity;
  }

  struct Lookup {
    Compiled program;
    bool hit = false;      ///< served from a completed entry
    bool deduped = false;  ///< joined another request's in-flight compile
  };

  /// Return the cached value for `key`, or run `compile` (on the calling
  /// thread) and cache its result. Exactly one caller per key compiles at
  /// a time; concurrent callers for the same key wait for that compile.
  /// Exceptions from `compile` propagate to every waiting caller and the
  /// entry is dropped.
  Lookup get_or_compile(const std::string& key, const CompileFn& compile);

  using Stats = CacheStats;
  Stats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = lru_.size();
    s.capacity = capacity_;
    return s;
  }

 private:
  using LruList = std::list<const std::string*>;
  struct Entry {
    std::shared_future<Compiled> future;
    bool ready = false;
    /// Position in lru_ (valid only when ready).
    typename LruList::iterator lru_pos;
  };
  using Map = std::unordered_map<std::string, Entry>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  Map entries_;
  /// Ready keys, front = most recently used; each points at its key in
  /// entries_ (node keys do not move).
  LruList lru_;
  Stats stats_;
};

using CompileCache = BuildCache<core::CompiledProgram>;

template <typename T>
typename BuildCache<T>::Lookup BuildCache<T>::get_or_compile(
    const std::string& key, const CompileFn& compile) {
  std::promise<Compiled> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.ready) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return {it->second.future.get(), /*hit=*/true, /*deduped=*/false};
      }
      // Another request is compiling this key right now: join it.
      ++stats_.inflight_dedup;
      std::shared_future<Compiled> fut = it->second.future;
      lock.unlock();
      return {fut.get(), /*hit=*/false, /*deduped=*/true};
    }
    ++stats_.misses;
    Entry e;
    e.future = promise.get_future().share();
    entries_.emplace(key, std::move(e));
  }

  // The compile runs outside the lock (it is the expensive part and the
  // whole point of single-flight is to let other keys proceed meanwhile).
  Compiled result;
  try {
    result = compile();
    DCT_CHECK(result != nullptr, "compile function returned null");
  } catch (...) {
    typename Map::node_type dropped;  // released after the lock
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failures;
      dropped = entries_.extract(key);
    }
    // Wake every joined waiter with the same failure, then rethrow for
    // the compiling caller.
    promise.set_exception(std::current_exception());
    throw;
  }

  // The evicted entry leaves the map under the lock and is destroyed
  // (its key, its future and, when it held the last reference, its value)
  // when this function returns, after the lock.
  typename Map::node_type evicted;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Only ready entries are evicted, so this in-flight one is still here.
    const auto it = entries_.find(key);
    if (lru_.size() < capacity_) {
      lru_.push_front(&it->first);
    } else {
      // Full: the least recently used entry goes, and its list node
      // becomes this entry's. (Each completion adds one ready entry, so
      // the list is never more than full.)
      evicted = entries_.extract(*lru_.back());
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      lru_.front() = &it->first;
      ++stats_.evictions;
    }
    it->second.ready = true;
    it->second.lru_pos = lru_.begin();
  }
  promise.set_value(result);
  return {std::move(result), /*hit=*/false, /*deduped=*/false};
}

}  // namespace dct::service
