#include "service/cache.hpp"

#include <span>
#include <sstream>
#include <utility>

#include "support/diagnostics.hpp"

namespace dct::service {

namespace {

void put_vec(std::ostringstream& os, std::span<const linalg::Int> v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    os << v[i];
  }
  os << ']';
}

void put_expr(std::ostringstream& os, const ir::AffineExpr& e) {
  put_vec(os, e.coeffs);
  os << '+' << e.constant;
}

void put_bounds(std::ostringstream& os, const std::vector<ir::Bound>& bs) {
  os << '{';
  for (const ir::Bound& b : bs) {
    put_expr(os, b.expr);
    os << '/' << b.divisor << ';';
  }
  os << '}';
}

void put_ref(std::ostringstream& os, const ir::ArrayRef& r) {
  os << "a" << r.array << ":";
  os << r.access.rows() << 'x' << r.access.cols() << '[';
  for (int i = 0; i < r.access.rows(); ++i)
    for (int j = 0; j < r.access.cols(); ++j) os << r.access.at(i, j) << ',';
  os << ']';
  put_vec(os, r.offset);
}

}  // namespace

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string cache_key(const ir::Program& prog, core::Mode mode, int procs,
                      const core::CompileOptions& opts,
                      const std::string& salt) {
  std::ostringstream os;
  os.precision(17);  // compute_cycles round-trips exactly
  os << "v1|prog=" << prog.name << "|steps=" << prog.time_steps << "|";
  for (const ir::ArrayDecl& a : prog.arrays) {
    os << "arr " << a.name << ':';
    put_vec(os, a.dims);
    os << 'e' << a.elem_size << (a.transformable ? 't' : 'f') << '|';
  }
  for (const ir::LoopNest& n : prog.nests) {
    os << "nest " << n.name << ":f" << n.frequency << ':';
    for (const ir::Loop& l : n.loops) {
      os << l.var_name << ":lo";
      put_bounds(os, l.lowers);
      os << "up";
      put_bounds(os, l.uppers);
      os << ';';
    }
    for (const ir::Stmt& s : n.stmts) {
      // Evaluator closures cannot be fingerprinted; the structural parts
      // (shape, cost, reference pattern) plus the program name identify a
      // statement for caching purposes.
      os << "s:d" << s.depth << ":c" << s.compute_cycles << ":r";
      for (const ir::ArrayRef& r : s.reads) put_ref(os, r);
      os << ":w";
      put_ref(os, s.write);
      os << ';';
    }
    os << '|';
  }
  os << "mode=" << static_cast<int>(mode) << "|P=" << procs
     << "|strat=" << static_cast<int>(opts.strategy);
  if (!salt.empty()) os << "|salt=" << salt;
  return os.str();
}

CompileCache::CompileCache(std::size_t capacity) : capacity_(capacity) {
  DCT_CHECK(capacity >= 1, "cache capacity must be at least 1");
  stats_.capacity = capacity;
}

void CompileCache::evict_excess_locked() {
  while (lru_.size() > capacity_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

CompileCache::Lookup CompileCache::get_or_compile(const std::string& key,
                                                  const CompileFn& compile) {
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
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failures;
      entries_.erase(key);
    }
    // Wake every joined waiter with the same failure, then rethrow for
    // the compiling caller.
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Only ready entries are evicted, so this in-flight one is still here.
    Entry& e = entries_.at(key);
    e.ready = true;
    lru_.push_front(key);
    e.lru_pos = lru_.begin();
    evict_excess_locked();
  }
  promise.set_value(result);
  return {std::move(result), /*hit=*/false, /*deduped=*/false};
}

CompileCache::Stats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace dct::service
