#include "machine/machine.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::machine {

MachineConfig MachineConfig::dash(int procs) {
  MachineConfig cfg;
  cfg.procs = procs;
  return cfg;
}

void ProcStats::add(const ProcStats& o) {
  accesses += o.accesses;
  l1_hits += o.l1_hits;
  l2_hits += o.l2_hits;
  local_fills += o.local_fills;
  remote_fills += o.remote_fills;
  remote_dirty_fills += o.remote_dirty_fills;
  upgrades += o.upgrades;
  cold_misses += o.cold_misses;
  replace_misses += o.replace_misses;
  coherence_true += o.coherence_true;
  coherence_false += o.coherence_false;
  dir_fast_hits += o.dir_fast_hits;
  memory_cycles += o.memory_cycles;
}

std::string ProcStats::to_string() const {
  return strf(
      "accesses=%lld l1=%lld l2=%lld local=%lld remote=%lld dirty=%lld "
      "upgrades=%lld cold=%lld replace=%lld coh_true=%lld coh_false=%lld",
      accesses, l1_hits, l2_hits, local_fills, remote_fills,
      remote_dirty_fills, upgrades, cold_misses, replace_misses,
      coherence_true, coherence_false);
}

Machine::Machine(const MachineConfig& cfg, bool fast_directory)
    : cfg_(cfg), fast_directory_(fast_directory) {
  DCT_CHECK(cfg.procs >= 1 && cfg.procs_per_cluster >= 1,
            "need at least one processor per cluster");
  // A structured code lets a sweep record the cell as skipped, not failed.
  if (cfg.procs > kMaxProcs)
    throw Error(Error::Code::kUnsupportedConfig,
                strf("the machine model supports at most %d processors "
                     "(64-bit sharer masks); got %d",
                     kMaxProcs, cfg.procs));
  DCT_CHECK(cfg.l1.assoc == 1 && cfg.l2.assoc == 1,
            "only direct-mapped caches modelled (as on DASH)");
  // Every address split below is a shift and a mask.
  const Int line_bytes = cfg.l1.line_bytes;
  const auto require = [&](bool ok, const char* rule) {
    if (!ok)
      throw Error(Error::Code::kUnsupportedConfig,
                  strf("the machine model needs %s; got %ld B/%ld B L1 "
                       "lines/size, %ld B/%ld B L2, %ld B pages",
                       rule, static_cast<long>(line_bytes),
                       static_cast<long>(cfg.l1.size_bytes),
                       static_cast<long>(cfg.l2.line_bytes),
                       static_cast<long>(cfg.l2.size_bytes),
                       static_cast<long>(cfg.page_bytes)));
  };
  const auto pow2 = [](Int v) { return v > 0 && (v & (v - 1)) == 0; };
  require(cfg.l2.line_bytes == line_bytes, "equal L1 and L2 line sizes");
  // Line::last_inval_word holds a 4 B word index in a byte.
  require(pow2(line_bytes) && line_bytes <= 1024,
          "a power-of-two line size of at most 1024 B");
  const Int l1_sets = cfg.l1.size_bytes / line_bytes;
  const Int l2_sets = cfg.l2.size_bytes / line_bytes;
  require(pow2(l1_sets) && pow2(l2_sets),
          "a power-of-two set count in each cache");
  require(pow2(cfg.page_bytes) && cfg.page_bytes >= line_bytes,
          "a power-of-two page size no smaller than a line");
  const auto log2 = [](Int v) {
    return std::countr_zero(static_cast<std::uint64_t>(v));
  };
  line_shift_ = log2(line_bytes);
  word_mask_ = line_bytes - 1;
  page_line_shift_ = log2(cfg.page_bytes) - line_shift_;
  clusters_ = cfg.clusters();

  procs_.resize(static_cast<size_t>(cfg.procs));
  stats_.resize(static_cast<size_t>(cfg.procs));
  fast_hits_.assign(static_cast<size_t>(cfg.procs), 0);
  for (int q = 0; q < cfg.procs; ++q) {
    Proc& p = procs_[static_cast<size_t>(q)];
    p.cluster = cfg.cluster_of(q);
    p.l1.mask = static_cast<size_t>(l1_sets - 1);
    p.l1.tag.assign(static_cast<size_t>(l1_sets), -1);
    p.l1.fast.assign(static_cast<size_t>(l1_sets), 0);
    p.l2.mask = static_cast<size_t>(l2_sets - 1);
    p.l2.tag.assign(static_cast<size_t>(l2_sets), -1);
  }
}

namespace {

/// Grow a dense table by doubling until `index` is in range.
template <typename T>
void grow_to_cover(std::vector<T>& table, Int index, const T& fill) {
  DCT_CHECK(index >= 0, "negative address in the machine model");
  size_t n = std::max<size_t>(table.size(), 1024);
  while (n <= static_cast<size_t>(index)) n *= 2;
  table.resize(n, fill);
}

}  // namespace

bool Machine::lookup(CacheLevel& c, Int line) const {
  return c.tag[static_cast<size_t>(line) & c.mask] == line;
}

void Machine::insert(int proc, CacheLevel& c, Int line) {
  const size_t set = static_cast<size_t>(line) & c.mask;
  Int& slot = c.tag[set];
  if (slot == line) return;
  // The victim is notified while it still holds its slot, so
  // evict_notify's lookup finds it and the directory keeps the processor
  // as sharer or dirty owner. Known quirk, kept: the order sets cycles.
  if (slot >= 0) evict_notify(proc, slot);
  slot = line;
  if (!c.fast.empty()) c.fast[set] = 0;
}

/// A line fell out of one cache level; if it is in neither level, the
/// processor no longer caches it.
void Machine::evict_notify(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  if (lookup(p.l1, line) || lookup(p.l2, line)) return;
  if (static_cast<size_t>(line) >= directory_.size()) return;
  Line& dir = directory_[static_cast<size_t>(line)];
  dir.sharers &= ~(1ull << proc);
  if (dir.dirty_owner == proc) dir.dirty_owner = -1;
}

void Machine::drop_line(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  const size_t set1 = static_cast<size_t>(line) & p.l1.mask;
  if (p.l1.tag[set1] == line) {
    p.l1.tag[set1] = -1;
    p.l1.fast[set1] = 0;
  }
  Int& s2 = p.l2.tag[static_cast<size_t>(line) & p.l2.mask];
  if (s2 == line) s2 = -1;
}

/// A dirty line was downgraded to shared: its (former) owner may no longer
/// write it without a directory transition.
void Machine::clear_write_fast(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  const size_t set = static_cast<size_t>(line) & p.l1.mask;
  if (p.l1.tag[set] == line)
    p.l1.fast[set] &= static_cast<std::uint8_t>(~kWriteFast);
}

int Machine::home_cluster(Int line) {
  const Int page = line >> page_line_shift_;
  if (static_cast<size_t>(page) >= page_home_.size())
    grow_to_cover(page_home_, page, -1);
  int& home = page_home_[static_cast<size_t>(page)];
  if (home >= 0) return home;
  // Unassigned page: spread round-robin (models an OS allocating pages of
  // a parallel-initialized program across clusters).
  home = next_rr_cluster_;
  if (++next_rr_cluster_ == clusters_) next_rr_cluster_ = 0;
  return home;
}

void Machine::home_page(Int byte_addr, int cluster) {
  const Int page = byte_addr >> (line_shift_ + page_line_shift_);
  if (static_cast<size_t>(page) >= page_home_.size())
    grow_to_cover(page_home_, page, -1);
  int& home = page_home_[static_cast<size_t>(page)];
  if (home < 0) home = cluster % clusters_;
}

double Machine::barrier_cost(int participants) const {
  return cfg_.barrier_base + cfg_.barrier_per_proc * participants;
}

double Machine::access_slow(int proc, Int byte_addr, bool is_write) {
  const Int line = byte_addr >> line_shift_;
  const auto word =
      static_cast<std::uint8_t>((byte_addr & word_mask_) >> 2);  // 4B words
  Proc& p = procs_[static_cast<size_t>(proc)];
  ProcStats& st = stats_[static_cast<size_t>(proc)];
  ++st.accesses;

  if (static_cast<size_t>(line) >= directory_.size())
    grow_to_cover(directory_, line, Line{});
  // Stays valid: nothing below resizes directory_.
  Line& dir = directory_[static_cast<size_t>(line)];
  const std::uint64_t self = 1ull << proc;
  double latency = 0;

  const bool in_l1 = lookup(p.l1, line);
  const bool in_l2 = in_l1 || lookup(p.l2, line);

  if (in_l2) {
    latency = in_l1 ? cfg_.lat_l1 : cfg_.lat_l2;
    if (in_l1)
      ++st.l1_hits;
    else {
      ++st.l2_hits;
      insert(proc, p.l1, line);
    }
    if (is_write) {
      if (dir.dirty_owner != proc) {
        // Upgrade: invalidate the other sharers.
        const std::uint64_t others = dir.sharers & ~self;
        if (others != 0) {
          ++st.upgrades;
          latency += cfg_.lat_remote - cfg_.lat_l1;  // ownership round trip
          for (std::uint64_t q = others; q != 0; q &= q - 1)
            drop_line(std::countr_zero(q), line);
          dir.invalidated_from |= others;
          dir.last_inval_word = word;
          dir.sharers = self;
        }
        dir.dirty_owner = static_cast<std::int8_t>(proc);
      }
    }
    dir.sharers |= self;
    dir.touched = true;
    p.l1.fast[static_cast<size_t>(line) & p.l1.mask] = static_cast<
        std::uint8_t>(kReadFast | (dir.dirty_owner == proc ? kWriteFast : 0));
    st.memory_cycles += latency;
    return latency;
  }

  // Miss: classify.
  if (!dir.touched) {
    ++st.cold_misses;
  } else if (dir.invalidated_from & self) {
    if (dir.last_inval_word == word)
      ++st.coherence_true;
    else
      ++st.coherence_false;
    dir.invalidated_from &= ~self;
  } else {
    ++st.replace_misses;
  }
  dir.touched = true;

  // Fetch latency by where the data lives.
  const int home = home_cluster(line);
  const bool local = home == p.cluster;
  if (dir.dirty_owner >= 0 && dir.dirty_owner != proc) {
    latency = cfg_.lat_remote_dirty;
    ++st.remote_dirty_fills;
  } else if (local) {
    latency = cfg_.lat_local;
    ++st.local_fills;
  } else {
    latency = cfg_.lat_remote;
    ++st.remote_fills;
  }

  if (is_write) {
    // Invalidate every other copy.
    const std::uint64_t others = dir.sharers & ~self;
    for (std::uint64_t q = others; q != 0; q &= q - 1)
      drop_line(std::countr_zero(q), line);
    dir.invalidated_from |= others;
    if (others != 0) dir.last_inval_word = word;
    dir.sharers = self;
    dir.dirty_owner = static_cast<std::int8_t>(proc);
  } else {
    if (dir.dirty_owner >= 0 && dir.dirty_owner != proc) {
      clear_write_fast(dir.dirty_owner, line);
      dir.dirty_owner = -1;  // downgraded to shared, memory updated
    }
    dir.sharers |= self;
  }

  insert(proc, p.l2, line);
  insert(proc, p.l1, line);
  p.l1.fast[static_cast<size_t>(line) & p.l1.mask] = static_cast<
      std::uint8_t>(kReadFast | (dir.dirty_owner == proc ? kWriteFast : 0));
  st.memory_cycles += latency;
  return latency;
}

ProcStats Machine::stats(int proc) const {
  ProcStats s = stats_[static_cast<size_t>(proc)];
  const long long fh = fast_hits_[static_cast<size_t>(proc)];
  s.accesses += fh;
  s.l1_hits += fh;
  s.dir_fast_hits += fh;
  s.memory_cycles += static_cast<double>(fh) * cfg_.lat_l1;
  return s;
}

ProcStats Machine::total_stats() const {
  ProcStats total;
  for (int p = 0; p < cfg_.procs; ++p) total.add(stats(p));
  return total;
}

}  // namespace dct::machine
