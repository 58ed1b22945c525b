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
  DCT_CHECK(cfg.procs >= 1, "need at least one processor");
  // A structured code lets a sweep record the cell as skipped, not failed.
  if (cfg.procs > kMaxProcs)
    throw Error(Error::Code::kUnsupportedConfig,
                strf("the machine model supports at most %d processors "
                     "(64-bit sharer masks); got %d",
                     kMaxProcs, cfg.procs));
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

  l1_mask_ = static_cast<size_t>(l1_sets - 1);
  l2_mask_ = static_cast<size_t>(l2_sets - 1);
  l1_bits_ = log2(l1_sets);
  l2_bits_ = log2(l2_sets);
  clusters_ = cfg.clusters();

  const auto procs = static_cast<size_t>(cfg.procs);
  l1_.assign(procs * static_cast<size_t>(l1_sets), kEmptyL1);
  l2_.assign(procs * static_cast<size_t>(l2_sets), kEmptyL2);
  for (int q = 0; q < cfg.procs; ++q) cluster_.push_back(cfg.cluster_of(q));
  stats_.resize(procs);
  fast_hits_.assign(procs, 0);
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

/// Cover `line`, first rejecting a line the 32-bit cache slots cannot name.
void Machine::grow_directory(Int line) {
  if (line >= kMaxLines)
    throw Error(Error::Code::kUnsupportedConfig,
                strf("the machine model addresses at most %ld lines (30-bit "
                     "cache slots); got line %ld",
                     static_cast<long>(kMaxLines), static_cast<long>(line)));
  grow_to_cover(directory_, line, Line{});
}

void Machine::drop_line(int proc, Int line) {
  std::uint32_t& s1 = l1_at(proc, line);
  if (s1 >> 2 == line) s1 = kEmptyL1;
  std::uint32_t& s2 = l2_at(proc, line);
  if (s2 == line) s2 = kEmptyL2;
}

/// A dirty line was downgraded to shared: its (former) owner may no longer
/// write it without a directory transition.
void Machine::clear_write_fast(int proc, Int line) {
  std::uint32_t& s = l1_at(proc, line);
  if (s >> 2 == line) s &= ~kWriteFast;
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
  if (static_cast<size_t>(line) >= directory_.size()) grow_directory(line);
  ProcStats& st = stats_[static_cast<size_t>(proc)];
  ++st.accesses;

  // Stays valid: nothing below resizes directory_.
  Line& dir = directory_[static_cast<size_t>(line)];
  const std::uint64_t self = 1ull << proc;
  double latency = 0;

  std::uint32_t& s1 = l1_at(proc, line);
  std::uint32_t& s2 = l2_at(proc, line);
  const bool in_l1 = s1 >> 2 == line;
  const bool in_l2 = in_l1 || s2 == line;

  if (in_l2) {
    latency = in_l1 ? cfg_.lat_l1 : cfg_.lat_l2;
    if (in_l1)
      ++st.l1_hits;
    else
      ++st.l2_hits;
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
    // An L2 hit refills L1 over its victim (see the fill below).
    s1 = l1_slot(line, dir.dirty_owner == proc);
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
  const bool local = home == cluster_[static_cast<size_t>(proc)];
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

  // Fill both levels over their victims. No level tells the directory of
  // an eviction: a processor whose copy left both levels stays a recorded
  // sharer (or the dirty owner) of that line.
  s2 = static_cast<std::uint32_t>(line);
  s1 = l1_slot(line, dir.dirty_owner == proc);
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

std::size_t Machine::state_bytes() const {
  return directory_.size() * sizeof(Line) +
         page_home_.size() * sizeof(page_home_[0]) +
         (l1_.size() + l2_.size()) * sizeof(std::uint32_t);
}

ProcStats Machine::total_stats() const {
  ProcStats total;
  for (int p = 0; p < cfg_.procs; ++p) total.add(stats(p));
  return total;
}

}  // namespace dct::machine
