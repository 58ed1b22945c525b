#include "machine/machine.hpp"

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
    : cfg_(cfg), fast_enabled_(fast_directory) {
  DCT_CHECK(cfg.procs >= 1, "need at least one processor");
  // A structured code lets a sweep record the cell as skipped, not failed.
  if (cfg.procs > kMaxProcs)
    throw Error(Error::Code::kUnsupportedConfig,
                strf("the machine model supports at most %d processors "
                     "(64-bit sharer masks); got %d",
                     kMaxProcs, cfg.procs));
  DCT_CHECK(cfg.l1.assoc == 1 && cfg.l2.assoc == 1,
            "only direct-mapped caches modelled (as on DASH)");
  procs_.resize(static_cast<size_t>(cfg.procs));
  stats_.resize(static_cast<size_t>(cfg.procs));
  fast_hits_.assign(static_cast<size_t>(cfg.procs), 0);
  for (auto& p : procs_) {
    p.l1.lines = cfg.l1.size_bytes / cfg.l1.line_bytes;
    p.l1.tag.assign(static_cast<size_t>(p.l1.lines), -1);
    p.l1.fast.assign(static_cast<size_t>(p.l1.lines), 0);
    p.l2.lines = cfg.l2.size_bytes / cfg.l2.line_bytes;
    p.l2.tag.assign(static_cast<size_t>(p.l2.lines), -1);
  }
  directory_.reserve(1 << 16);
  page_home_.reserve(1 << 12);
  const Int lines = procs_[0].l1.lines;
  const auto pow2 = [](Int v) { return v > 0 && (v & (v - 1)) == 0; };
  if (pow2(cfg_.l1.line_bytes) && pow2(lines)) {
    line_shift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.l1.line_bytes));
    l1_slot_mask_ = static_cast<size_t>(lines - 1);
  } else {
    fast_enabled_ = false;
  }
}

bool Machine::lookup(CacheLevel& c, Int line) const {
  return c.tag[static_cast<size_t>(line % c.lines)] == line;
}

void Machine::insert(int proc, CacheLevel& c, Int line) {
  const size_t set = static_cast<size_t>(line % c.lines);
  Int& slot = c.tag[set];
  if (slot == line) return;
  if (slot >= 0) evict_notify(proc, slot);
  slot = line;
  if (!c.fast.empty()) c.fast[set] = 0;
}

/// A line fell out of one cache level; if it is in neither level, the
/// processor no longer caches it.
void Machine::evict_notify(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  if (lookup(p.l1, line) || lookup(p.l2, line)) return;
  auto it = directory_.find(line);
  if (it == directory_.end()) return;
  it->second.sharers &= ~(1ull << proc);
  if (it->second.dirty_owner == proc) it->second.dirty_owner = -1;
}

void Machine::drop_line(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  const size_t set1 = static_cast<size_t>(line % p.l1.lines);
  if (p.l1.tag[set1] == line) {
    p.l1.tag[set1] = -1;
    p.l1.fast[set1] = 0;
  }
  Int& s2 = p.l2.tag[static_cast<size_t>(line % p.l2.lines)];
  if (s2 == line) s2 = -1;
}

/// A dirty line was downgraded to shared: its (former) owner may no longer
/// write it without a directory transition.
void Machine::clear_write_fast(int proc, Int line) {
  Proc& p = procs_[static_cast<size_t>(proc)];
  const size_t set = static_cast<size_t>(line % p.l1.lines);
  if (p.l1.tag[set] == line)
    p.l1.fast[set] &= static_cast<std::uint8_t>(~kWriteFast);
}

int Machine::home_cluster(Int line) {
  const Int page = line * cfg_.l1.line_bytes / cfg_.page_bytes;
  auto it = page_home_.find(page);
  if (it != page_home_.end()) return it->second;
  // Unassigned page: spread round-robin (models an OS allocating pages of
  // a parallel-initialized program across clusters).
  const int cl = next_rr_cluster_;
  next_rr_cluster_ = (next_rr_cluster_ + 1) % cfg_.clusters();
  page_home_.emplace(page, cl);
  return cl;
}

void Machine::home_page(Int byte_addr, int cluster) {
  const Int page = byte_addr / cfg_.page_bytes;
  page_home_.emplace(page, cluster % cfg_.clusters());
}

double Machine::barrier_cost(int participants) const {
  return cfg_.barrier_base + cfg_.barrier_per_proc * participants;
}

double Machine::access_slow(int proc, Int byte_addr, bool is_write) {
  const Int line = byte_addr / cfg_.l1.line_bytes;
  const int word =
      static_cast<int>((byte_addr % cfg_.l1.line_bytes) / 4);  // 4B words
  Proc& p = procs_[static_cast<size_t>(proc)];
  ProcStats& st = stats_[static_cast<size_t>(proc)];
  ++st.accesses;

  Line& dir = directory_[line];
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
          for (int q = 0; q < cfg_.procs; ++q)
            if (others & (1ull << q)) {
              drop_line(q, line);
              dir.invalidated_from |= (1ull << q);
            }
          dir.last_inval_word = static_cast<std::uint8_t>(word);
          dir.sharers = self;
        }
        dir.dirty_owner = proc;
      }
    }
    dir.sharers |= self;
    dir.touched = true;
    p.l1.fast[static_cast<size_t>(line % p.l1.lines)] = static_cast<
        std::uint8_t>(kReadFast | (dir.dirty_owner == proc ? kWriteFast : 0));
    st.memory_cycles += latency;
    return latency;
  }

  // Miss: classify.
  if (!dir.touched) {
    ++st.cold_misses;
  } else if (dir.invalidated_from & self) {
    if (dir.last_inval_word == static_cast<std::uint8_t>(word))
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
  const bool local = home == cfg_.cluster_of(proc);
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
    for (int q = 0; q < cfg_.procs; ++q)
      if (others & (1ull << q)) {
        drop_line(q, line);
        dir.invalidated_from |= (1ull << q);
      }
    if (others != 0) dir.last_inval_word = static_cast<std::uint8_t>(word);
    dir.sharers = self;
    dir.dirty_owner = proc;
  } else {
    if (dir.dirty_owner >= 0 && dir.dirty_owner != proc) {
      clear_write_fast(dir.dirty_owner, line);
      dir.dirty_owner = -1;  // downgraded to shared, memory updated
    }
    dir.sharers |= self;
  }

  insert(proc, p.l2, line);
  insert(proc, p.l1, line);
  p.l1.fast[static_cast<size_t>(line % p.l1.lines)] = static_cast<
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
