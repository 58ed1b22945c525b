// Cache-coherent NUMA multiprocessor simulator modelled on the Stanford
// DASH machine the paper evaluates on (Section 6.1):
//
//  * processors organized in clusters (DASH: 8 clusters x 4 processors);
//  * per-processor direct-mapped L1 (64KB) and L2 (256KB), 16B lines;
//  * directory-based write-invalidate coherence;
//  * 4KB pages homed on a cluster (the paper: first-touch);
//  * latencies 1 : 10 : 30 : 100-130 for L1 : L2 : local : remote memory.
//
// The simulator classifies misses (cold / replacement / coherence, the
// latter split into true and false sharing by comparing the invalidating
// write's word with the word re-read) — the quantities the paper's
// optimizations target.
//
// Host state: one 32-bit slot per cache set (L1: line << 2 | fast flags;
// L2: the line), 80 KB per DASH processor; a 24-byte directory entry per
// line and an int per page, in tables grown by doubling. A slot names a
// line in 30 bits, so addresses stop below line Machine::kMaxLines (16 GiB
// at 16 B lines); an access beyond throws kUnsupportedConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/int_matrix.hpp"

namespace dct::machine {

using linalg::Int;

/// Most processors a Machine models: the directory's sharer sets are
/// 64-bit masks. Larger machines are rejected with kUnsupportedConfig.
constexpr int kMaxProcs = 64;

/// Processors per DASH cluster. The compiler allocates one copy of each
/// replicated array per cluster, so this is a constant, not a knob.
constexpr int kProcsPerCluster = 4;

/// A direct-mapped cache (as on DASH).
struct CacheConfig {
  Int size_bytes = 64 * 1024;
  Int line_bytes = 16;
};

struct MachineConfig {
  int procs = 32;
  CacheConfig l1{64 * 1024, 16};
  CacheConfig l2{256 * 1024, 16};
  Int page_bytes = 4096;
  // Access latencies in cycles.
  double lat_l1 = 1;
  double lat_l2 = 10;
  double lat_local = 30;
  double lat_remote = 100;
  double lat_remote_dirty = 130;
  /// Barrier cost: base plus a per-processor component (log-tree-ish
  /// hardware barriers still serialize hot spots on DASH).
  double barrier_base = 200;
  double barrier_per_proc = 20;
  /// Acquiring a free lock / producer-consumer hand-off.
  double lock_cycles = 60;

  int clusters() const { return (procs + kProcsPerCluster - 1) / kProcsPerCluster; }
  int cluster_of(int proc) const { return proc / kProcsPerCluster; }

  /// The DASH configuration of the paper with a given processor count.
  static MachineConfig dash(int procs);
};

/// Per-processor memory statistics.
struct ProcStats {
  long long accesses = 0;
  long long l1_hits = 0;
  long long l2_hits = 0;
  long long local_fills = 0;
  long long remote_fills = 0;
  long long remote_dirty_fills = 0;
  long long upgrades = 0;  ///< write hits needing exclusivity
  long long cold_misses = 0;
  long long replace_misses = 0;
  long long coherence_true = 0;
  long long coherence_false = 0;
  /// L1 hits served by the directory fast path (subset of l1_hits; the
  /// only counter that depends on Machine's `fast_directory`).
  long long dir_fast_hits = 0;
  double memory_cycles = 0;

  bool operator==(const ProcStats&) const = default;
  void add(const ProcStats& o);
  std::string to_string() const;
};

/// One processor's two-level cache hierarchy plus the shared directory.
class Machine {
 public:
  /// Throws Error(kUnsupportedConfig) when cfg.procs > kMaxProcs, or when
  /// the address split cannot be a shift and a mask: the L1 and L2 line
  /// sizes differ; the line size, either level's set count or the page
  /// size is not a power of two; a page is smaller than a line; or a line
  /// is larger than 1024 B (word offsets are stored in a byte).
  /// `fast_directory` takes the L1-hit fast path that skips the directory
  /// entirely when the line's coherence state provably cannot change (see
  /// access). Identical latencies and statistics either way — only
  /// ProcStats::dir_fast_hits differs; false always exercises the full
  /// directory protocol (the simulator's interpreter configuration).
  explicit Machine(const MachineConfig& cfg, bool fast_directory = true);

  /// Simulate one access; returns its latency in cycles and updates the
  /// per-processor statistics. Throws Error(kUnsupportedConfig) for an
  /// address at or beyond line kMaxLines (before any state grows).
  ///
  /// Fast path (`fast_directory`): an L1 hit whose slot carries the
  /// right fast flag — read: the processor is a recorded sharer; write:
  /// the processor is the dirty owner — needs no directory transition at
  /// all, so `directory_` is not touched. The slow path maintains the
  /// flags; invalidations and downgrades clear them. One slot load and
  /// one compare: a read ORs kWriteFast into the slot, so it matches
  /// `line << 2 | kReadFast | kWriteFast` exactly when the slot holds the
  /// line with kReadFast set.
  double access(int proc, Int byte_addr, bool is_write) {
    if (fast_directory_) {
      const Int line = byte_addr >> line_shift_;
      const std::uint32_t slot =
          l1_at(proc, line) | (is_write ? 0u : kWriteFast);
      // Widened, so that no line past the slot range can match.
      if (slot == (static_cast<std::uint64_t>(line) << 2 | kFastBits)) {
        // One dense counter; folded into ProcStats when stats are read
        // (a fast hit bumps accesses, l1_hits, dir_fast_hits and lat_l1
        // memory cycles — all derivable from the count).
        ++fast_hits_[static_cast<size_t>(proc)];
        return cfg_.lat_l1;
      }
    }
    return access_slow(proc, byte_addr, is_write);
  }

  /// Cost of a barrier across `participants` processors.
  double barrier_cost(int participants) const;

  /// Assign the home cluster of the page containing `byte_addr`
  /// (idempotent: the first assignment wins — first touch).
  void home_page(Int byte_addr, int cluster);

  const MachineConfig& config() const { return cfg_; }
  /// Per-processor statistics with the deferred fast-path hits folded in.
  ProcStats stats(int proc) const;
  ProcStats total_stats() const;

  /// Host bytes of the model's state: directory, page homes and every
  /// processor's cache slots (sizes, not capacities: deterministic).
  std::size_t state_bytes() const;

  /// Lines the cache slots can name: a slot holds a line in 30 bits, and
  /// the all-ones line marks an empty slot. 16 GiB at 16 B lines.
  static constexpr Int kMaxLines = (Int{1} << 30) - 1;

 private:
  // Cache slots are 32-bit. An L1 slot is `line << 2 | flags`; the flags
  // are valid while the line is resident:
  static constexpr std::uint32_t kReadFast = 1;   ///< sharer; reads are free
  static constexpr std::uint32_t kWriteFast = 2;  ///< dirty owner
  static constexpr std::uint32_t kFastBits = kReadFast | kWriteFast;
  /// Empty slots name line kMaxLines, which access() rejects; the L1 one
  /// has no fast flag, so the fast path's compare never matches it.
  static constexpr std::uint32_t kEmptyL2 =
      static_cast<std::uint32_t>(kMaxLines);
  static constexpr std::uint32_t kEmptyL1 = kEmptyL2 << 2;

  /// Directory entry per line (24 bytes).
  struct Line {
    std::uint64_t sharers = 0;  ///< bitmask of caching processors
    /// Classification helpers.
    std::uint64_t invalidated_from = 0;  ///< procs that lost this line
    std::int8_t dirty_owner = -1;  ///< processor with the modified copy
    std::uint8_t last_inval_word = 0;
    bool touched = false;
  };
  static_assert(kMaxProcs <= INT8_MAX && sizeof(Line) == 24);

  /// Processor `proc`'s L1 and L2 slots for `line`.
  std::uint32_t& l1_at(int proc, Int line) {
    return l1_[(static_cast<size_t>(proc) << l1_bits_) |
               (static_cast<size_t>(line) & l1_mask_)];
  }
  std::uint32_t& l2_at(int proc, Int line) {
    return l2_[(static_cast<size_t>(proc) << l2_bits_) |
               (static_cast<size_t>(line) & l2_mask_)];
  }
  static std::uint32_t l1_slot(Int line, bool dirty_owner) {
    return static_cast<std::uint32_t>(line) << 2 | kReadFast |
           (dirty_owner ? kWriteFast : 0u);
  }
  double access_slow(int proc, Int byte_addr, bool is_write);
  void grow_directory(Int line);
  void drop_line(int proc, Int line);
  void clear_write_fast(int proc, Int line);
  int home_cluster(Int line);

  MachineConfig cfg_;
  bool fast_directory_ = true;
  /// The address split: line = byte >> line_shift_, word = (byte &
  /// word_mask_) >> 2, page = line >> page_line_shift_.
  int line_shift_ = 0;
  Int word_mask_ = 0;
  int page_line_shift_ = 0;
  /// Set of a line: line & mask; sets per cache: 1 << bits (direct-mapped).
  size_t l1_mask_ = 0, l2_mask_ = 0;
  int l1_bits_ = 0, l2_bits_ = 0;
  int clusters_ = 1;
  /// Every processor's cache slots, processor after processor.
  std::vector<std::uint32_t> l1_;  ///< line << 2 | flags
  std::vector<std::uint32_t> l2_;  ///< line
  std::vector<int> cluster_;       ///< MachineConfig::cluster_of by processor
  std::vector<ProcStats> stats_;
  /// Directory-fast-path hits per processor, folded into stats_ on read.
  std::vector<long long> fast_hits_;
  /// Indexed by line number; grown by doubling when a line past the end
  /// is first touched (addresses are dense from 0).
  std::vector<Line> directory_;
  /// Home cluster per page, -1 = unassigned; grown like directory_.
  std::vector<int> page_home_;
  int next_rr_cluster_ = 0;
};

}  // namespace dct::machine
