// Tests for the DASH-like machine simulator: latency hierarchy, coherence
// behaviour (true and false sharing), conflict misses and page homing.
#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"

namespace dct::machine {
namespace {

MachineConfig small_dash(int procs) {
  MachineConfig cfg = MachineConfig::dash(procs);
  return cfg;
}

TEST(Machine, LatencyHierarchy) {
  Machine m(small_dash(8));
  m.home_page(0, 0);  // page homed on cluster 0 (procs 0..3)
  // Cold miss from proc 0: local memory.
  EXPECT_EQ(m.access(0, 0, false), m.config().lat_local);
  // Re-access: L1 hit.
  EXPECT_EQ(m.access(0, 0, false), m.config().lat_l1);
  // Proc 4 (cluster 1): remote fill.
  EXPECT_EQ(m.access(4, 0, false), m.config().lat_remote);
  EXPECT_EQ(m.stats(0).l1_hits, 1);
  EXPECT_EQ(m.stats(0).local_fills, 1);
  EXPECT_EQ(m.stats(4).remote_fills, 1);
}

TEST(Machine, DirtyRemoteFill) {
  Machine m(small_dash(8));
  m.home_page(0, 0);
  m.access(0, 0, true);  // proc 0 dirties the line
  EXPECT_EQ(m.access(4, 0, false), m.config().lat_remote_dirty);
}

TEST(Machine, WriteInvalidatesSharers) {
  Machine m(small_dash(8));
  m.home_page(0, 0);
  m.access(0, 0, false);
  m.access(1, 0, false);  // both share the line
  EXPECT_EQ(m.access(1, 0, false), m.config().lat_l1);
  m.access(0, 0, true);  // upgrade: invalidates proc 1
  EXPECT_EQ(m.stats(0).upgrades, 1);
  // Proc 1 must now miss, classified as coherence (same word: true).
  m.access(1, 0, false);
  EXPECT_EQ(m.stats(1).coherence_true, 1);
}

TEST(Machine, FalseSharingClassified) {
  Machine m(small_dash(8));
  m.home_page(0, 0);
  // Proc 1 reads word 0; proc 0 writes word 3 of the same 16B line.
  m.access(1, 0, false);
  m.access(0, 12, true);
  m.access(1, 0, false);  // miss caused by a write to a DIFFERENT word
  EXPECT_EQ(m.stats(1).coherence_false, 1);
  EXPECT_EQ(m.stats(1).coherence_true, 0);
}

TEST(Machine, ConflictMissesInDirectMappedCache) {
  // Two addresses 64KB apart map to the same L1 set and 256KB apart to the
  // same L2 set; alternating them defeats both direct-mapped levels.
  Machine m(small_dash(4));
  const Int a = 0;
  const Int b = 256 * 1024;  // same set in L1 (64K) and L2 (256K)
  m.home_page(a, 0);
  m.home_page(b, 0);
  m.access(0, a, false);
  m.access(0, b, false);
  m.access(0, a, false);
  m.access(0, b, false);
  EXPECT_EQ(m.stats(0).replace_misses, 2);
  EXPECT_EQ(m.stats(0).l1_hits + m.stats(0).l2_hits, 0);
}

TEST(Machine, L2BacksUpL1) {
  // Addresses 64KB apart conflict in L1 but not in L2 (256KB).
  Machine m(small_dash(4));
  const Int a = 0, b = 64 * 1024;
  m.home_page(a, 0);
  m.home_page(b, 0);
  m.access(0, a, false);
  m.access(0, b, false);  // evicts a from L1, both in L2
  EXPECT_EQ(m.access(0, a, false), m.config().lat_l2);
  EXPECT_EQ(m.stats(0).l2_hits, 1);
}

TEST(Machine, FirstTouchRoundRobin) {
  Machine m(small_dash(32));
  // Unhomed pages spread across the 8 clusters; accesses from proc 0 hit
  // local memory only 1/8 of the time.
  int local = 0;
  for (int pg = 0; pg < 16; ++pg) {
    const double lat = m.access(0, static_cast<Int>(pg) * 4096, false);
    if (lat == m.config().lat_local) ++local;
  }
  EXPECT_EQ(local, 2);  // 16 pages / 8 clusters
}

TEST(Machine, BarrierCostGrowsWithProcs) {
  Machine m(small_dash(32));
  EXPECT_GT(m.barrier_cost(32), m.barrier_cost(4));
}

TEST(Machine, StatsAggregation) {
  Machine m(small_dash(4));
  m.access(0, 0, false);
  m.access(1, 64, true);
  const ProcStats total = m.total_stats();
  EXPECT_EQ(total.accesses, 2);
  EXPECT_FALSE(total.to_string().empty());
}

TEST(Machine, RejectsBadConfig) {
  // One case per rule: too many processors for the sharer masks, and
  // every configuration the shift/mask address split cannot represent.
  const auto with = [](void (*edit)(MachineConfig&)) {
    MachineConfig cfg = MachineConfig::dash(8);
    edit(cfg);
    return cfg;
  };
  const std::pair<const char*, MachineConfig> bad[] = {
      {"128 procs", MachineConfig::dash(128)},
      {"L2 lines differ",
       with([](MachineConfig& c) { c.l2.line_bytes = 32; })},
      {"line not 2^k", with([](MachineConfig& c) {
         c.l1.line_bytes = 24;
         c.l2.line_bytes = 24;
       })},
      {"L1 sets not 2^k",
       with([](MachineConfig& c) { c.l1.size_bytes = 48 * 1024; })},
      {"L2 sets not 2^k",
       with([](MachineConfig& c) { c.l2.size_bytes = 192 * 1024; })},
      {"page not 2^k", with([](MachineConfig& c) { c.page_bytes = 3000; })},
      {"page < line", with([](MachineConfig& c) { c.page_bytes = 8; })},
      {"line > 1024 B", with([](MachineConfig& c) {
         c.l1.line_bytes = 2048;
         c.l2.line_bytes = 2048;
       })},
  };
  for (const auto& [what, cfg] : bad) {
    try {
      Machine m(cfg);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Error::Code::kUnsupportedConfig) << what;
    }
  }
  // The repo's non-DASH configuration (examples/custom_machine.cpp).
  EXPECT_NO_THROW(Machine m(with([](MachineConfig& c) {
    c.l1.line_bytes = 64;
    c.l2.line_bytes = 64;
  })));
}


TEST(Machine, StatsAccountingInvariant) {
  // Property: every access is exactly one of {l1 hit, l2 hit, fill}, and
  // every miss is classified exactly once.
  Machine m(small_dash(8));
  std::uint64_t seed = 7;
  auto next = [&]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    const int proc = static_cast<int>(next() % 8);
    const Int addr = static_cast<Int>(next() % (1 << 20)) & ~3ll;
    m.access(proc, addr, next() % 3 == 0);
  }
  const ProcStats t = m.total_stats();
  const long long fills =
      t.local_fills + t.remote_fills + t.remote_dirty_fills;
  EXPECT_EQ(t.accesses, t.l1_hits + t.l2_hits + fills);
  EXPECT_EQ(fills, t.cold_misses + t.replace_misses + t.coherence_true +
                       t.coherence_false);
  EXPECT_GT(t.memory_cycles, 0.0);
}

TEST(Machine, BackToBackAccessAlwaysHits) {
  // Property: immediately repeating an access from the same processor is
  // always an L1 hit (nothing can intervene).
  Machine m(small_dash(8));
  std::uint64_t seed = 9;
  auto next = [&]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  for (int i = 0; i < 2000; ++i) {
    const int proc = static_cast<int>(next() % 8);
    const Int addr = static_cast<Int>(next() % (1 << 18)) & ~3ll;
    m.access(proc, addr, false);
    EXPECT_EQ(m.access(proc, addr, false), m.config().lat_l1);
  }
}

// A seeded stream of mixed reads and writes: a hot shared region
// (coherence traffic), per-processor regions that conflict in both cache
// levels (replacement), sequential runs, and a wide region up to 8 MB
// (cold misses on lines and pages far past any initial table size).
ProcStats run_seeded_stream(int procs, bool fast_directory) {
  Machine m(MachineConfig::dash(procs), fast_directory);
  m.home_page(0, 1);
  m.home_page(0, 0);  // ignored: the first assignment wins
  m.home_page(3 * 4096, procs / 4 - 1);
  m.home_page(6 << 20, 1);
  std::uint64_t seed =
      0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(procs);
  auto next = [&]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<Int>(seed >> 33);
  };
  std::vector<Int> cursor(static_cast<size_t>(procs));
  for (int q = 0; q < procs; ++q)
    cursor[static_cast<size_t>(q)] = static_cast<Int>(q) * (256 << 10);
  for (int i = 0; i < 120000; ++i) {
    const int proc = static_cast<int>(next() % procs);
    Int addr = 0;
    switch (next() % 4) {
      case 0: addr = next() % (16 << 10); break;
      case 1: addr = proc * (64 << 10) + next() % (512 << 10); break;
      case 2: addr = cursor[static_cast<size_t>(proc)] += 4; break;
      default: addr = next() % (8 << 20); break;
    }
    m.access(proc, addr & ~Int{3}, next() % 3 == 0);
  }
  return m.total_stats();
}

TEST(Machine, SeededStreamStatsArePinned) {
  // The fast engine and the interpreter share Machine, so differential
  // checks cannot see a change in the machine itself; these totals pin
  // it exactly. They include the directory's view of evictions: no cache
  // level notifies it, so a line that leaves both levels stays in the
  // directory as a sharer or dirty owner.
  //
  // Captured from the hashed-directory model this one replaced. Fields
  // in ProcStats order; dir_fast_hits is the fast_directory=true count.
  struct Pinned {
    int procs;
    ProcStats want;
  };
  const Pinned pinned[] = {
      {8, {120000, 30885, 1289, 37403, 36861, 13562, 3094, 56264, 16507,
           3733, 11322, 25139, 6921331}},
      {32, {120000, 25185, 156, 10332, 72429, 11898, 996, 62056, 24431,
            2084, 6088, 20751, 9224949}},
  };
  for (const Pinned& p : pinned)
    for (const bool fast : {true, false}) {
      const ProcStats got = run_seeded_stream(p.procs, fast);
      SCOPED_TRACE(testing::Message() << "procs=" << p.procs
                                      << " fast_directory=" << fast);
      EXPECT_EQ(got.accesses, p.want.accesses);
      EXPECT_EQ(got.l1_hits, p.want.l1_hits);
      EXPECT_EQ(got.l2_hits, p.want.l2_hits);
      EXPECT_EQ(got.local_fills, p.want.local_fills);
      EXPECT_EQ(got.remote_fills, p.want.remote_fills);
      EXPECT_EQ(got.remote_dirty_fills, p.want.remote_dirty_fills);
      EXPECT_EQ(got.upgrades, p.want.upgrades);
      EXPECT_EQ(got.cold_misses, p.want.cold_misses);
      EXPECT_EQ(got.replace_misses, p.want.replace_misses);
      EXPECT_EQ(got.coherence_true, p.want.coherence_true);
      EXPECT_EQ(got.coherence_false, p.want.coherence_false);
      EXPECT_EQ(got.memory_cycles, p.want.memory_cycles);
      EXPECT_EQ(got.dir_fast_hits, fast ? p.want.dir_fast_hits : 0);
    }
}

TEST(Machine, RejectsLinesBeyondSlotRange) {
  // A cache slot names its line in 30 bits, and the all-ones line marks an
  // empty slot. Only the rejected side is tested: an address just below
  // the limit would grow the directory to gigabytes.
  for (const bool fast : {true, false}) {
    Machine m(small_dash(8), fast);
    const std::size_t empty = m.state_bytes();
    for (const Int line : {Machine::kMaxLines, Machine::kMaxLines + 1,
                           Int{1} << 31, Int{1} << 40})
      for (const bool write : {false, true}) {
        try {
          m.access(0, line * 16, write);
          ADD_FAILURE() << "accepted line " << line << " fast=" << fast;
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), Error::Code::kUnsupportedConfig) << line;
        }
      }
    // Rejected before anything grew or was counted.
    EXPECT_EQ(m.state_bytes(), empty);
    EXPECT_EQ(m.total_stats().accesses, 0);
    m.access(0, 0, false);
    EXPECT_EQ(m.total_stats().cold_misses, 1);
  }
}

TEST(Machine, ReadSharingIsFree) {
  // Many readers of one line do not invalidate each other.
  Machine m(small_dash(32));
  m.home_page(0, 0);
  for (int p = 0; p < 32; ++p) m.access(p, 0, false);
  for (int p = 0; p < 32; ++p)
    EXPECT_EQ(m.access(p, 0, false), m.config().lat_l1);
}

}  // namespace
}  // namespace dct::machine
