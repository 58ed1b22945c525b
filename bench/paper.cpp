// The paper's evaluation (Section 6) in one driver: Figures 4, 6, 8 and
// 10-13, Table 1, the DASH machine model, the Section 4.3 address
// micro-benchmark and the design ablations.
//
//   paper [--scale N] [SECTION ...]
//
// Each section prints its figure or table and then its paper-shape checks,
// one "[ ok ]" or "[FAIL]" line each. With no section named, every section
// runs in the order of kSections. --scale N (a whole number >= 1, default
// 1) multiplies the problem sizes toward the paper's datasets (4 reaches
// most of them). A section fails when a check does not hold, when a sweep
// it runs records a cell failure, or when it throws a dct::Error. The
// exit status is 0 when every section passed, 1 when one failed, and 2 on
// a bad command line.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/experiment.hpp"
#include "layout/layout.hpp"
#include "machine/machine.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

using namespace dct;

/// One section's run: the workload scale, and whether everything held.
struct Run {
  long scale = 1;
  bool ok = true;

  /// Print a shape expectation and whether the measured data satisfies it.
  void check(bool holds, const std::string& what) {
    std::cout << "  [" << (holds ? " ok " : "FAIL") << "] " << what << "\n";
    ok = ok && holds;
  }

  /// core::run_sweep; any failed or skipped cell fails the
  /// section (render_sweep prints the failure table).
  core::SweepResult sweep(const ir::Program& prog,
                          const core::SweepOptions& opts = {}) {
    core::SweepResult r = core::run_sweep(prog, opts);
    ok = ok && r.failures.empty();
    return r;
  }
};

/// Speedup of mode m at the largest processor count.
double at_max(const core::SweepResult& r, size_t m) {
  return r.speedups[m].back();
}

// Figure 4: Vpenta speedups.
//
// Paper shape: the base compiler gets only a slight speedup; computation
// decomposition helps a little more (barriers between the aligned loops
// are eliminated); the big jump comes from restructuring the 3-D array so
// each processor's share of every plane is contiguous (F(*,BLOCK,*)).
void fig4(Run& run) {
  const linalg::Int n = 128 * run.scale;
  const auto r = run.sweep(apps::vpenta(n));
  std::cout << core::render_sweep(
      strf("Figure 4: Vpenta speedups (n=%ld)", static_cast<long>(n)), r);
  const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
  run.check(cd >= base * 0.95,
            strf("comp decomp (%.1f) >= base (%.1f): barrier elimination",
                 cd, base));
  run.check(full > 1.1 * cd,
            strf("data transform is the final win: %.1f vs %.1f", full, cd));
}

// Figure 6: LU decomposition speedups at two dataset sizes.
//
// Paper shape: BASE saturates early (barrier per outer iteration, varying
// parallel-loop extent); COMP DECOMP (cyclic columns, original layout) is
// highly erratic at power-of-two processor counts — at 32 processors all
// of a processor's columns collide in the direct-mapped cache, and P=31
// is far faster than P=32; the DATA TRANSFORM makes each processor's
// cyclic columns contiguous and the curve stabilizes high, with
// superlinear stretches once the working set fits close to the processor.
void fig6(Run& run) {
  core::SweepOptions opts;
  opts.procs = {1, 2, 4, 8, 16, 24, 31, 32};

  // Paper sizes 256x256 and 1024x1024; default reproduces the smaller and
  // a half-size companion (--scale 4 reaches 1K).
  for (const linalg::Int n : {128 * run.scale, 256 * run.scale}) {
    const auto r = run.sweep(apps::lu(n), opts);
    std::cout << core::render_sweep(
        strf("Figure 6: LU Decomposition speedups (%ldx%ld)",
             static_cast<long>(n), static_cast<long>(n)),
        r);
    if (n % 256 == 0) {
      // The power-of-two pathology needs columns that alias in the 64KB
      // direct-mapped cache.
      const double cd31 = r.speedups[1][6], cd32 = r.speedups[1][7];
      const double full32 = r.speedups[2][7];
      run.check(cd31 > 1.5 * cd32,
                strf("comp-decomp P=31 (%.1f) >> P=32 (%.1f): conflict "
                     "misses on power-of-2",
                     cd31, cd32));
      run.check(full32 > 1.5 * cd32,
                strf("data transform rescues P=32: %.1f vs %.1f", full32,
                     cd32));
      run.check(full32 > at_max(r, 0),
                "fully optimized beats base at 32 procs");
    }
    std::cout << "\n";
  }
}

// Figure 8: five-point stencil speedups.
//
// Paper shape: BASE (block columns) is decent; COMP DECOMP alone assigns
// two-dimensional blocks whose data is non-contiguous in the column-major
// layout and is WORSE than base; after the data transformation the 2-D
// blocks are contiguous and the program reaches near-linear speedup
// (paper: 29 on 32 processors at 512x512).
void fig8(Run& run) {
  const linalg::Int n = 256 * run.scale;  // paper: 512
  const auto r = run.sweep(apps::stencil5(n, 4));
  std::cout << core::render_sweep(
      strf("Figure 8: Five-Point Stencil speedups (%ldx%ld)",
           static_cast<long>(n), static_cast<long>(n)),
      r);
  const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
  run.check(cd <= base * 1.05,
            strf("comp decomp alone (%.1f) does not beat base (%.1f): "
                 "non-contiguous 2-D blocks",
                 cd, base));
  run.check(full > 1.5 * base,
            strf("full optimization (%.1f) >> base (%.1f)", full, base));
}

// Figure 10: ADI integration speedups at two dataset sizes.
//
// Paper shape: BASE parallelizes each phase separately (column sweeps,
// then row sweeps), so every processor touches different data in the two
// phases and performance is poor. The global decomposition keeps a static
// column-block distribution (doall first phase, doall/pipeline second) —
// a large win. Each processor's columns are already contiguous, so the
// data transformation has nothing to add (the A(*,BLOCK) layout is the
// identity: the Section 4.2 local optimization).
void fig10(Run& run) {
  for (const linalg::Int n : {128 * run.scale, 256 * run.scale}) {
    // paper: 256, 1K
    const auto r = run.sweep(apps::adi(n, 4));
    std::cout << core::render_sweep(
        strf("Figure 10: ADI Integration speedups (%ldx%ld)",
             static_cast<long>(n), static_cast<long>(n)),
        r);
    const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
    run.check(cd > 1.5 * base,
              strf("comp decomp (%.1f) >> base (%.1f)", cd, base));
    run.check(std::abs(full - cd) < 0.15 * cd,
              strf("data transform adds nothing (%.1f vs %.1f): layout "
                   "already contiguous",
                   full, cd));
    std::cout << "\n";
  }
}

// Figure 11: Erlebacher speedups.
//
// Paper shape: two-thirds of the program (X and Y derivative phases) is
// perfectly parallel with local accesses under any scheme, so gains are
// modest; the computation decomposition removes the non-local accesses of
// the Z phases, and the data transformation makes DUZ's block-of-rows
// contiguous (DUZ(*,BLOCK,*)) for a further improvement.
void fig11(Run& run) {
  const linalg::Int n = 48 * run.scale;  // paper: 64^3
  const auto r = run.sweep(apps::erlebacher(n, 2));
  std::cout << core::render_sweep(
      strf("Figure 11: Erlebacher speedups (%ld^3)", static_cast<long>(n)),
      r);
  const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
  run.check(cd >= base, strf("comp decomp (%.1f) >= base (%.1f)", cd, base));
  run.check(full >= cd,
            strf("data transform adds a modest improvement (%.1f vs %.1f)",
                 full, cd));
  run.check(full < 32,
            "improvement is modest: two-thirds of the program is already "
            "parallel with local accesses");
}

// Figure 12: Swm256 speedups.
//
// Paper shape: the program is highly data-parallel and the base compiler
// already achieves good speedups; the decomposition phase switches to
// two-dimensional blocks (better communication-to-computation ratio)
// which hurts until the data transformation makes the blocks contiguous,
// ending slightly better than base.
void fig12(Run& run) {
  const linalg::Int n = 128 * run.scale;  // paper: 256
  const auto r = run.sweep(apps::swm256(n, 4));
  std::cout << core::render_sweep(
      strf("Figure 12: Swm256 speedups (%ldx%ld)", static_cast<long>(n),
           static_cast<long>(n)),
      r);
  const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
  run.check(base > 4, strf("base already scales (%.1f)", base));
  run.check(cd <= base * 1.1,
            strf("comp decomp alone (%.1f) loses contiguity vs base (%.1f)",
                 cd, base));
  run.check(full >= base * 0.9,
            strf("full optimization regains it (%.1f vs base %.1f)", full,
                 base));
}

// Figure 13: Tomcatv speedups.
//
// Paper shape: the base compiler parallelizes each nest's outermost
// parallel loop, so processors touch column blocks in some nests and row
// blocks in the row-dependent nests — little reuse, maximum speedup ~5.
// The global decomposition keeps a single row-block mapping (good
// temporal locality but rows are non-contiguous column-major), and the
// data transformation makes each processor's rows contiguous: the paper
// reaches 18 on 32 processors (base 4.9).
void fig13(Run& run) {
  // Paper-scale size (SPEC tomcatv is 257x257): at small sizes the
  // decomposition legitimately prefers 2-D blocks; the paper's row blocks
  // emerge at realistic surface-to-volume ratios.
  const linalg::Int n = 256 * run.scale;
  const auto r = run.sweep(apps::tomcatv(n, 2));
  std::cout << core::render_sweep(
      strf("Figure 13: Tomcatv speedups (%ldx%ld)", static_cast<long>(n),
           static_cast<long>(n)),
      r);
  const double base = at_max(r, 0), cd = at_max(r, 1), full = at_max(r, 2);
  run.check(full > 1.5 * base,
            strf("fully optimized (%.1f) >> base (%.1f)", full, base));
  run.check(full > cd,
            strf("data transform needed on top of comp decomp (%.1f vs "
                 "%.1f): rows are not contiguous",
                 full, cd));
}

// Table 1: summary of experimental results — speedups on 32 processors
// with the base compiler vs all optimizations, which technique is
// critical, and the data decompositions found for the major arrays.
// table1_row throws when a cell of its sweep failed.
void table1(Run& run) {
  const long s = run.scale;
  std::vector<core::Table1Row> rows;
  rows.push_back(core::table1_row("vpenta", apps::vpenta(96 * s)));
  rows.push_back(core::table1_row("LU", apps::lu(256 * s)));
  rows.push_back(core::table1_row("stencil", apps::stencil5(256 * s, 4)));
  rows.push_back(core::table1_row("ADI", apps::adi(128 * s, 4)));
  rows.push_back(core::table1_row("erlebacher", apps::erlebacher(48 * s, 2)));
  rows.push_back(core::table1_row("swm256", apps::swm256(128 * s, 4)));
  // tomcatv needs a paper-scale size: at 128 the surface-to-volume ratio
  // genuinely favours a 2-D decomposition over the paper's row blocks.
  rows.push_back(core::table1_row("tomcatv", apps::tomcatv(256 * s, 2)));

  std::cout << "Table 1: Summary of Experimental Results (speedups on 32 "
               "processors)\n\n"
            << core::render_table1(rows) << "\n";

  // Paper-shape checks.
  for (const auto& r : rows)
    run.check(r.full_speedup >= r.base_speedup * 0.9,
              r.program + ": fully optimized >= base");
  run.check(rows[1].decompositions.find("CYCLIC") != std::string::npos,
            "LU: A(*, CYCLIC)");
  run.check(rows[2].decompositions.find("BLOCK, BLOCK") != std::string::npos,
            "stencil: A(BLOCK, BLOCK)");
  run.check(rows[6].decompositions.find("(BLOCK, *)") != std::string::npos,
            "tomcatv: AA(BLOCK, *)");
}

// Machine-model sanity (Section 6.1): the simulated DASH must show the
// 1 : 10 : 30 : 100-130 latency ratios between L1, L2, local and remote
// memory, plus an ablation of the figure-1 example demonstrating how each
// optimization changes the miss mix.
void machine_model(Run& run) {
  machine::MachineConfig cfg = machine::MachineConfig::dash(32);
  machine::Machine m(cfg);
  m.home_page(0, 0);

  Table t({"level", "measured cycles", "paper ratio"});
  m.access(0, 0, false);  // warm
  t.add_row({"L1 cache", strf("%.0f", m.access(0, 0, false)), "1"});
  // Evict from L1 only: touch a conflicting line.
  m.home_page(64 * 1024, 0);
  m.access(0, 64 * 1024, false);
  t.add_row({"L2 cache", strf("%.0f", m.access(0, 0, false)), "10"});
  m.home_page(512 * 1024, 0);
  t.add_row({"local memory", strf("%.0f", m.access(0, 512 * 1024, false)),
             "30"});
  m.home_page(1024 * 1024, 7);
  t.add_row({"remote memory", strf("%.0f", m.access(0, 1024 * 1024, false)),
             "100-130"});
  m.access(5, 2 * 1024 * 1024, true);
  m.home_page(2 * 1024 * 1024, 0);
  t.add_row({"remote dirty", strf("%.0f", m.access(0, 2 * 1024 * 1024, false)),
             "100-130"});
  std::cout << "DASH latency hierarchy (Section 6.1):\n" << t.to_string()
            << "\n";

  // Ablation: miss mix of the Figure 1 example under each configuration.
  const ir::Program prog = apps::figure1(128 * run.scale, 4);
  Table mix({"configuration", "l1 hit %", "false sharing", "true sharing",
             "remote fills", "speedup (P=32)"});
  runtime::ExecOptions opts;
  opts.collect_values = false;
  const double seq =
      runtime::simulate(core::compile(prog, core::Mode::Base, 1),
                        machine::MachineConfig::dash(1), opts)
          .cycles;
  for (core::Mode mode :
       {core::Mode::Base, core::Mode::CompDecomp, core::Mode::Full}) {
    const auto r = runtime::simulate(core::compile(prog, mode, 32),
                                     machine::MachineConfig::dash(32), opts);
    mix.add_row({core::to_string(mode),
                 strf("%.1f", 100.0 * static_cast<double>(r.mem.l1_hits) /
                                  static_cast<double>(r.mem.accesses)),
                 strf("%lld", r.mem.coherence_false),
                 strf("%lld", r.mem.coherence_true),
                 strf("%lld", r.mem.remote_fills),
                 strf("%.2f", seq / r.cycles)});
  }
  std::cout << "Figure 1 example: miss mix ablation\n" << mix.to_string();
}

// Section 4.3 micro-benchmark: the address-calculation optimizations for
// transformed arrays, timed natively. The transformed subscript of a
// (CYCLIC, *) column distribution is
//     A(i mod b, j, i div b)
// computed three ways:
//   Naive      — integer mod and div on every access;
//   Hoisted    — div/mod recomputed only when the driving index changes
//                (here the index changes every iteration, so this matches
//                naive — included to show when hoisting does not help);
//   Optimized  — the paper's strength reduction: maintain (imod, idiv)
//                with an increment and a compare.
// The analytic cost-model overheads used by the simulator print first.
//
// Expected outcome on MODERN hardware: the affine-mod pair (the paper's
// DO-20 example) still shows the optimization winning clearly, but the
// simple subscript case is nearly a wash — today's compilers strength-
// reduce division by a constant into a multiply, something the 1995
// MIPS R3000 tool chain (35-cycle divide) could not do. Timings are
// host-dependent, so this section checks nothing.
constexpr long kN = 1 << 14;
constexpr long kB = 13;  // non-power-of-2: a real divide, as on the R3000
// (with a power-of-2 strip size a modern compiler reduces mod/div to bit
// ops and the naive form is already cheap — the paper's MIPS R3000 had a
// ~35-cycle divide with no such escape hatch)
constexpr int kReps = 200;

volatile double g_sink;  // keeps each kernel's sum alive
volatile long g_c = 3;   // the DO 20 offset, opaque so no loop folds away

/// Best-of-kReps wall time of one kernel call, in ns per element.
template <class Kernel>
double best_ns_per_element(Kernel kernel) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    g_sink = kernel();
    const std::chrono::duration<double, std::nano> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best / kN;
}

void addrcalc(Run&) {
  ir::ArrayDecl decl{"A", {kN}, 4, true};
  decomp::ArrayDecomposition ad;
  ad.dims = {decomp::DimDistribution{decomp::DistKind::Cyclic, 0, 0}};
  const int grid[] = {static_cast<int>(kB)};
  const layout::Layout l = layout::derive_layout(decl, ad, grid);
  ir::LoopNest nest;
  nest.loops.push_back(ir::loop("i", ir::cst(0), ir::cst(kN - 1)));
  const ir::ArrayRef ref = ir::simple_ref(0, 1, {{0, 0}});
  std::printf("cost model overhead (cycles/access): naive=%.1f hoisted=%.1f "
              "optimized=%.2f\n",
              layout::address_overhead(nest, ref, l,
                                       layout::AddrStrategy::Naive),
              layout::address_overhead(nest, ref, l,
                                       layout::AddrStrategy::Hoisted),
              layout::address_overhead(nest, ref, l,
                                       layout::AddrStrategy::Optimized));

  const std::vector<float> a(kN * 2, 1.0f);
  Table t({"kernel", "ns/element"});
  const auto row = [&](const char* name, auto kernel) {
    t.add_row({name, strf("%.3f", best_ns_per_element(kernel))});
  };
  row("naive mod/div", [&] {
    float sum = 0;
    for (long i = 0; i < kN; ++i)
      sum += a[static_cast<size_t>((i % kB) + kB * (i / kB))];
    return sum;
  });
  row("hoisted", [&] {
    float sum = 0;
    // Outer loop over strips: div hoisted, mod linearized inside.
    for (long strip = 0; strip < kN / kB; ++strip) {
      const long base = kB * strip;
      for (long m = 0; m < kB; ++m) sum += a[static_cast<size_t>(base + m)];
    }
    return sum;
  });
  row("strength reduced", [&] {
    float sum = 0;
    long imod = 0, idiv = 0;  // the paper's optimized code shape
    for (long i = 0; i < kN; ++i) {
      sum += a[static_cast<size_t>(imod + kB * idiv)];
      if (++imod >= kB) {
        imod = 0;
        ++idiv;
      }
    }
    return sum;
  });
  // The paper's DO 20 example: x = mod(4*J+c, 64), with and without the
  // mod in the loop.
  row("affine mod, naive", [] {
    const long c = g_c;
    long total = 0;
    for (long j = 0; j < kN; ++j)
      total += (4 * j + c) % 64 + (4 * j + c) / 64;
    return static_cast<double>(total);
  });
  row("affine mod, strength reduced", [] {
    const long c = g_c;
    long total = 0;
    long x = c % 64, y = c / 64;
    for (long j = 0; j < kN; ++j) {
      total += x + y;
      x += 4;
      if (x >= 64) {
        x -= 64;
        ++y;
      }
    }
    return static_cast<double>(total);
  });
  std::cout << strf("native timing (best of %d runs over %ld elements):\n",
                    kReps, kN)
            << t.to_string();
}

// Ablations for the design choices DESIGN.md calls out:
//
//  (a) barrier elimination [Tseng 95] — vpenta's gain from replacing
//      barriers between aligned doall nests;
//  (b) folding-function choice — LU with the paper's CYCLIC columns vs a
//      naive BLOCK folding of the same decomposition (load imbalance on
//      the triangular iteration space);
//  (c) the Section 4.3 address strategies end-to-end — the same
//      transformed LU under naive / hoisted / optimized subscripts.
void ablation(Run& run) {
  runtime::ExecOptions eopts;
  eopts.collect_values = false;
  const long s = run.scale;
  const auto seq_cycles = [&](const ir::Program& prog) {
    return runtime::simulate(core::compile(prog, core::Mode::Base, 1),
                             machine::MachineConfig::dash(1), eopts)
        .cycles;
  };
  const auto full_cycles = [&](const ir::Program& prog,
                               const decomp::ProgramDecomposition& dec) {
    return runtime::simulate(
               core::compile_with_decomposition(prog, dec, core::Mode::Full,
                                                32),
               machine::MachineConfig::dash(32), eopts)
        .cycles;
  };

  // --- (a) barrier elimination ---
  {
    const ir::Program prog = apps::vpenta(96 * s);
    const double seq = seq_cycles(prog);
    decomp::ProgramDecomposition with = decomp::decompose(prog);
    decomp::ProgramDecomposition without = with;
    for (auto& nd : without.nests) nd.barrier_after = true;
    const double t_with = full_cycles(prog, with);
    const double t_without = full_cycles(prog, without);
    Table t({"vpenta (P=32)", "speedup"});
    t.add_row({"barriers eliminated", strf("%.2f", seq / t_with)});
    t.add_row({"barrier after every nest", strf("%.2f", seq / t_without)});
    std::cout << "(a) synchronization optimization:\n" << t.to_string();
    run.check(t_with <= t_without,
              "eliminating redundant barriers never hurts");
  }

  // --- (b) CYCLIC vs BLOCK folding for LU ---
  {
    const ir::Program prog = apps::lu(192 * s);
    const double seq = seq_cycles(prog);
    decomp::ProgramDecomposition cyc = decomp::decompose(prog);
    decomp::ProgramDecomposition blk = cyc;
    for (auto& ad : blk.arrays)
      for (auto& d : ad.dims)
        if (d.kind == decomp::DistKind::Cyclic) d.kind = decomp::DistKind::Block;
    const double sp_cyc = seq / full_cycles(prog, cyc);
    const double sp_blk = seq / full_cycles(prog, blk);
    Table t({"LU folding (P=32)", "speedup"});
    t.add_row({"CYCLIC columns (paper)", strf("%.2f", sp_cyc)});
    t.add_row({"BLOCK columns (naive)", strf("%.2f", sp_blk)});
    std::cout << "\n(b) folding-function choice:\n" << t.to_string();
    std::cout << "  note: CYCLIC trades the BLOCK folding's load imbalance\n"
              << "  (the last processor owns only trailing columns, ~3x the\n"
              << "  average work) for a pivot-production pipeline bubble\n"
              << "  every column. The paper's DASH code hid that bubble with\n"
              << "  locks and early pivot release; our in-order executor\n"
              << "  exposes it, so which folding wins depends on the\n"
              << "  problem size — both effects are visible above.\n";
    run.check(sp_cyc > 0 && sp_blk > 0,
              strf("both foldings execute correctly (%.1f vs %.1f)", sp_cyc,
                   sp_blk));
  }

  // --- (c) address strategies end-to-end ---
  {
    const ir::Program prog = apps::lu(192 * s);
    const double seq = seq_cycles(prog);
    Table t({"LU subscript strategy (P=32)", "speedup"});
    double sp[3];
    int i = 0;
    for (auto strat :
         {layout::AddrStrategy::Naive, layout::AddrStrategy::Hoisted,
          layout::AddrStrategy::Optimized}) {
      const auto r = runtime::simulate(
          core::compile(prog, core::Mode::Full, 32, {.strategy = strat}),
          machine::MachineConfig::dash(32), eopts);
      sp[i++] = seq / r.cycles;
    }
    t.add_row({"naive mod/div", strf("%.2f", sp[0])});
    t.add_row({"hoisted", strf("%.2f", sp[1])});
    t.add_row({"strength reduced (paper)", strf("%.2f", sp[2])});
    std::cout << "\n(c) Section 4.3 address optimizations:\n" << t.to_string();
    run.check(sp[2] > sp[0],
              strf("without the optimizations the mod/div overhead eats "
                   "the layout win (%.1f -> %.1f)",
                   sp[0], sp[2]));
  }
}

struct Section {
  const char* name;
  void (*run)(Run&);
};

constexpr Section kSections[] = {
    {"fig4", fig4},         {"fig6", fig6},
    {"fig8", fig8},         {"fig10", fig10},
    {"fig11", fig11},       {"fig12", fig12},
    {"fig13", fig13},       {"table1", table1},
    {"machine", machine_model}, {"addrcalc", addrcalc},
    {"ablation", ablation},
};

int usage() {
  std::cerr << "usage: paper [--scale N] [SECTION ...]\n"
               "  N: a whole number >= 1 (default 1)\n"
               "  SECTION:";
  for (const Section& s : kSections) std::cerr << " " << s.name;
  std::cerr << " (default: all)\n";
  return 2;
}

/// A whole decimal number >= 1, or 0 when `text` is anything else.
long parse_scale(const std::string& text) {
  long v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < 1)
    return 0;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  long scale = 1;
  std::vector<const Section*> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") {
      scale = i + 1 < argc ? parse_scale(argv[++i]) : 0;
      if (scale == 0) return usage();
      continue;
    }
    const auto it =
        std::find_if(std::begin(kSections), std::end(kSections),
                     [&](const Section& s) { return arg == s.name; });
    if (it == std::end(kSections)) return usage();
    chosen.push_back(it);
  }
  if (chosen.empty())
    for (const Section& s : kSections) chosen.push_back(&s);

  bool ok = true;
  for (const Section* s : chosen) {
    Run run{scale};
    try {
      s->run(run);
    } catch (const dct::Error& e) {
      std::cout << "  [FAIL] " << s->name << ": " << e.full_message() << "\n";
      run.ok = false;
    }
    ok = ok && run.ok;
  }
  return ok ? 0 : 1;
}
