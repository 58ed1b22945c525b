// Ablation bench for the design choices DESIGN.md calls out:
//
//  (a) barrier elimination [Tseng 95] — vpenta's gain from replacing
//      barriers between aligned doall nests;
//  (b) folding-function choice — LU with the paper's CYCLIC columns vs a
//      naive BLOCK folding of the same decomposition (load imbalance on
//      the triangular iteration space);
//  (c) the Section 4.3 address strategies end-to-end — the same
//      transformed LU under naive / hoisted / optimized subscripts.
#include "apps/apps.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace dct;
  runtime::ExecOptions eopts;
  eopts.collect_values = false;
  const long s = repro_scale();

  // --- (a) barrier elimination ---
  {
    const ir::Program prog = apps::vpenta(96 * s);
    const double seq =
        runtime::simulate(core::compile(prog, core::Mode::Base, 1),
                          machine::MachineConfig::dash(1), eopts)
            .cycles;
    decomp::ProgramDecomposition with = decomp::decompose(prog);
    decomp::ProgramDecomposition without = with;
    for (auto& nd : without.nests) nd.barrier_after = true;
    const double t_with =
        runtime::simulate(core::compile_with_decomposition(
                              prog, with, core::Mode::Full, 32),
                          machine::MachineConfig::dash(32), eopts)
            .cycles;
    const double t_without =
        runtime::simulate(core::compile_with_decomposition(
                              prog, without, core::Mode::Full, 32),
                          machine::MachineConfig::dash(32), eopts)
            .cycles;
    Table t({"vpenta (P=32)", "speedup"});
    t.add_row({"barriers eliminated", strf("%.2f", seq / t_with)});
    t.add_row({"barrier after every nest", strf("%.2f", seq / t_without)});
    std::cout << "(a) synchronization optimization:\n" << t.to_string();
    bench::check(t_with <= t_without,
                 "eliminating redundant barriers never hurts");
  }

  // --- (b) CYCLIC vs BLOCK folding for LU ---
  {
    const ir::Program prog = apps::lu(192 * s);
    const double seq =
        runtime::simulate(core::compile(prog, core::Mode::Base, 1),
                          machine::MachineConfig::dash(1), eopts)
            .cycles;
    decomp::ProgramDecomposition cyc = decomp::decompose(prog);
    decomp::ProgramDecomposition blk = cyc;
    for (auto& ad : blk.arrays)
      for (auto& d : ad.dims)
        if (d.kind == decomp::DistKind::Cyclic) d.kind = decomp::DistKind::Block;
    Table t({"LU folding (P=32)", "speedup"});
    double sp_cyc = 0, sp_blk = 0;
    {
      const auto r = runtime::simulate(
          core::compile_with_decomposition(prog, cyc, core::Mode::Full, 32),
          machine::MachineConfig::dash(32), eopts);
      sp_cyc = seq / r.cycles;
    }
    {
      const auto r = runtime::simulate(
          core::compile_with_decomposition(prog, blk, core::Mode::Full, 32),
          machine::MachineConfig::dash(32), eopts);
      sp_blk = seq / r.cycles;
    }
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
    bench::check(sp_cyc > 0 && sp_blk > 0,
                 strf("both foldings execute correctly (%.1f vs %.1f)",
                      sp_cyc, sp_blk));
  }

  // --- (c) address strategies end-to-end ---
  {
    const ir::Program prog = apps::lu(192 * s);
    const double seq =
        runtime::simulate(core::compile(prog, core::Mode::Base, 1),
                          machine::MachineConfig::dash(1), eopts)
            .cycles;
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
    bench::check(sp[2] > sp[0],
                 strf("without the optimizations the mod/div overhead eats "
                      "the layout win (%.1f -> %.1f)",
                      sp[0], sp[2]));
  }
  return 0;
}
