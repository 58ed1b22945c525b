// The compiler's stages and the drivers that run them.
//
// Each stage of the paper's flow — parallelization (§3.2), global
// computation/data decomposition (§3), folding-function selection,
// barrier elimination [Tseng 95], layout derivation (§4.2), schedule
// lowering and address-strategy costing (§4.3) — is a plain function.
// The stages up to barrier-elim build a core::Analysis (they read neither
// P nor the mode beyond Base versus the global algorithm); the tail from
// layout on builds a CompiledProgram from one. Each stage run gets one
// timed trace record (wall time, remarks, decision counters) from a
// support::PassRecorder, appended to the trace of whoever ran it.
#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "core/compiler.hpp"
#include "dep/dependence.hpp"
#include "machine/machine.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::core {

using decomp::DistKind;
using layout::Layout;
using linalg::ceil_div;

namespace {

Int page_align(Int x, Int page = 4096) { return ceil_div(x, page) * page; }

// ---------------------------------------------------------------------------
// parallelize — unimodular preprocessing per nest (§3.2)
// ---------------------------------------------------------------------------

std::vector<dep::ParallelizedNest> parallelize(const ir::Program& prog,
                                               support::RemarkSink& rs) {
  std::vector<dep::ParallelizedNest> par;
  for (size_t j = 0; j < prog.nests.size(); ++j) {
    support::ScopedSink nest_rs(&rs, static_cast<int>(j), prog.nests[j].name);
    par.push_back(dep::parallelize(prog.nests[j], &nest_rs));
  }
  rs.count("nests", static_cast<long>(prog.nests.size()));
  return par;
}

// The later analysis stages — decompose / decompose-base (alignment +
// global group selection, §3), fold-select (folding-function selection
// per virtual dimension) and barrier-elim (synchronization optimization
// [Tseng 95]) — are the decomp:: functions of the same names, run by
// analyze_halves below.

// ---------------------------------------------------------------------------
// layout — grid folding, per-array layouts/partitions, address space (§4.2)
// ---------------------------------------------------------------------------

/// A decomposition supplied to compile_with_decomposition must describe
/// this program: one entry per nest and per array, and processor
/// dimensions inside its own space. Checked before anything indexes by
/// them.
void check_decomposition(const CompiledProgram& cp) {
  const ir::Program& prog = cp.program();
  const decomp::ProgramDecomposition& dec = cp.dec();
  if (dec.nests.size() != prog.nests.size() ||
      dec.par.size() != prog.nests.size() ||
      dec.arrays.size() != prog.arrays.size())
    throw Error(Error::Code::kInvalidArgument,
                strf("decomposition has %zu nests (%zu parallelized) and "
                     "%zu arrays but %s has %zu nests and %zu arrays",
                     dec.nests.size(), dec.par.size(), dec.arrays.size(),
                     prog.name.c_str(), prog.nests.size(),
                     prog.arrays.size()));
  // dctd's HPF bridge is where an out-of-range dimension comes from, so
  // the message names the directive.
  for (size_t a = 0; a < dec.arrays.size(); ++a)
    for (const decomp::DimDistribution& d : dec.arrays[a].dims)
      if (d.proc_dim >= dec.num_proc_dims)
        throw Error(Error::Code::kUnsupportedConfig,
                    strf("HPF directive for \"%s\" uses processor dim %d "
                         "but the decomposition has %d",
                         prog.arrays[a].name.c_str(), d.proc_dim,
                         dec.num_proc_dims));
}

void lay_out(CompiledProgram& cp, support::RemarkSink& rs) {
  check_decomposition(cp);
  const ir::Program& prog = cp.program();
  const decomp::ProgramDecomposition& dec = cp.dec();
  const bool restructure = cp.mode == Mode::Full;
  cp.grid = dec.grid_extents(cp.procs);

  // Mixed-radix strides within co-activity cliques.
  cp.stride.assign(static_cast<size_t>(dec.num_proc_dims), 1);
  for (int pd = 0; pd < dec.num_proc_dims; ++pd)
    for (int q = 0; q < pd; ++q)
      if (dec.clique_id[static_cast<size_t>(q)] ==
          dec.clique_id[static_cast<size_t>(pd)])
        cp.stride[static_cast<size_t>(pd)] *= cp.grid[static_cast<size_t>(q)];

  const Int clusters = ceil_div(cp.procs, machine::kProcsPerCluster);
  Int next_addr = 0;
  cp.arrays.clear();
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    const ir::ArrayDecl& decl = prog.arrays[a];
    support::ScopedSink arr_rs(&rs, -1, {}, static_cast<int>(a), decl.name);
    CompiledArray ca;
    ca.layout = restructure ? layout::derive_layout(decl, dec.arrays[a],
                                                    cp.grid, &arr_rs)
                            : Layout::identity(decl.dims);
    ca.part = layout::make_partition(decl, dec.arrays[a], cp.grid,
                                     cp.stride, dec.num_proc_dims);
    ca.bytes = page_align(ca.layout.size() * decl.elem_size);
    ca.base_addr = next_addr;
    next_addr += ca.bytes * (dec.arrays[a].replicated ? clusters : 1);
    if (!ca.layout.is_identity()) {
      arr_rs.note("restructured: " + ca.layout.to_string());
      arr_rs.count("arrays_restructured");
    }
    cp.arrays.push_back(std::move(ca));
  }
  rs.count("bytes_allocated", next_addr);
  rs.count("arrays", static_cast<long>(prog.arrays.size()));
}

// ---------------------------------------------------------------------------
// lower — owner-computes schedule lowering: one owner mapping per statement
// ---------------------------------------------------------------------------

void lower(CompiledProgram& cp, support::RemarkSink& rs) {
  const ir::Program& prog = cp.program();
  const decomp::ProgramDecomposition& dec = cp.dec();
  ir::require_evaluators(prog);
  // BASE's per-nest owner model: block-distribute the single marked loop
  // by its iteration-hull span instead of the partition-derived folds.
  const bool base_block_owner = cp.mode == Mode::Base;

  // The fold of one virtual dimension: the first array partition bound to
  // it (group members are aligned, so extents agree), else BLOCK by 1.
  auto fold_for_dim = [&](int pd) {
    for (const CompiledArray& ca : cp.arrays)
      for (const layout::Partition::Dim& d : ca.part.dims)
        if (d.proc_dim == pd) return d.fold;
    CoordFold f;
    f.kind = DistKind::Block;
    f.procs = cp.grid[static_cast<size_t>(pd)];
    f.stride = cp.stride[static_cast<size_t>(pd)];
    return f;
  };

  long owner_bindings = 0;
  cp.nests.clear();
  for (size_t j = 0; j < prog.nests.size(); ++j) {
    const dep::ParallelizedNest& par = dec.par[j];
    const decomp::NestDecomposition& nd = dec.nests[j];
    CompiledNest cn;
    const dep::Hull hull = dep::iteration_hull(par.nest);

    for (size_t s = 0; s < par.nest.stmts.size(); ++s) {
      CompiledStmt cs;
      if (base_block_owner) {
        // BASE: block-distribute the single marked loop by its span.
        for (size_t l = 0; l < nd.loops.size(); ++l) {
          if (nd.loops[l].sched != decomp::LoopSched::Distributed) continue;
          CoordFold f;
          f.kind = DistKind::Block;
          f.procs = cp.procs;
          f.offset = hull.lo[l];
          const Int span = hull.hi[l] - hull.lo[l] + 1;
          f.block = decomp::fold_block(DistKind::Block, span, cp.procs, 0);
          cs.owner.push_back({static_cast<int>(l), f});
          break;
        }
      } else {
        for (int pd = 0; pd < dec.num_proc_dims; ++pd) {
          int loop = -1;
          if (s < nd.stmts.size() &&
              pd < static_cast<int>(nd.stmts[s].loop_for_dim.size()))
            loop = nd.stmts[s].loop_for_dim[static_cast<size_t>(pd)];
          if (loop < 0) {
            // Fall back to the nest-level mapping.
            for (size_t l = 0; l < nd.loops.size(); ++l)
              if (nd.loops[l].proc_dim == pd) loop = static_cast<int>(l);
          }
          if (loop < 0) continue;
          cs.owner.push_back({loop, fold_for_dim(pd)});
        }
      }
      owner_bindings += static_cast<long>(cs.owner.size());
      cn.stmts.push_back(std::move(cs));
    }
    if (!nd.barrier_after) {
      support::ScopedSink nest_rs(&rs, static_cast<int>(j), prog.nests[j].name);
      nest_rs.count("barriers_dropped");
    }
    cp.nests.push_back(std::move(cn));
  }
  rs.count("owner_bindings", owner_bindings);
}

// ---------------------------------------------------------------------------
// addr-strategy — Section 4.3 address-calculation costing per reference
// ---------------------------------------------------------------------------

void cost_addresses(CompiledProgram& cp, support::RemarkSink& rs) {
  long refs = 0, costed = 0;
  double chosen_total = 0, naive_total = 0;

  for (size_t j = 0; j < cp.nests.size(); ++j) {
    const ir::LoopNest& nest = cp.dec().par[j].nest;
    for (size_t s = 0; s < nest.stmts.size(); ++s) {
      const ir::Stmt& stmt = nest.stmts[s];
      std::vector<double>& out = cp.nests[j].stmts[s].addr_overhead;
      out.reserve(stmt.reads.size() + 1);
      auto cost = [&](const ir::ArrayRef& r) {
        const Layout& l = cp.arrays[static_cast<size_t>(r.array)].layout;
        const double o = layout::address_overhead(nest, r, l, cp.strategy);
        out.push_back(o);
        ++refs;
        if (o > 0) {
          ++costed;
          chosen_total += o;
          naive_total += layout::address_overhead(nest, r, l,
                                                  layout::AddrStrategy::Naive);
        }
      };
      for (const ir::ArrayRef& r : stmt.reads) cost(r);
      cost(stmt.write);
    }
  }
  rs.count("refs", refs);
  rs.count("refs_with_overhead", costed);
  if (costed > 0)
    rs.note(strf("address overhead %.3f cycles/access under the %s "
                 "strategy (naive would pay %.1f)",
                 chosen_total / static_cast<double>(costed),
                 cp.strategy == layout::AddrStrategy::Naive     ? "naive"
                 : cp.strategy == layout::AddrStrategy::Hoisted ? "hoisted"
                                                                : "optimized",
                 naive_total / static_cast<double>(costed)));
}

// ---------------------------------------------------------------------------
// The drivers
// ---------------------------------------------------------------------------

/// Runs `stage` as the stage `name` and appends its trace record (wall
/// time, remarks, decision counters) to `passes`. Any failure is
/// attributed to the stage that raised it: fault isolation upstream
/// (core::run_sweep) records the failing stage per cell.
template <typename Stage>
void run(const std::string& name, std::vector<support::PassRecord>& passes,
         Stage&& stage) {
  support::PassRecorder rec(name);
  try {
    stage(static_cast<support::RemarkSink&>(rec));
  } catch (...) {
    throw current_error().with_context("pass " + name);
  }
  passes.push_back(rec.finish());
}

/// Builds the analysis halves asked for, recording each stage into
/// `passes`:
///   base:   parallelize, decompose-base
///   global: parallelize, decompose, fold-select, barrier-elim
/// parallelize runs once; when both halves are built, Base decomposes a
/// copy of its output.
std::shared_ptr<const Analysis> analyze_halves(
    const ir::Program& prog, bool global, bool base,
    std::vector<support::PassRecord>& passes) {
  auto an = std::make_shared<Analysis>();
  an->program = prog;
  const ir::Program& p = an->program;
  std::vector<dep::ParallelizedNest> par;
  run("parallelize", passes,
      [&](support::RemarkSink& rs) { par = parallelize(p, rs); });

  if (base)
    run("decompose-base", passes, [&](support::RemarkSink& rs) {
      an->base = std::make_shared<const decomp::ProgramDecomposition>(
          decomp::decompose_base_from(global ? par : std::move(par), p, &rs));
    });
  if (global) {
    auto dec = std::make_shared<decomp::ProgramDecomposition>();
    run("decompose", passes, [&](support::RemarkSink& rs) {
      *dec = decomp::decompose_from(std::move(par), p, &rs);
    });
    run("fold-select", passes,
        [&](support::RemarkSink& rs) { decomp::select_folds(p, *dec, &rs); });
    run("barrier-elim", passes, [&](support::RemarkSink& rs) {
      decomp::eliminate_barriers(*dec, &rs);
    });
    an->global = std::move(dec);
  }
  return an;
}

/// The tail: layout, lower, addr-strategy, on `mode`'s decomposition of
/// `an`, recorded after the records `trace` already holds.
CompiledProgram run_tail(std::shared_ptr<const Analysis> an, Mode mode,
                         int procs, const CompileOptions& opts,
                         support::PipelineTrace trace = {}) {
  DCT_CHECK(procs >= 1, "need at least one processor");
  DCT_CHECK(an != nullptr, "compile from a null analysis");
  CompiledProgram cp;
  cp.trace = std::move(trace);
  cp.analysis = std::move(an);
  cp.mode = mode;
  cp.procs = procs;
  cp.strategy = opts.strategy;

  std::vector<support::PassRecord>& passes = cp.trace.passes;
  run("layout", passes, [&](support::RemarkSink& rs) { lay_out(cp, rs); });
  run("lower", passes, [&](support::RemarkSink& rs) { lower(cp, rs); });
  run("addr-strategy", passes,
      [&](support::RemarkSink& rs) { cost_addresses(cp, rs); });
  return cp;
}

}  // namespace

std::shared_ptr<const Analysis> analyze(const ir::Program& prog,
                                        support::PipelineTrace* trace) {
  std::vector<support::PassRecord> passes;
  auto an = analyze_halves(prog, /*global=*/true, /*base=*/true, passes);
  if (trace != nullptr)
    std::move(passes.begin(), passes.end(), std::back_inserter(trace->passes));
  return an;
}

CompiledProgram compile(const ir::Program& prog, Mode mode, int procs,
                        const CompileOptions& opts) {
  DCT_CHECK(procs >= 1, "need at least one processor");
  const bool base = mode == Mode::Base;
  support::PipelineTrace trace;
  auto an = analyze_halves(prog, !base, base, trace.passes);
  return run_tail(std::move(an), mode, procs, opts, std::move(trace));
}

CompiledProgram compile(std::shared_ptr<const Analysis> analysis, Mode mode,
                        int procs, const CompileOptions& opts) {
  return run_tail(std::move(analysis), mode, procs, opts);
}

CompiledProgram compile_with_decomposition(const ir::Program& prog,
                                           decomp::ProgramDecomposition dec,
                                           Mode mode, int procs,
                                           const CompileOptions& opts) {
  auto an = std::make_shared<Analysis>();
  an->program = prog;
  an->global = an->base =
      std::make_shared<const decomp::ProgramDecomposition>(std::move(dec));
  return run_tail(std::move(an), mode, procs, opts);
}

}  // namespace dct::core
