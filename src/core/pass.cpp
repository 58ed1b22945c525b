// The compiler's stages and the one driver that runs them.
//
// Each stage of the paper's flow — parallelization (§3.2), global
// computation/data decomposition (§3), folding-function selection,
// barrier elimination [Tseng 95], layout derivation (§4.2), schedule
// lowering and address-strategy costing (§4.3) — is a plain function over
// the CompiledProgram being built. run_stages() calls them in order for a
// mode, giving each its own timed trace record (wall time, remarks,
// decision counters) in a support::RemarkEngine.
#include <algorithm>
#include <optional>
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

void parallelize(CompiledProgram& cp, support::RemarkSink& rs) {
  const ir::Program& prog = cp.program;
  cp.dec.par.clear();
  for (size_t j = 0; j < prog.nests.size(); ++j) {
    support::ScopedSink nest_rs(&rs, static_cast<int>(j), prog.nests[j].name);
    cp.dec.par.push_back(dep::parallelize(prog.nests[j], &nest_rs));
  }
  rs.count("nests", static_cast<long>(prog.nests.size()));
}

// ---------------------------------------------------------------------------
// decompose / decompose-base — alignment + global group selection (§3)
// ---------------------------------------------------------------------------

// The parallelize stage left its result in dec.par; the decomposition
// consumes it and rebuilds dec around it.
void decompose(CompiledProgram& cp, support::RemarkSink& rs) {
  cp.dec = decomp::decompose_from(std::move(cp.dec.par), cp.program, &rs);
}

void decompose_per_nest(CompiledProgram& cp, support::RemarkSink& rs) {
  cp.dec = decomp::decompose_base_from(std::move(cp.dec.par), cp.program, &rs);
}

// ---------------------------------------------------------------------------
// fold-select — folding-function selection per virtual dimension
// ---------------------------------------------------------------------------

void select_folds(CompiledProgram& cp, support::RemarkSink& rs) {
  decomp::select_folds(cp.program, cp.dec, &rs);
}

// ---------------------------------------------------------------------------
// barrier-elim — synchronization optimization [Tseng 95]
// ---------------------------------------------------------------------------

void eliminate_barriers(CompiledProgram& cp, support::RemarkSink& rs) {
  decomp::eliminate_barriers(cp.dec, &rs);
}

// ---------------------------------------------------------------------------
// layout — grid folding, per-array layouts/partitions, address space (§4.2)
// ---------------------------------------------------------------------------

/// A decomposition supplied to compile_with_decomposition must describe
/// this program: one entry per nest and per array, and processor
/// dimensions inside its own space. Checked before anything indexes by
/// them.
void check_decomposition(const CompiledProgram& cp) {
  const ir::Program& prog = cp.program;
  const decomp::ProgramDecomposition& dec = cp.dec;
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
  const ir::Program& prog = cp.program;
  const bool restructure = cp.mode == Mode::Full;
  cp.grid = cp.dec.grid_extents(cp.procs);

  // Mixed-radix strides within co-activity cliques.
  cp.stride.assign(static_cast<size_t>(cp.dec.num_proc_dims), 1);
  for (int pd = 0; pd < cp.dec.num_proc_dims; ++pd)
    for (int q = 0; q < pd; ++q)
      if (cp.dec.clique_id[static_cast<size_t>(q)] ==
          cp.dec.clique_id[static_cast<size_t>(pd)])
        cp.stride[static_cast<size_t>(pd)] *= cp.grid[static_cast<size_t>(q)];

  const Int clusters = ceil_div(cp.procs, machine::kProcsPerCluster);
  Int next_addr = 0;
  cp.arrays.clear();
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    const ir::ArrayDecl& decl = prog.arrays[a];
    support::ScopedSink arr_rs(&rs, -1, {}, static_cast<int>(a), decl.name);
    CompiledArray ca;
    ca.replicated = cp.dec.arrays[a].replicated;
    ca.layout = restructure ? layout::derive_layout(decl, cp.dec.arrays[a],
                                                    cp.grid, &arr_rs)
                            : Layout::identity(decl.dims);
    ca.part = layout::make_partition(decl, cp.dec.arrays[a], cp.grid,
                                     cp.stride, cp.dec.num_proc_dims);
    ca.bytes = page_align(ca.layout.size() * decl.elem_size);
    ca.base_addr = next_addr;
    next_addr += ca.bytes * (ca.replicated ? clusters : 1);
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
// lower — owner-computes schedule lowering to CompiledStmts
// ---------------------------------------------------------------------------

CompiledRef flatten_ref(const ir::ArrayRef& r, int depth, bool is_write) {
  CompiledRef out;
  out.array = r.array;
  out.is_write = is_write;
  out.rank = r.access.rows();
  out.coeffs.assign(
      static_cast<size_t>(out.rank) * static_cast<size_t>(depth), 0);
  for (int row = 0; row < out.rank; ++row)
    for (int c = 0; c < r.access.cols() && c < depth; ++c)
      out.coeffs[static_cast<size_t>(row) * static_cast<size_t>(depth) +
                 static_cast<size_t>(c)] = r.access.at(row, c);
  out.offsets = r.offset;
  return out;
}

void lower(CompiledProgram& cp, support::RemarkSink& rs) {
  const ir::Program& prog = cp.program;
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
    const dep::ParallelizedNest& par = cp.dec.par[j];
    const decomp::NestDecomposition& nd = cp.dec.nests[j];
    CompiledNest cn;
    cn.barrier_after = nd.barrier_after;
    const int depth = par.nest.depth();
    const dep::Hull hull = dep::iteration_hull(par.nest);

    for (size_t s = 0; s < par.nest.stmts.size(); ++s) {
      const ir::Stmt& stmt = par.nest.stmts[s];
      CompiledStmt cs;
      cs.depth = stmt.effective_depth(depth);
      cs.compute_cycles = stmt.compute_cycles;
      cs.eval = stmt.eval;
      for (const ir::ArrayRef& r : stmt.reads)
        cs.reads.push_back(flatten_ref(r, depth, false));
      cs.write = flatten_ref(stmt.write, depth, true);

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
        for (int pd = 0; pd < cp.dec.num_proc_dims; ++pd) {
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
    if (!cn.barrier_after) {
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
    CompiledNest& cn = cp.nests[j];
    const ir::LoopNest& nest = cp.dec.par[j].nest;
    for (size_t s = 0; s < cn.stmts.size(); ++s) {
      // Compiled refs were flattened in source order, so they pair with
      // the IR statement's reads/write positionally.
      const ir::Stmt& stmt = nest.stmts[s];
      CompiledStmt& cs = cn.stmts[s];
      auto cost = [&](CompiledRef& cr, const ir::ArrayRef& r) {
        const Layout& l = cp.arrays[static_cast<size_t>(cr.array)].layout;
        cr.addr_overhead = layout::address_overhead(nest, r, l, cp.strategy);
        ++refs;
        if (cr.addr_overhead > 0) {
          ++costed;
          chosen_total += cr.addr_overhead;
          naive_total += layout::address_overhead(nest, r, l,
                                                  layout::AddrStrategy::Naive);
        }
      };
      for (size_t k = 0; k < cs.reads.size(); ++k)
        cost(cs.reads[k], stmt.reads[k]);
      cost(cs.write, stmt.write);
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
// The driver
// ---------------------------------------------------------------------------

/// Compiles `prog` by running the stages for `mode` in order:
///   Base:       parallelize, decompose-base, layout, lower, addr-strategy
///   CompDecomp: parallelize, decompose, fold-select, barrier-elim,
///               layout, lower, addr-strategy
///   Full:       as CompDecomp; layout restructures arrays
/// With a supplied `dec` only the tail from `layout` onward runs.
CompiledProgram run_stages(const ir::Program& prog, Mode mode, int procs,
                           const CompileOptions& opts,
                           std::optional<decomp::ProgramDecomposition> dec) {
  DCT_CHECK(procs >= 1, "need at least one processor");
  CompiledProgram cp;
  cp.program = prog;
  cp.mode = mode;
  cp.procs = procs;
  cp.strategy = opts.strategy;

  support::RemarkEngine eng;
  const auto run = [&](const std::string& name, auto&& stage) {
    eng.begin_pass(name);
    // Attribute any failure to the stage that raised it: fault isolation
    // upstream (core::run_sweep) records the failing stage per cell.
    try {
      stage(cp, eng);
    } catch (Error& e) {
      eng.end_pass();
      throw e.with_context("pass " + name);
    } catch (const std::exception& e) {
      eng.end_pass();
      throw Error(Error::Code::kFault, e.what()).with_context("pass " + name);
    }
    eng.end_pass();
  };

  if (dec) {
    cp.dec = std::move(*dec);
  } else {
    run("parallelize", parallelize);
    if (mode == Mode::Base) {
      run("decompose-base", decompose_per_nest);
    } else {
      run("decompose", decompose);
      run("fold-select", select_folds);
      run("barrier-elim", eliminate_barriers);
    }
  }
  run("layout", lay_out);
  run("lower", lower);
  run("addr-strategy", cost_addresses);
  cp.trace = eng.take_trace();
  return cp;
}

}  // namespace

CompiledProgram compile(const ir::Program& prog, Mode mode, int procs,
                        const CompileOptions& opts) {
  return run_stages(prog, mode, procs, opts, std::nullopt);
}

CompiledProgram compile_with_decomposition(const ir::Program& prog,
                                           decomp::ProgramDecomposition dec,
                                           Mode mode, int procs,
                                           const CompileOptions& opts) {
  return run_stages(prog, mode, procs, opts, std::move(dec));
}

}  // namespace dct::core
