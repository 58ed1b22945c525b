#include "core/pass.hpp"

#include <algorithm>
#include <utility>

#include "dep/dependence.hpp"
#include "native/plan.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"
#include "verify/oracle.hpp"

namespace dct::core {

using decomp::DistKind;
using layout::Layout;

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

void PassManager::run(CompilationState& st, support::RemarkEngine& eng) const {
  for (const auto& p : passes_) {
    eng.begin_pass(p->name());
    // Attribute any failure to the pass that raised it: fault isolation
    // upstream (core::run_sweep) records the failing pass per cell.
    try {
      p->run(st, eng);
    } catch (Error& e) {
      eng.end_pass();
      throw e.with_context("pass " + p->name());
    } catch (const std::exception& e) {
      eng.end_pass();
      throw Error(Error::Code::kFault, e.what())
          .with_context("pass " + p->name());
    }
    eng.end_pass();
  }
}

namespace {

Int ceil_div(Int a, Int b) { return (a + b - 1) / b; }
Int page_align(Int x, Int page = 4096) { return ceil_div(x, page) * page; }

// ---------------------------------------------------------------------------
// parallelize — unimodular preprocessing per nest (§3.2)
// ---------------------------------------------------------------------------

class ParallelizePass final : public Pass {
 public:
  std::string name() const override { return "parallelize"; }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    const ir::Program& prog = st.cp.program;
    st.cp.dec.par.clear();
    for (size_t j = 0; j < prog.nests.size(); ++j) {
      support::ScopedSink nest_rs(&rs, static_cast<int>(j),
                                  prog.nests[j].name);
      st.cp.dec.par.push_back(dep::parallelize(prog.nests[j], &nest_rs));
    }
    rs.count("nests", static_cast<long>(prog.nests.size()));
  }
};

// ---------------------------------------------------------------------------
// decompose — alignment + global group selection (§3)
// ---------------------------------------------------------------------------

class DecomposePass final : public Pass {
 public:
  DecomposePass(bool base, decomp::DecompOptions opts)
      : base_(base), opts_(opts) {}
  std::string name() const override {
    return base_ ? "decompose-base" : "decompose";
  }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    // The parallelize pass left its result in dec.par; the decomposition
    // consumes it and rebuilds dec around it.
    std::vector<dep::ParallelizedNest> par = std::move(st.cp.dec.par);
    st.cp.dec =
        base_ ? decomp::decompose_base_from(std::move(par), st.cp.program,
                                            opts_, &rs)
              : decomp::decompose_from(std::move(par), st.cp.program, opts_,
                                       &rs);
  }

 private:
  bool base_;
  decomp::DecompOptions opts_;
};

// ---------------------------------------------------------------------------
// fold-select — folding-function selection per virtual dimension
// ---------------------------------------------------------------------------

class FoldSelectPass final : public Pass {
 public:
  explicit FoldSelectPass(decomp::DecompOptions opts) : opts_(opts) {}
  std::string name() const override { return "fold-select"; }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    decomp::select_folds(st.cp.program, st.cp.dec, opts_, &rs);
  }

 private:
  decomp::DecompOptions opts_;
};

// ---------------------------------------------------------------------------
// barrier-elim — synchronization optimization [Tseng 95]
// ---------------------------------------------------------------------------

class BarrierElimPass final : public Pass {
 public:
  std::string name() const override { return "barrier-elim"; }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    decomp::eliminate_barriers(st.cp.dec, &rs);
  }
};

// ---------------------------------------------------------------------------
// layout — grid folding, per-array layouts/partitions, address space (§4.2)
// ---------------------------------------------------------------------------

class LayoutPass final : public Pass {
 public:
  explicit LayoutPass(bool restructure) : restructure_(restructure) {}
  std::string name() const override { return "layout"; }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    CompiledProgram& cp = st.cp;
    const ir::Program& prog = cp.program;
    cp.grid = cp.dec.grid_extents(cp.procs);

    // Mixed-radix strides within co-activity cliques.
    st.stride.assign(static_cast<size_t>(cp.dec.num_proc_dims), 1);
    for (int pd = 0; pd < cp.dec.num_proc_dims; ++pd)
      for (int q = 0; q < pd; ++q)
        if (cp.dec.clique_id[static_cast<size_t>(q)] ==
            cp.dec.clique_id[static_cast<size_t>(pd)])
          st.stride[static_cast<size_t>(pd)] *=
              cp.grid[static_cast<size_t>(q)];

    const int clusters = (cp.procs + 3) / 4;  // DASH clustering
    Int next_addr = 0;
    cp.arrays.clear();
    for (size_t a = 0; a < prog.arrays.size(); ++a) {
      const ir::ArrayDecl& decl = prog.arrays[a];
      support::ScopedSink arr_rs(&rs, -1, {}, static_cast<int>(a), decl.name);
      CompiledArray ca;
      ca.replicated = cp.dec.arrays[a].replicated;
      ca.layout = restructure_
                      ? layout::derive_layout(decl, cp.dec.arrays[a], cp.grid,
                                              &arr_rs)
                      : Layout::identity(decl.dims);
      ca.part = layout::make_partition(decl, cp.dec.arrays[a], cp.grid,
                                       cp.dec.num_proc_dims);
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

 private:
  bool restructure_;
};

// ---------------------------------------------------------------------------
// lower — owner-computes schedule lowering to CompiledStmts
// ---------------------------------------------------------------------------

class LowerPass final : public Pass {
 public:
  explicit LowerPass(bool base_block_owner)
      : base_block_owner_(base_block_owner) {}
  std::string name() const override { return "lower"; }

  void run(CompilationState& st, support::RemarkSink& rs) override {
    CompiledProgram& cp = st.cp;
    const ir::Program& prog = cp.program;

    // Fold parameters of one virtual dimension, from the first array bound
    // to it (group members are aligned, so extents agree).
    auto fold_for_dim = [&](int pd) {
      CoordFold f;
      f.procs = cp.grid[static_cast<size_t>(pd)];
      f.stride = st.stride[static_cast<size_t>(pd)];
      for (const CompiledArray& ca : cp.arrays)
        for (const auto& d : ca.part.dims)
          if (d.proc_dim == pd) {
            f.kind = d.kind;
            f.block = std::max<Int>(1, d.block);
            return f;
          }
      f.kind = DistKind::Block;
      f.block = 1;
      return f;
    };

    long owner_bindings = 0;
    cp.nests.clear();
    for (size_t j = 0; j < prog.nests.size(); ++j) {
      const dep::ParallelizedNest& par = cp.dec.par[j];
      const decomp::NestDecomposition& nd = cp.dec.nests[j];
      CompiledNest cn;
      cn.nest = par.nest;
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
        if (stmt.write)
          cs.write = flatten_ref(*stmt.write, depth, true);

        if (base_block_owner_) {
          // BASE: block-distribute the single marked loop by its span.
          for (size_t l = 0; l < nd.loops.size(); ++l) {
            if (nd.loops[l].sched != decomp::LoopSched::Distributed) continue;
            CoordFold f;
            f.kind = DistKind::Block;
            f.procs = cp.procs;
            f.offset = hull.lo[l];
            const Int span = hull.hi[l] - hull.lo[l] + 1;
            f.block = std::max<Int>(1, ceil_div(span, cp.procs));
            f.stride = 1;
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

 private:
  static CompiledRef flatten_ref(const ir::ArrayRef& r, int depth,
                                 bool is_write) {
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

  bool base_block_owner_;
};

// ---------------------------------------------------------------------------
// addr-strategy — Section 4.3 address-calculation costing per reference
// ---------------------------------------------------------------------------

class AddrStrategyPass final : public Pass {
 public:
  std::string name() const override { return "addr-strategy"; }

  void run(CompilationState& st, support::RemarkSink& rs) override {
    CompiledProgram& cp = st.cp;
    long refs = 0, costed = 0;
    double chosen_total = 0, naive_total = 0;

    for (size_t j = 0; j < cp.nests.size(); ++j) {
      CompiledNest& cn = cp.nests[j];
      for (size_t s = 0; s < cn.stmts.size(); ++s) {
        // Compiled refs were flattened in source order, so they pair with
        // the IR statement's reads/write positionally.
        const ir::Stmt& stmt = cn.nest.stmts[s];
        CompiledStmt& cs = cn.stmts[s];
        auto cost = [&](CompiledRef& cr, const ir::ArrayRef& r) {
          const Layout& l =
              cp.arrays[static_cast<size_t>(cr.array)].layout;
          cr.addr_overhead =
              layout::address_overhead(cn.nest, r, l, cp.strategy);
          ++refs;
          if (cr.addr_overhead > 0) {
            ++costed;
            chosen_total += cr.addr_overhead;
            naive_total += layout::address_overhead(cn.nest, r, l,
                                                    layout::AddrStrategy::Naive);
          }
        };
        for (size_t k = 0; k < cs.reads.size(); ++k)
          cost(cs.reads[k], stmt.reads[k]);
        if (cs.write) cost(*cs.write, *stmt.write);
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
};

// ---------------------------------------------------------------------------
// verify — static validation oracles (src/verify/), opts.validate
// ---------------------------------------------------------------------------

class VerifyPass final : public Pass {
 public:
  /// native: also run the native threaded-backend differential.
  explicit VerifyPass(bool native) : native_(native) {}
  std::string name() const override { return "verify"; }
  void run(CompilationState& st, support::RemarkSink& rs) override {
    verify::ValidationReport rep = verify::validate_compiled(st.cp);
    if (native_) {
      rep.oracles.push_back(verify::check_native(st.cp));
      const native::ProgramPlan pp = native::plan_program(st.cp);
      rs.count("native_sequential_nests", pp.sequential_nests);
      rs.count("native_restricted_nests", pp.restricted_nests);
      for (size_t j = 0; j < pp.nests.size(); ++j) {
        support::ScopedSink nest_rs(&rs, static_cast<int>(j),
                                    st.cp.program.nests[j].name);
        nest_rs.note("native plan: " + pp.nests[j].why);
      }
    }
    rs.count("oracle_checks", rep.total_checks());
    for (const verify::OracleReport& o : rep.oracles) {
      rs.count(("checks_" + o.oracle).c_str(), o.checks);
      if (!o.ok()) rs.note(o.to_string());
    }
    rep.raise_if_violated(st.cp.program.name + " [" + to_string(st.cp.mode) +
                          "]");
  }

 private:
  bool native_;
};

}  // namespace

std::unique_ptr<Pass> make_parallelize_pass() {
  return std::make_unique<ParallelizePass>();
}
std::unique_ptr<Pass> make_decompose_pass(bool base,
                                          const decomp::DecompOptions& opts) {
  return std::make_unique<DecomposePass>(base, opts);
}
std::unique_ptr<Pass> make_fold_select_pass(
    const decomp::DecompOptions& opts) {
  return std::make_unique<FoldSelectPass>(opts);
}
std::unique_ptr<Pass> make_barrier_elim_pass() {
  return std::make_unique<BarrierElimPass>();
}
std::unique_ptr<Pass> make_layout_pass(bool restructure) {
  return std::make_unique<LayoutPass>(restructure);
}
std::unique_ptr<Pass> make_lower_pass(bool base_block_owner) {
  return std::make_unique<LowerPass>(base_block_owner);
}
std::unique_ptr<Pass> make_addr_strategy_pass() {
  return std::make_unique<AddrStrategyPass>();
}
std::unique_ptr<Pass> make_verify_pass(bool native_check) {
  return std::make_unique<VerifyPass>(native_check);
}

PassManager build_pipeline(Mode mode, const CompileOptions& opts) {
  PassManager pm;
  pm.add(make_parallelize_pass());
  pm.add(make_decompose_pass(mode == Mode::Base, opts.decomp));
  if (mode != Mode::Base) {
    pm.add(make_fold_select_pass(opts.decomp));
    pm.add(make_barrier_elim_pass());
  }
  pm.add(make_layout_pass(mode == Mode::Full));
  pm.add(make_lower_pass(mode == Mode::Base));
  pm.add(make_addr_strategy_pass());
  if (opts.validate) pm.add(make_verify_pass(opts.native_check));
  return pm;
}

PassManager build_lowering_pipeline(Mode mode, const CompileOptions& opts) {
  PassManager pm;
  pm.add(make_layout_pass(mode == Mode::Full));
  pm.add(make_lower_pass(mode == Mode::Base));
  pm.add(make_addr_strategy_pass());
  if (opts.validate) pm.add(make_verify_pass(opts.native_check));
  return pm;
}

}  // namespace dct::core
