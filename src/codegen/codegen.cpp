#include "codegen/codegen.hpp"

#include <span>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::codegen {

using core::CompiledProgram;
using core::CoordFold;
using decomp::DistKind;

namespace {

std::string loop_var(int level) { return strf("i%d", level); }

/// Render an affine expression over loop variables.
std::string affine(std::span<const linalg::Int> coeffs, linalg::Int constant) {
  std::ostringstream os;
  bool any = false;
  for (size_t k = 0; k < coeffs.size(); ++k) {
    if (coeffs[k] == 0) continue;
    if (any && coeffs[k] > 0) os << " + ";
    if (coeffs[k] < 0) os << (any ? " - " : "-");
    const linalg::Int mag = std::abs(coeffs[k]);
    if (mag != 1) os << mag << "*";
    os << loop_var(static_cast<int>(k));
    any = true;
  }
  if (constant != 0 || !any) {
    if (any) os << (constant >= 0 ? " + " : " - ");
    os << std::abs(constant);
  }
  return os.str();
}

/// Subscript of one original array dimension of a reference.
std::string subscript(const ir::ArrayRef& ref, int row) {
  return affine(ref.access.row(row), ref.offset[static_cast<size_t>(row)]);
}

/// Linearized address expression of a reference through a layout, using
/// the layout's closed-form dimension functions. Strategy Naive spells
/// out the mod/div; Optimized names the strength-reduced counters the
/// preamble maintains.
std::string address(const CompiledProgram& cp, const ir::ArrayRef& ref) {
  const core::CompiledArray& ca = cp.arrays[static_cast<size_t>(ref.array)];
  const auto& fns = ca.layout.dim_functions();
  std::ostringstream os;
  linalg::Int stride = 1;
  bool any = false;
  for (size_t k = 0; k < fns.size(); ++k) {
    const auto& f = fns[k];
    std::string term = subscript(ref, f.src);
    const bool transformed = f.div != 1 || f.mod != 0;
    if (transformed && cp.strategy == layout::AddrStrategy::Optimized) {
      // The strength-reduced counters of Section 4.3.
      term = strf("%s_c%zu", cp.program().arrays[static_cast<size_t>(ref.array)]
                                 .name.c_str(),
                  k);
    } else {
      if (f.div != 1) term = strf("(%s)/%lld", term.c_str(),
                                  static_cast<long long>(f.div));
      if (f.mod != 0)
        term = strf("%s%%%lld",
                    (f.div != 1 ? term : "(" + term + ")").c_str(),
                    static_cast<long long>(f.mod));
    }
    if (any) os << " + ";
    if (stride != 1) os << stride << "*";
    os << (transformed || stride != 1 ? "(" + term + ")" : term);
    stride *= ca.layout.dims()[k];
    any = true;
  }
  return os.str();
}

/// This processor's coordinate along the fold's grid dimension — the
/// symbolic form of core::CoordFold::digit_of(myid).
std::string digit_expr(const CoordFold& f, int total_procs) {
  if (f.stride == 1 && f.procs == total_procs) return "myid";
  if (f.stride == 1) return strf("myid%%%d", f.procs);
  return strf("(myid/%d)%%%d", f.stride, f.procs);
}

std::string ref_text(const CompiledProgram& cp, const ir::ArrayRef& ref) {
  const auto& decl = cp.program().arrays[static_cast<size_t>(ref.array)];
  const core::CompiledArray& ca = cp.arrays[static_cast<size_t>(ref.array)];
  if (ca.layout.is_identity()) {
    std::string subs;
    for (int r = 0; r < ref.access.rows(); ++r)
      subs += (r ? ", " : "") + subscript(ref, r);
    return decl.name + "(" + subs + ")";
  }
  return decl.name + "[" + address(cp, ref) + "]";
}

}  // namespace

std::string emit_nest(const CompiledProgram& cp, int nest_index) {
  const core::CompiledNest& cn = cp.nests[static_cast<size_t>(nest_index)];
  const ir::LoopNest& nest = cp.dec().par[static_cast<size_t>(nest_index)].nest;
  const int depth = nest.depth();
  std::ostringstream os;

  // Which loops are rewritten by the schedule? Use the first statement's
  // owner mapping (the dominant one for display purposes).
  std::vector<const CoordFold*> fold_of(static_cast<size_t>(depth), nullptr);
  if (!cn.stmts.empty())
    for (const auto& [loop, fold] : cn.stmts.front().owner)
      fold_of[static_cast<size_t>(loop)] = &fold;

  for (int l = 0; l < depth; ++l) {
    const ir::Loop& lp = nest.loops[static_cast<size_t>(l)];
    std::string lo, hi;
    for (const ir::Bound& b : lp.lowers) {
      std::string e = affine(b.expr.coeffs, b.expr.constant);
      if (b.divisor != 1)
        e = strf("ceil((%s)/%lld)", e.c_str(),
                 static_cast<long long>(b.divisor));
      lo = lo.empty() ? e : "max(" + lo + ", " + e + ")";
    }
    for (const ir::Bound& b : lp.uppers) {
      std::string e = affine(b.expr.coeffs, b.expr.constant);
      if (b.divisor != 1)
        e = strf("floor((%s)/%lld)", e.c_str(),
                 static_cast<long long>(b.divisor));
      hi = hi.empty() ? e : "min(" + hi + ", " + e + ")";
    }
    const std::string indent(static_cast<size_t>(2 * (l + 1)), ' ');
    const CoordFold* f = fold_of[static_cast<size_t>(l)];
    if (f == nullptr || f->procs <= 1) {
      os << indent << strf("for (%s = %s; %s <= %s; %s++) {\n",
                           loop_var(l).c_str(), lo.c_str(),
                           loop_var(l).c_str(), hi.c_str(),
                           loop_var(l).c_str());
    } else if (f->kind == DistKind::Cyclic) {
      // Owned iterations satisfy i ≡ offset + digit (mod procs).
      const std::string digit = digit_expr(*f, cp.procs);
      const std::string residue =
          f->offset == 0
              ? digit
              : strf("(%s + %lld)%%%d", digit.c_str(),
                     static_cast<long long>(f->offset), f->procs);
      os << indent
         << strf("for (%s = max(%s, first_ge(%s, %s)); %s <= %s; "
                 "%s += %d) {  /* CYCLIC over %d procs */\n",
                 loop_var(l).c_str(), lo.c_str(), lo.c_str(), residue.c_str(),
                 loop_var(l).c_str(), hi.c_str(), loop_var(l).c_str(),
                 f->procs, f->procs);
    } else if (f->kind == DistKind::BlockCyclic) {
      // Blocks of B iterations dealt round-robin: the owner filter form,
      // matching the native backend's block-run walk.
      const std::string digit = digit_expr(*f, cp.procs);
      const long long B = static_cast<long long>(std::max<linalg::Int>(
          1, f->block));
      std::string idx = loop_var(l);
      if (f->offset != 0)
        idx = strf("(%s - %lld)", idx.c_str(),
                   static_cast<long long>(f->offset));
      os << indent
         << strf("for (%s = %s; %s <= %s; %s++) if ((%s/%lld)%%%d == %s) {"
                 "  /* BLOCK-CYCLIC(%lld) over %d procs */\n",
                 loop_var(l).c_str(), lo.c_str(), loop_var(l).c_str(),
                 hi.c_str(), loop_var(l).c_str(), idx.c_str(), B, f->procs,
                 digit.c_str(), B, f->procs);
    } else {
      // Per-thread bounds mirror core::CoordFold::block_lo/block_hi:
      // [offset + digit*B, offset + (digit+1)*B - 1] clipped to the loop.
      std::string digit = digit_expr(*f, cp.procs);
      if (digit != "myid") digit = "(" + digit + ")";
      const long long B = static_cast<long long>(std::max<linalg::Int>(
          1, f->block));
      std::string base = strf("%lld*%s", B, digit.c_str());
      if (f->offset != 0)
        base += strf(" + %lld", static_cast<long long>(f->offset));
      os << indent
         << strf("for (%s = max(%s, %s); %s <= min(%s, %s + %lld); %s++) {"
                 "  /* BLOCK over %d procs */\n",
                 loop_var(l).c_str(), lo.c_str(), base.c_str(),
                 loop_var(l).c_str(), hi.c_str(), base.c_str(), B - 1,
                 loop_var(l).c_str(), f->procs);
    }
  }

  for (const ir::Stmt& st : nest.stmts) {
    const std::string indent(
        static_cast<size_t>(2 * (st.effective_depth(depth) + 1)), ' ');
    std::string rhs;
    for (size_t r = 0; r < st.reads.size(); ++r)
      rhs += (r ? ", " : "") + ref_text(cp, st.reads[r]);
    os << indent << ref_text(cp, st.write) << " = f(" << rhs << ");\n";
  }
  for (int l = depth - 1; l >= 0; --l)
    os << std::string(static_cast<size_t>(2 * (l + 1)), ' ') << "}\n";
  if (cp.dec().nests[static_cast<size_t>(nest_index)].barrier_after)
    os << "  barrier();\n";
  return os.str();
}

std::string emit_program(const CompiledProgram& cp) {
  std::ostringstream os;
  os << "/* " << cp.program().name << " — " << core::to_string(cp.mode)
     << ", P = " << cp.procs << " */\n";
  for (size_t a = 0; a < cp.arrays.size(); ++a) {
    const auto& decl = cp.program().arrays[a];
    const auto& ca = cp.arrays[a];
    if (ca.layout.is_identity()) {
      os << strf("%s %s", decl.elem_size == 8 ? "double" : "float",
                 decl.name.c_str());
      for (auto it = decl.dims.rbegin(); it != decl.dims.rend(); ++it)
        os << strf("[%lld]", static_cast<long long>(*it));
    } else {
      os << strf("%s %s[%lld]  /* restructured: %s */",
                 decl.elem_size == 8 ? "double" : "float", decl.name.c_str(),
                 static_cast<long long>(ca.layout.size()),
                 ca.layout.to_string().c_str());
    }
    os << (cp.dec().arrays[a].replicated ? ";  /* replicated per cluster */\n"
                                         : ";\n");
  }
  os << "\nvoid spmd_main(int myid) {\n";
  if (cp.program().time_steps > 1)
    os << strf("  for (int t = 0; t < %d; t++) {\n", cp.program().time_steps);
  for (size_t j = 0; j < cp.nests.size(); ++j) {
    os << "  /* nest " << cp.program().nests[j].name << " */\n"
       << emit_nest(cp, static_cast<int>(j));
  }
  if (cp.program().time_steps > 1) os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace dct::codegen
