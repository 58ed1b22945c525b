#include "ir/program.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::ir {

Int AffineExpr::eval(std::span<const Int> iter) const {
  Int v = constant;
  DCT_CHECK(coeffs.size() <= iter.size(), "expression deeper than nest");
  for (size_t d = 0; d < coeffs.size(); ++d)
    v = linalg::checked_add(v, linalg::checked_mul(coeffs[d], iter[d]));
  return v;
}

std::string AffineExpr::to_string() const {
  std::ostringstream os;
  bool any = false;
  for (size_t d = 0; d < coeffs.size(); ++d) {
    if (coeffs[d] == 0) continue;
    if (any) os << (coeffs[d] > 0 ? "+" : "");
    if (coeffs[d] == -1)
      os << "-";
    else if (coeffs[d] != 1)
      os << coeffs[d] << "*";
    os << "i" << d;
    any = true;
  }
  if (constant != 0 || !any) {
    if (any && constant > 0) os << "+";
    os << constant;
  }
  return os.str();
}

AffineExpr var(int depth, Int coeff) {
  AffineExpr e;
  e.coeffs.assign(static_cast<size_t>(depth) + 1, 0);
  e.coeffs[static_cast<size_t>(depth)] = coeff;
  return e;
}

AffineExpr cst(Int value) { return AffineExpr{{}, value}; }

AffineExpr operator+(AffineExpr a, const AffineExpr& b) {
  if (a.coeffs.size() < b.coeffs.size()) a.coeffs.resize(b.coeffs.size(), 0);
  for (size_t d = 0; d < b.coeffs.size(); ++d)
    a.coeffs[d] = linalg::checked_add(a.coeffs[d], b.coeffs[d]);
  a.constant = linalg::checked_add(a.constant, b.constant);
  return a;
}

AffineExpr operator-(AffineExpr a, const AffineExpr& b) {
  AffineExpr neg = b;
  for (Int& c : neg.coeffs) c = -c;
  neg.constant = -neg.constant;
  return std::move(a) + neg;
}

AffineExpr operator*(AffineExpr a, Int s) {
  for (Int& c : a.coeffs) c = linalg::checked_mul(c, s);
  a.constant = linalg::checked_mul(a.constant, s);
  return a;
}

AffineExpr operator+(AffineExpr a, Int c) {
  a.constant = linalg::checked_add(a.constant, c);
  return a;
}

AffineExpr operator-(AffineExpr a, Int c) { return std::move(a) + (-c); }

Int Loop::lower_bound(std::span<const Int> iter) const {
  DCT_CHECK(!lowers.empty(), "loop has no lower bound");
  Int v = linalg::ceil_div(lowers[0].expr.eval(iter), lowers[0].divisor);
  for (size_t i = 1; i < lowers.size(); ++i)
    v = std::max(
        v, linalg::ceil_div(lowers[i].expr.eval(iter), lowers[i].divisor));
  return v;
}

Int Loop::upper_bound(std::span<const Int> iter) const {
  DCT_CHECK(!uppers.empty(), "loop has no upper bound");
  Int v = linalg::floor_div(uppers[0].expr.eval(iter), uppers[0].divisor);
  for (size_t i = 1; i < uppers.size(); ++i)
    v = std::min(v,
                 linalg::floor_div(uppers[i].expr.eval(iter), uppers[i].divisor));
  return v;
}

Loop loop(std::string var_name, AffineExpr lower, AffineExpr upper) {
  return Loop{std::move(var_name),
              {Bound{std::move(lower), 1}},
              {Bound{std::move(upper), 1}}};
}

Int ArrayDecl::elem_count() const {
  Int n = 1;
  for (Int d : dims) n = linalg::checked_mul(n, d);
  return n;
}

Vec ArrayRef::index(std::span<const Int> iter) const {
  DCT_CHECK(access.cols() <= static_cast<int>(iter.size()),
            "reference deeper than nest");
  Vec out(offset);
  for (int r = 0; r < access.rows(); ++r)
    for (int c = 0; c < access.cols(); ++c)
      out[static_cast<size_t>(r)] = linalg::checked_add(
          out[static_cast<size_t>(r)],
          linalg::checked_mul(access.at(r, c), iter[static_cast<size_t>(c)]));
  return out;
}

std::string ArrayRef::to_string(const Program& prog) const {
  std::ostringstream os;
  os << prog.array(array).name << "(";
  for (int r = 0; r < access.rows(); ++r) {
    if (r) os << ",";
    AffineExpr e;
    const std::span<const Int> row = access.row(r);
    e.coeffs.assign(row.begin(), row.end());
    e.constant = offset[static_cast<size_t>(r)];
    os << e.to_string();
  }
  os << ")";
  return os.str();
}

ArrayRef simple_ref(int array, int depth,
                    const std::vector<std::pair<int, Int>>& dims) {
  ArrayRef ref;
  ref.array = array;
  ref.access = IntMatrix(static_cast<int>(dims.size()), depth);
  ref.offset.resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    const auto& [loop, off] = dims[d];
    if (loop >= 0) {
      DCT_CHECK(loop < depth, "loop index out of nest");
      ref.access.at(static_cast<int>(d), loop) = 1;
    }
    ref.offset[d] = off;
  }
  return ref;
}

const ArrayDecl& Program::array(int id) const {
  DCT_CHECK(id >= 0 && id < static_cast<int>(arrays.size()), "bad array id");
  return arrays[static_cast<size_t>(id)];
}

int Program::array_id(const std::string& name) const {
  for (size_t i = 0; i < arrays.size(); ++i)
    if (arrays[i].name == name) return static_cast<int>(i);
  DCT_CHECK(false, "unknown array " + name);
  return -1;
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "program " << name << " (time_steps=" << time_steps << ")\n";
  for (const auto& a : arrays) {
    os << "  array " << a.name << "(";
    for (size_t d = 0; d < a.dims.size(); ++d)
      os << (d ? "," : "") << a.dims[d];
    os << ") elem=" << a.elem_size << "B"
       << (a.transformable ? "" : " [not transformable]") << "\n";
  }
  for (const auto& nest : nests) {
    os << "  nest " << nest.name << " freq=" << nest.frequency << "\n";
    for (int l = 0; l < nest.depth(); ++l) {
      const Loop& lp = nest.loops[static_cast<size_t>(l)];
      std::vector<std::string> lo, hi;
      for (const auto& b : lp.lowers)
        lo.push_back(b.divisor == 1
                         ? b.expr.to_string()
                         : strf("ceil((%s)/%lld)", b.expr.to_string().c_str(),
                                static_cast<long long>(b.divisor)));
      for (const auto& b : lp.uppers)
        hi.push_back(b.divisor == 1
                         ? b.expr.to_string()
                         : strf("floor((%s)/%lld)", b.expr.to_string().c_str(),
                                static_cast<long long>(b.divisor)));
      os << std::string(static_cast<size_t>(4 + 2 * l), ' ') << "for "
         << lp.var_name << " = max(" << join(lo, ",") << ") .. min("
         << join(hi, ",") << ")\n";
    }
    for (const auto& s : nest.stmts) {
      os << std::string(static_cast<size_t>(4 + 2 * nest.depth()), ' ');
      os << s.write.to_string(*this) << " = f(";
      for (size_t i = 0; i < s.reads.size(); ++i)
        os << (i ? ", " : "") << s.reads[i].to_string(*this);
      os << ")\n";
    }
  }
  return os.str();
}

void require_evaluators(const Program& prog) {
  for (const LoopNest& nest : prog.nests)
    for (size_t s = 0; s < nest.stmts.size(); ++s)
      if (!nest.stmts[s].eval)
        throw Error(Error::Code::kInvalidArgument,
                    strf("%s: nest %s statement %zu has no evaluator",
                         prog.name.c_str(), nest.name.c_str(), s));
}

ProgramBuilder::ProgramBuilder(std::string name) { prog_.name = std::move(name); }

int ProgramBuilder::array(const std::string& name, std::vector<Int> dims,
                          int elem_size, bool transformable) {
  for (const auto& a : prog_.arrays)
    DCT_CHECK(a.name != name, "duplicate array " + name);
  for (Int d : dims) DCT_CHECK(d > 0, "array extent must be positive");
  prog_.arrays.push_back(
      ArrayDecl{name, std::move(dims), elem_size, transformable});
  return static_cast<int>(prog_.arrays.size()) - 1;
}

LoopNest& ProgramBuilder::nest(const std::string& name, long frequency) {
  prog_.nests.push_back(LoopNest{});
  prog_.nests.back().name = name;
  prog_.nests.back().frequency = frequency;
  return prog_.nests.back();
}

void ProgramBuilder::set_time_steps(int steps) {
  DCT_CHECK(steps >= 1, "time steps must be positive");
  prog_.time_steps = steps;
}

Program ProgramBuilder::build() { return std::move(prog_); }

}  // namespace dct::ir
