// Affine kernel IR.
//
// The paper's algorithms consume an affine abstraction of the input
// program: loop nests as multi-dimensional iteration spaces with affine
// (possibly triangular) bounds, arrays as multi-dimensional index spaces,
// and array references as affine maps from iteration space to array space.
// This module provides that abstraction plus a builder API; the seven
// benchmark applications (src/apps) are expressed directly in it.
//
// Statements additionally carry a numeric evaluator (ir/stmt_eval.hpp) so
// a transformed program can be *executed*, by every engine, and checked
// bit-for-bit against the original (layout legality, Section 4.1.3: a data
// transform must preserve program semantics).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ir/stmt_eval.hpp"
#include "linalg/int_matrix.hpp"

namespace dct::ir {

using linalg::Int;
using linalg::IntMatrix;
using linalg::Vec;

/// Affine expression over the index variables of the enclosing loop nest:
/// value(i) = coeffs · i[0..depth) + constant. `coeffs` may be shorter than
/// the iteration vector (missing entries are zero), which lets bounds refer
/// only to outer loops.
struct AffineExpr {
  Vec coeffs;
  Int constant = 0;

  Int eval(std::span<const Int> iter) const;
  std::string to_string() const;
};

/// Build an expression referencing loop variable `depth` (0 = outermost).
AffineExpr var(int depth, Int coeff = 1);
AffineExpr cst(Int value);
AffineExpr operator+(AffineExpr a, const AffineExpr& b);
AffineExpr operator-(AffineExpr a, const AffineExpr& b);
AffineExpr operator*(AffineExpr a, Int s);
AffineExpr operator+(AffineExpr a, Int c);
AffineExpr operator-(AffineExpr a, Int c);

/// Array declaration; extents are concrete (programs are built per size).
struct ArrayDecl {
  std::string name;
  std::vector<Int> dims;  ///< extent per dimension, 0-based indexing
  int elem_size = 8;      ///< bytes per element (4 REAL, 8 DOUBLE PRECISION)
  /// Section 4.1.3: aliasing/reshaping can make restructuring illegal;
  /// such arrays must keep their original layout.
  bool transformable = true;

  Int elem_count() const;
};

/// Affine array reference: index(i) = access * i + offset.
struct ArrayRef {
  int array = -1;   ///< index into Program::arrays
  IntMatrix access;  ///< (array rank) x (nest depth)
  Vec offset;        ///< array rank

  Vec index(std::span<const Int> iter) const;
  std::string to_string(const struct Program& prog) const;
};

/// Convenience: build an ArrayRef whose dimension d reads loop variable
/// `dims[d].first` scaled by 1 with offset `dims[d].second`; a loop index
/// of -1 means the dimension is a constant equal to the offset.
ArrayRef simple_ref(int array, int depth,
                    const std::vector<std::pair<int, Int>>& dims);

/// One assignment statement: write = eval(reads). Every statement has both;
/// compile and run_reference reject one without an evaluator. Every engine
/// executes the evaluator: the reference interpreter and the simulator
/// once per instance, the native backend through its run loops. The
/// simulator's timing needs only the reference structure and the compute
/// cost.
struct Stmt {
  std::vector<ArrayRef> reads;
  ArrayRef write;
  double compute_cycles = 4.0;  ///< scalar FP work per execution
  StmtEval eval;
  /// Imperfect-nest support: the statement executes once per iteration of
  /// the outermost `depth` loops, positioned before the deeper loop body
  /// (-1 = full nest depth). Access matrices still have full-depth columns
  /// (zero on the unused inner loops).
  int depth = -1;

  int effective_depth(int nest_depth) const {
    return depth < 0 ? nest_depth : depth;
  }

  /// The imperfect-nest firing rule at one iteration of a
  /// for_each_iteration walk: the statement executes when every loop
  /// deeper than its depth sits at its lower bound.
  bool fires(std::span<const Int> iter, std::span<const Int> lower) const {
    const int d = static_cast<int>(iter.size());
    for (int k = effective_depth(d); k < d; ++k)
      if (iter[static_cast<size_t>(k)] != lower[static_cast<size_t>(k)])
        return false;
    return true;
  }
};

/// One affine bound: expr / divisor, rounded up (lower bounds) or down
/// (upper bounds). Divisors > 1 arise from Fourier–Motzkin bound
/// generation after unimodular transforms.
struct Bound {
  AffineExpr expr;
  Int divisor = 1;
};

/// One loop of a nest with inclusive affine bounds. A loop may carry
/// several lower/upper bounds (the effective bound is their max/min
/// respectively) — Fourier–Motzkin bound generation after a unimodular
/// transform naturally produces such bound sets.
struct Loop {
  std::string var_name;
  std::vector<Bound> lowers;  ///< effective lower = max of ceil(expr/div)
  std::vector<Bound> uppers;  ///< effective upper = min of floor(expr/div)

  Int lower_bound(std::span<const Int> iter) const;
  Int upper_bound(std::span<const Int> iter) const;
};

/// Convenience constructor for the common single-bound case.
Loop loop(std::string var_name, AffineExpr lower, AffineExpr upper);

/// A perfectly nested affine loop nest executing `stmts` in order per
/// iteration of the full index vector.
struct LoopNest {
  std::string name;
  std::vector<Loop> loops;  ///< outermost first
  std::vector<Stmt> stmts;
  /// Static execution-frequency weight; the decomposition's cost model
  /// weights this nest's work and communication by it, where the paper
  /// orders its greedy constraint processing by it (§3.2: "starting with
  /// the constraints among the more frequently executed loops").
  long frequency = 1;

  int depth() const { return static_cast<int>(loops.size()); }
};

/// A program: arrays plus a sequence of nests, the whole sequence repeated
/// `time_steps` times (the outer sequential time loop of stencil codes).
struct Program {
  std::string name;
  std::vector<ArrayDecl> arrays;
  std::vector<LoopNest> nests;
  int time_steps = 1;

  const ArrayDecl& array(int id) const;
  int array_id(const std::string& name) const;
  std::string to_string() const;
};

/// Throws Error(kInvalidArgument), naming the nest and the statement, when
/// a statement of `prog` has no evaluator.
void require_evaluators(const Program& prog);

/// Walk every iteration of `nest` in original (lexicographic) order,
/// invoking fn(iter, lower), where lower[k] is loop k's lower bound for
/// the current outer prefix (Stmt::fires applies it). Each bound is
/// computed once per entry into its loop, not once per iteration. The one
/// nest walk of the reference executor and the dependence tests; the
/// traversal kernel keeps its own, so the reference stays independent.
template <typename Fn>
void for_each_iteration(const LoopNest& nest, Fn&& fn) {
  const size_t depth = nest.loops.size();
  if (depth == 0) return;
  std::vector<Int> iter(depth), lower(depth), upper(depth);
  size_t level = 0;
  iter[0] = lower[0] = nest.loops[0].lower_bound(iter);
  upper[0] = nest.loops[0].upper_bound(iter);
  for (;;) {
    if (iter[level] > upper[level]) {
      if (level == 0) return;
      ++iter[--level];
    } else if (level + 1 == depth) {
      fn(std::span<const Int>(iter), std::span<const Int>(lower));
      ++iter[level];
    } else {
      const Loop& lp = nest.loops[++level];
      iter[level] = lower[level] = lp.lower_bound(iter);
      upper[level] = lp.upper_bound(iter);
    }
  }
}

/// Walk an array's index space in column-major (linear) order:
/// fn(idx, linear index). Calls nothing for an empty array.
template <typename Fn>
void for_each_element(const ArrayDecl& decl, Fn&& fn) {
  const Int n = decl.elem_count();
  std::vector<Int> idx(decl.dims.size(), 0);
  for (Int linear = 0; linear < n; ++linear) {
    fn(std::span<const Int>(idx), linear);
    for (size_t k = 0; k < idx.size() && ++idx[k] == decl.dims[k]; ++k)
      idx[k] = 0;
  }
}

/// Fluent builder used by the application kernels.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  int array(const std::string& name, std::vector<Int> dims, int elem_size = 8,
            bool transformable = true);
  LoopNest& nest(const std::string& name, long frequency = 1);
  void set_time_steps(int steps);

  Program build();

 private:
  Program prog_;
};

}  // namespace dct::ir
