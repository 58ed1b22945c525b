// Incremental address walkers (the paper's Section 4.3 strength reduction,
// applied to the simulator's own hot loop).
//
// A restructured address is sum_k v_k * stride_k where each restructured
// dimension has the closed form v_k = (s / div_k) mod mod_k over one affine
// subscript s of the reference. Re-evaluating that per access costs a div
// and a mod per distributed dimension (Layout::linearize). But along the
// innermost loop every subscript advances by a constant, and inside one
// strip the strip index is constant too, so the address is affine in the
// loop index: the paper's strip-range recognition. The walker exploits it
// with runs. A run is the stretch of steps over which no strip-mined
// subscript crosses its strip and no modded value wraps; inside it every
// step is one add of a constant delta. The traversal kernel splits its
// innermost loop at run ends (the paper's loop splitting/peeling) and calls
// finish_run() there, which re-derives the strip state with one floor_div
// per strip-mined dimension whatever the number of strips crossed.
//
// A walker is built once per (nest, statement, reference) before the
// iteration-space walk, from the reference and the layout's closed form
// (Layout::dim_functions), the same one Layout::linearize evaluates, so
// results are bit-identical by construction.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "ir/program.hpp"
#include "layout/layout.hpp"

namespace dct::runtime {

using linalg::Int;

/// run() of a walker whose address is affine over the whole loop.
inline constexpr Int kEndlessRun = std::numeric_limits<Int>::max();

class RefWalker {
 public:
  /// Prepare the walker for `ref`, whose access matrix has one column per
  /// loop of its nest, through the layout of its array. `ref` must outlive
  /// the walker's use.
  void build(const ir::ArrayRef& ref, const layout::Layout& layout);

  /// Position the walker at iteration `iter` (full iteration vector, the
  /// innermost coordinate included); each step then advances the innermost
  /// coordinate by `owned_stride` (1, or P for a CYCLIC slice). One
  /// div/mod per dimension — amortized over the innermost segment.
  void init(std::span<const Int> iter, Int owned_stride = 1);

  /// Linearized element address at the current position; equals
  /// layout.linearize(subscripts(iter)) at every position of a run.
  Int addr() const { return addr_; }

  /// Positions, from the current one on, whose addresses are addr(),
  /// addr() + delta, ...: at least 1, kEndlessRun when no strip-mined
  /// dimension ever crosses or wraps.
  Int run() const { return run_; }

  /// True when a strip-mined dimension moves with the innermost loop:
  /// only then can a run end.
  bool walks_strips() const { return !active_.empty(); }

  /// Advance one step inside the run.
  void step() { addr_ += delta_; }

  /// Advance n steps inside the run at once (a whole run loop's worth).
  void step(Int n) { addr_ += n * delta_; }

  /// Address change per step inside a run.
  Int delta() const { return delta_; }

  /// After n step()s since the last init / finish_run (n may exceed
  /// run()): make addr() exact again and start the next run.
  void finish_run(Int n) {
    if (!active_.empty()) resync(n);
  }

  /// Skip n steps without visiting them (gaps between BLOCK-CYCLIC runs);
  /// call right after init or finish_run.
  void jump(Int n) {
    addr_ += n * delta_;
    finish_run(n);
  }

 private:
  /// Strip-mined dimension whose subscript varies with the innermost loop:
  /// strip state for v = (s / div) mod mod.
  struct DimState {
    Int div = 1;
    Int mod = 0;     ///< 0 = no modulus
    Int stride = 0;  ///< column-major element stride of this dimension
    Int c = 0;       ///< subscript delta per innermost iteration
    Int step = 0;    ///< subscript delta per step: c * owned stride
    Int q = 0;       ///< change of v per step inside a run (mod-reduced)
    Int r = 0;       ///< change of rem per step inside a run, |r| < div
    Int rem = 0;     ///< s mod div at the run's start, in [0, div)
    Int v = 0;       ///< dimension value at the run's start
  };

  /// finish_run for a walker with strip-mined dimensions.
  void resync(Int n);
  /// Length of the run starting at the current strip state.
  Int run_length() const;

  /// Everything needed to (re)initialize one restructured dimension.
  struct InitDim {
    int src = 0;  ///< subscript row the dimension reads
    Int div = 1;
    Int mod = 0;
    Int stride = 0;
    int active = -1;  ///< index into active_, -1 when not stepped
  };

  const ir::ArrayRef* ref_ = nullptr;
  std::vector<InitDim> dims_;
  std::vector<DimState> active_;
  std::vector<Int> subs_;  ///< scratch: subscript per row during init
  Int inner_delta_ = 0;    ///< per-iteration delta of the untransformed dims
  Int delta_ = 0;          ///< per-step address delta inside a run
  Int addr_ = 0;
  Int run_ = kEndlessRun;
};

}  // namespace dct::runtime
