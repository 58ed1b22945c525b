// Incremental address walkers (the paper's Section 4.3 strength reduction,
// applied to the simulator's own hot loop).
//
// A restructured address is sum_k v_k * stride_k where each restructured
// dimension has the closed form v_k = (s / div_k) mod mod_k over one affine
// subscript s of the reference. Re-evaluating that per access costs a div
// and a mod per distributed dimension (Layout::linearize). But along the
// innermost loop every subscript advances by a constant, so the address can
// be maintained with constant adds: untransformed dimensions contribute a
// precomputed per-step delta, and each strip-mined dimension keeps a small
// counter (rem, v) that is incremented and compared, with the wrap work done
// only at strip boundaries — exactly the strip-range recognition / mod-div
// strength reduction the paper applies to its generated SPMD code.
//
// A walker is built once per (nest, statement, reference) before the
// iteration-space walk; construction fails (and the traversal kernel
// falls back to Layout::linearize) for layouts with a non-simple
// dimension, so results are bit-identical by construction.
#pragma once

#include <span>
#include <vector>

#include "core/compiler.hpp"
#include "layout/layout.hpp"

namespace dct::runtime {

using linalg::Int;

class RefWalker {
 public:
  /// Prepare the walker for `ref` inside a nest of the given depth. Returns
  /// false when the layout cannot be walked incrementally (non-simple
  /// dimension); the walker must not be used then.
  bool build(const core::CompiledRef& ref, const layout::Layout& layout,
             int depth);

  /// Position the walker at iteration `iter` (full iteration vector, the
  /// innermost coordinate included). One div/mod per dimension — amortized
  /// over the innermost segment.
  void init(std::span<const Int> iter);

  /// Linearized element address at the current position; equals
  /// layout.linearize(subscripts(iter)) at every step.
  Int addr() const { return addr_; }

  /// Advance the innermost loop coordinate by one.
  void step() {
    addr_ += inner_delta_;
    for (DimState& d : active_) {
      d.rem += d.c;
      settle(d);
    }
  }

  /// Advance the innermost loop coordinate by `n` steps at once (CYCLIC
  /// per-thread strides, jumps between owned BLOCK-CYCLIC runs). The wrap
  /// loops run once per strip boundary crossed, so a jump costs the same
  /// boundary work the skipped iterations would have.
  void step_n(Int n) {
    addr_ += inner_delta_ * n;
    for (DimState& d : active_) {
      d.rem += d.c * n;
      settle(d);
    }
  }

 private:
  /// Strip-mined dimension whose subscript varies with the innermost loop:
  /// incremental state for v = (s / div) mod mod.
  struct DimState {
    Int div = 1;
    Int mod = 0;     ///< 0 = no modulus
    Int stride = 0;  ///< column-major element stride of this dimension
    Int c = 0;       ///< subscript delta per innermost step
    Int rem = 0;     ///< s mod div, kept in [0, div)
    Int v = 0;       ///< current dimension value
  };
  /// Carry strip-counter overflow/underflow into the address after an
  /// increment of d.rem (any magnitude).
  void settle(DimState& d) {
    while (d.rem >= d.div) {
      d.rem -= d.div;
      ++d.v;
      addr_ += d.stride;
      if (d.mod != 0 && d.v == d.mod) {
        d.v = 0;
        addr_ -= d.mod * d.stride;
      }
    }
    while (d.rem < 0) {
      d.rem += d.div;
      --d.v;
      addr_ -= d.stride;
      if (d.mod != 0 && d.v < 0) {
        d.v = d.mod - 1;
        addr_ += d.mod * d.stride;
      }
    }
  }

  /// Everything needed to (re)initialize one restructured dimension.
  struct InitDim {
    int src = 0;  ///< subscript row the dimension reads
    Int div = 1;
    Int mod = 0;
    Int stride = 0;
    int active = -1;  ///< index into active_, -1 when not stepped
  };

  const core::CompiledRef* ref_ = nullptr;
  std::vector<InitDim> dims_;
  std::vector<DimState> active_;
  std::vector<Int> subs_;  ///< scratch: subscript per row during init
  Int inner_delta_ = 0;    ///< per-step delta of the untransformed dims
  Int addr_ = 0;
  int depth_ = 0;
};

}  // namespace dct::runtime
