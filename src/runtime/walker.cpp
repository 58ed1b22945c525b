#include "runtime/walker.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace dct::runtime {

using linalg::floor_div;
using linalg::floor_mod;

void RefWalker::build(const ir::ArrayRef& ref, const layout::Layout& layout) {
  ref_ = &ref;
  const int rank = ref.access.rows();
  const int depth = ref.access.cols();
  subs_.assign(static_cast<size_t>(rank), 0);
  dims_.clear();
  active_.clear();
  inner_delta_ = 0;
  addr_ = 0;

  const std::vector<layout::Layout::DimFn>& fns = layout.dim_functions();
  const std::vector<Int> strides = layout.strides();
  for (size_t k = 0; k < fns.size(); ++k) {
    const layout::Layout::DimFn& f = fns[k];
    DCT_CHECK(f.src >= 0 && f.src < rank, "layout reads a missing subscript");
    InitDim d;
    d.src = f.src;
    d.div = f.div;
    d.mod = f.mod;
    d.stride = strides[k];
    const Int c = depth > 0 ? ref.access.at(f.src, depth - 1) : 0;
    if (c != 0) {
      if (f.div == 1 && f.mod == 0) {
        // Untransformed dimension: its contribution changes by a constant
        // every iteration — fold it into one add.
        inner_delta_ += c * d.stride;
      } else {
        d.active = static_cast<int>(active_.size());
        active_.push_back(DimState{f.div, f.mod, d.stride, c});
      }
    }
    dims_.push_back(d);
  }
}

void RefWalker::init(std::span<const Int> iter, Int owned_stride) {
  const ir::ArrayRef& ref = *ref_;
  for (size_t r = 0; r < subs_.size(); ++r) {
    const std::span<const Int> row = ref.access.row(static_cast<int>(r));
    Int v = ref.offset[r];
    for (size_t k = 0; k < row.size(); ++k) v += row[k] * iter[k];
    subs_[r] = v;
  }
  addr_ = 0;
  for (const InitDim& d : dims_) {
    const Int s = subs_[static_cast<size_t>(d.src)];
    const Int q = floor_div(s, d.div);
    const Int v = d.mod != 0 ? floor_mod(q, d.mod) : q;
    addr_ += v * d.stride;
    if (d.active >= 0) {
      DimState& st = active_[static_cast<size_t>(d.active)];
      st.rem = s - q * d.div;
      st.v = v;
    }
  }
  // Split each step's subscript advance c * owned_stride into whole
  // strips q (rounded toward zero) and a remainder r. Modulo the
  // dimension's modulus, q is what v gains per step until it wraps; a q
  // that is a multiple of the modulus (LU's j mod 4 under owned stride 4)
  // adds nothing and never wraps.
  delta_ = inner_delta_ * owned_stride;
  for (DimState& st : active_) {
    st.step = st.c * owned_stride;
    st.q = st.step / st.div;
    st.r = st.step - st.q * st.div;
    if (st.mod != 0) st.q %= st.mod;
    delta_ += st.q * st.stride;
  }
  run_ = run_length();
}

void RefWalker::resync(Int n) {
  for (DimState& d : active_) {
    const Int t = d.rem + n * d.step;
    const Int k = floor_div(t, d.div);  // strips advanced, crossings included
    d.rem = t - k * d.div;
    const Int v = d.mod != 0 ? floor_mod(d.v + k, d.mod) : d.v + k;
    // The run's adds credited n * q for this dimension.
    addr_ += (v - d.v - n * d.q) * d.stride;
    d.v = v;
  }
  run_ = run_length();
}

Int RefWalker::run_length() const {
  Int run = kEndlessRun;
  for (const DimState& d : active_) {
    // Further steps before rem leaves [0, div) or v leaves [0, mod).
    Int k = kEndlessRun;
    if (d.r > 0)
      k = (d.div - 1 - d.rem) / d.r;
    else if (d.r < 0)
      k = d.rem / -d.r;
    if (d.q > 0 && d.mod != 0)
      k = std::min(k, (d.mod - 1 - d.v) / d.q);
    else if (d.q < 0 && d.mod != 0)
      k = std::min(k, d.v / -d.q);
    if (k != kEndlessRun) run = std::min(run, k + 1);
  }
  return run;
}

}  // namespace dct::runtime
