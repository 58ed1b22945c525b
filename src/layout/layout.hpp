// Data transformation framework (paper Section 4).
//
// An n-dimensional array is an n-dimensional polytope of index points with
// a significant axis order (column-major linearization, 0-based). Two
// primitive transforms restructure it:
//
//  * strip-mining (4.1.1): dimension of extent d with strip size b becomes
//    two dimensions (i mod b, i div b) of extents b and ceil(d/b);
//  * permutation (4.1.2): reorder the dimensions (and bounds) by a
//    permutation matrix.
//
// A Layout is a composition of these primitives; it maps an original index
// vector to a linear address in the restructured array. The layout
// algorithm (4.2) derives, per distributed dimension, the strip-mine +
// permute sequence that makes each processor's data contiguous in the
// shared address space:
//
//   BLOCK:        strip by ceil(d/P); processor id = second new dim
//   CYCLIC:       strip by P;         processor id = first new dim
//   BLOCK-CYCLIC: strip by b then by P; processor id = middle new dim
//
// then moves the processor-identifying dimension to the rightmost
// (slowest-varying) position, skipping the transform entirely when the
// highest dimension is BLOCK-distributed (it is already rightmost).
#pragma once

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "decomp/decomposition.hpp"
#include "ir/program.hpp"

namespace dct::layout {

using linalg::Int;

/// Strip-mine primitive: splits `dim` (extent d) into (i mod size) at
/// position `dim` and (i div size) at position `dim`+1.
struct StripMine {
  int dim;
  Int size;
};

/// Permutation primitive: new dimension k is old dimension perm[k].
struct Permute {
  std::vector<int> perm;
};

using Transform = std::variant<StripMine, Permute>;

/// A composed data transformation of one array.
class Layout {
 public:
  /// Identity layout of an array with the given extents.
  static Layout identity(std::vector<Int> dims);

  /// Throws kInvalidArgument, leaving the layout as it was, when the strip
  /// size does not divide the modulus of the dimension it strips: the
  /// result would have no closed form (dim_functions()).
  void apply(const StripMine& sm);
  void apply(const Permute& p);

  /// Extents of the restructured array.
  const std::vector<Int>& dims() const { return dims_; }
  /// Total element count of the restructured array (>= the original
  /// count: ceil padding from strip-mining).
  Int size() const;
  /// True when no transform has been applied.
  bool is_identity() const { return steps_.empty(); }
  const std::vector<Transform>& steps() const { return steps_; }

  /// Restructured index vector of an original element, by interpreting
  /// steps() one transform at a time (never the closed form): the
  /// reference the oracle checks the closed form against.
  std::vector<Int> map_index(std::span<const Int> index) const;
  /// The same into `out`, with `scratch` for permutations: callers that
  /// map many indices reuse both buffers.
  void map_index(std::span<const Int> index, std::vector<Int>& out,
                 std::vector<Int>& scratch) const;
  /// Column-major linear address of an original element in the
  /// restructured array, by the closed form dim_functions(). Throws when a
  /// restructured coordinate falls outside dims().
  Int linearize(std::span<const Int> index) const;

  std::string to_string() const;

  /// Closed form of one restructured dimension: value = (orig[src] / div)
  /// mod `mod` (mod == 0 means no modulus). Every layout has one (apply
  /// rejects a strip that would break it), which is what makes the
  /// Section 4.3 address optimizations and the runtime's incremental
  /// address walkers applicable.
  struct DimFn {
    int src;
    Int div = 1;
    Int mod = 0;
  };
  const std::vector<DimFn>& dim_functions() const { return fns_; }

  /// Column-major element strides of the restructured dimensions:
  /// strides()[k] multiplies dim_functions()[k]'s value in linearize().
  std::vector<Int> strides() const;

 private:
  std::vector<Int> dims_;
  std::vector<Transform> steps_;
  std::vector<DimFn> fns_;
};

/// The layout algorithm of Section 4.2: derive the restructured layout of
/// one array from its data decomposition and the processor grid extents.
/// Arrays that are not transformable (Section 4.1.3), replicated or
/// undistributed keep the identity layout. When `rs` is given, each
/// primitive applied (and each skip decision) is reported as a remark.
Layout derive_layout(const ir::ArrayDecl& decl,
                     const decomp::ArrayDecomposition& ad,
                     std::span<const int> grid_extents,
                     support::RemarkSink* rs = nullptr);

/// Owner coordinates of an array element under a decomposition: for each
/// virtual processor dimension, the folded coordinate, or -1 when the
/// array does not bind it.
struct Partition {
  struct Dim {
    int proc_dim = -1;
    Int extent = 0;  ///< array extent along this dim
    /// The processor dimension's fold (kind Serial when unbound): the one
    /// the lowered schedule binds for that dimension.
    decomp::CoordFold fold;
  };
  std::vector<Dim> dims;
  int num_proc_dims = 0;

  /// Fold one coordinate of dimension `k`; -1 when the dimension is Serial.
  int fold(int k, Int idx) const;
  /// Processor rank of the owner: its coordinates weighted by their folds'
  /// mixed-radix strides.
  int rank(std::span<const Int> index) const;
};

/// The partition of one array: dimension k distributed onto processor
/// dimension pd folds by its kind over grid_extents[pd] processors with
/// mixed-radix stride strides[pd].
Partition make_partition(const ir::ArrayDecl& decl,
                         const decomp::ArrayDecomposition& ad,
                         std::span<const int> grid_extents,
                         std::span<const int> strides, int num_proc_dims);

// ---------------------------------------------------------------------------
// Address-calculation cost model (Section 4.3)
// ---------------------------------------------------------------------------

/// How the generated SPMD code computes transformed-array subscripts.
enum class AddrStrategy {
  Naive,     ///< mod and div on every access
  Hoisted,   ///< loop-invariant mod/div moved out of inner loops
  Optimized  ///< strip-range recognition, peeling, strength reduction
};

/// Per-access integer-operation overhead (cycles) of computing the
/// restructured address of `ref` inside `nest` under `strategy`. Derived
/// analytically from which loop varies each transformed dimension and how
/// often the strip boundaries are crossed; the same quantities the paper's
/// optimizations (4.3) act on.
double address_overhead(const ir::LoopNest& nest, const ir::ArrayRef& ref,
                        const Layout& layout, AddrStrategy strategy);

}  // namespace dct::layout
