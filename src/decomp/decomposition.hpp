// Computation and data decomposition (paper Section 3).
//
// Finds affine mappings of loop iterations (computation decomposition G_j)
// and array elements (data decomposition D_x) onto a virtual processor
// space such that the no-communication condition (Equation 1)
//
//     for every reference F_jx in nest j:  D_x(F_jx(i)) = G_j(i)
//
// holds for as much of the program as possible, maximizing the degree of
// parallelism (rank of the mappings). Following the paper's implementation
// restriction, a single array dimension maps to one virtual processor
// dimension; decompositions are therefore expressible in HPF notation
// (DISTRIBUTE(BLOCK, *) etc.) and that is how we report them.
//
// The algorithm:
//   1. Unimodular preprocessing per nest (dep::parallelize).
//   2. Alignment grouping of (array, dimension) nodes that should share a
//      virtual processor dimension (via common indexing loops).
//   3. Selection of which groups to distribute by local search: from all
//      serial, flip the one group that most lowers a cost model of a
//      32-processor grid (work, communication and boundary traffic, each
//      nest weighted by its execution frequency), until no flip improves.
//      Communication (references that cannot satisfy Eq. 1) thus lands in
//      the least-executed code, the outcome the paper's greedy ordering
//      by frequency aims for. Read-only arrays are replicated.
//   4. Folding-function selection per virtual dimension: BLOCK by
//      default, CYCLIC when work per iteration grows/shrinks with the
//      iteration number (load balance, e.g. LU), BLOCK-CYCLIC when
//      pipelining needs both balance and granularity.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "dep/parallelize.hpp"
#include "ir/program.hpp"
#include "support/remark.hpp"

namespace dct::decomp {

using linalg::Int;

enum class DistKind { Serial, Block, Cyclic, BlockCyclic };
std::string to_string(DistKind kind);

/// Block size of `kind` folding `extent` values onto `procs` processors
/// (Section 3): BLOCK ceil(extent/procs), BLOCK-CYCLIC the given `block`,
/// CYCLIC (and Serial) 1; never below 1.
Int fold_block(DistKind kind, Int extent, int procs, Int block);

/// The folding function of one virtual processor dimension onto physical
/// ranks. It maps loop iterations (the lowered owner-computes schedule)
/// and array elements (layout::Partition) alike.
struct CoordFold {
  DistKind kind = DistKind::Serial;
  int procs = 1;    ///< grid extent of this dimension
  Int block = 1;    ///< BLOCK / BLOCK-CYCLIC block size
  Int offset = 0;   ///< subtracted before folding (Base: loop lower bound)
  int stride = 1;   ///< mixed-radix stride within the clique

  /// Physical coordinate of value v. Total: any Int (including values
  /// below the offset) maps into [0, procs) — BLOCK clamps, CYCLIC and
  /// BLOCK-CYCLIC wrap with floored division semantics.
  int fold(Int v) const;

  /// Digit of this fold encoded in physical rank `myid` (mixed-radix
  /// decode; the inverse of the `digit * stride` contribution to the
  /// owner sum).
  int digit_of(int myid) const { return (myid / stride) % procs; }

  /// First value whose unclamped BLOCK / BLOCK-CYCLIC block index is t.
  /// With block_hi these are the per-thread loop bounds the paper's
  /// generated SPMD code computes from myid (Section 3.3).
  Int block_lo(int t) const {
    return offset + static_cast<Int>(t) * std::max<Int>(1, block);
  }
  /// Last value in block t (inclusive).
  Int block_hi(int t) const { return block_lo(t + 1) - 1; }

  bool operator==(const CoordFold&) const = default;
};

/// Distribution of one array dimension.
struct DimDistribution {
  DistKind kind = DistKind::Serial;
  int proc_dim = -1;  ///< virtual processor dimension, -1 when Serial
  Int block = 0;      ///< block size for BlockCyclic
};

/// Data decomposition D_x of one array.
struct ArrayDecomposition {
  std::vector<DimDistribution> dims;
  bool replicated = false;  ///< read-only data replicated on every cluster

  int distributed_count() const;
  /// HPF-style rendering, e.g. "(*, CYCLIC)".
  std::string hpf_string() const;
};

enum class LoopSched {
  Sequential,   ///< executed (redundantly or by the owner) in order
  Distributed,  ///< DOALL split across a processor-grid dimension
  Pipelined     ///< doacross with point-to-point synchronization
};

struct LoopAssignment {
  LoopSched sched = LoopSched::Sequential;
  int proc_dim = -1;
  /// Work along this loop is triangular (its bounds vary with outer loops
  /// or inner bounds vary with it) — the fact folding-function selection
  /// acts on (BLOCK would load-imbalance).
  bool imbalanced = false;
};

/// Owner-computes mapping of one statement: for each virtual processor
/// dimension, the loop whose value gives the owner coordinate (-1 when the
/// statement does not constrain that dimension — it then inherits the
/// nest-level mapping). Imperfect nests (LU's divide) give different
/// statements of one nest different owners.
struct StmtMapping {
  std::vector<int> loop_for_dim;
};

/// Computation decomposition G_j of one (transformed) nest.
struct NestDecomposition {
  /// Nest-level schedule, from the dominant (most-executed) statement.
  std::vector<LoopAssignment> loops;
  std::vector<StmtMapping> stmts;  ///< per-statement owner mappings
  bool comm_free = true;  ///< Eq. 1 satisfied for all major references
  /// No nearest-neighbour boundary reads under the honored mapping (those
  /// cross owners even when Eq. 1 holds for the owner loop).
  bool boundary_free = true;
  /// Every reference to a written array has a dimension in each group the
  /// nest distributes, so no two processors touch one of its elements.
  bool owner_pinned = true;
  /// Synchronization optimization [Tseng 95]: the barrier after this nest
  /// can be dropped when the next nest's decomposition matches.
  bool barrier_after = true;
};

struct ProgramDecomposition {
  std::vector<dep::ParallelizedNest> par;  ///< transformed nests
  std::vector<NestDecomposition> nests;
  std::vector<ArrayDecomposition> arrays;
  int num_proc_dims = 0;  ///< number of virtual processor dimensions

  /// Grid folding data: virtual dimensions used *simultaneously* by some
  /// nest must split the physical processors among themselves; dimensions
  /// never co-active each get the full machine. For dimension i,
  /// `clique_size[i]` is the size of its co-activity clique and
  /// `clique_pos[i]` its position — the runtime computes the physical
  /// extent as factor_grid(P, clique_size)[clique_pos].
  std::vector<int> clique_size;
  std::vector<int> clique_pos;
  std::vector<int> clique_id;  ///< clique identifier per dimension
  /// Physical extent of each virtual dimension for `procs` processors.
  std::vector<int> grid_extents(int procs) const;

  std::string to_string(const ir::Program& prog) const;
};

/// Near-square factorization of p into `dims` grid extents (descending),
/// e.g. factor_grid(32, 2) == {8, 4}.
std::vector<int> factor_grid(int p, int dims);

/// The paper's full global algorithm (Section 3): parallelizes every nest,
/// then runs decompose_from + select_folds + eliminate_barriers.
ProgramDecomposition decompose(const ir::Program& prog);

// --- the stages compile() runs one at a time ---
//
// decompose() above is the one-shot entry point; compile() calls these
// individually (and decompose_base_from for the BASE mode) so each stage
// gets its own wall time and remarks.

/// Alignment grouping + global group selection + computation mapping, on
/// nests already parallelized by the caller. Distributed dimensions come
/// out BLOCK with load-imbalance facts recorded (see select_folds); every
/// nest keeps its barrier (see eliminate_barriers).
ProgramDecomposition decompose_from(std::vector<dep::ParallelizedNest> par,
                                    const ir::Program& prog,
                                    support::RemarkSink* rs = nullptr);

/// The BASE compiler of the evaluation (Section 6.1) over pre-parallelized
/// nests: each nest analyzed in isolation, outermost parallel loop
/// block-distributed, data layouts untouched, a barrier after every nest.
ProgramDecomposition decompose_base_from(
    std::vector<dep::ParallelizedNest> par, const ir::Program& prog,
    support::RemarkSink* rs = nullptr);

/// Folding-function selection per virtual dimension: BLOCK by default,
/// CYCLIC when a distributed loop is load-imbalanced, BLOCK-CYCLIC when a
/// pipelined loop needs both balance and granularity.
void select_folds(const ir::Program& prog, ProgramDecomposition& d,
                  support::RemarkSink* rs = nullptr);

/// Barrier elimination [Tseng 95]: drop the barrier after a nest when no
/// data can flow across processors into the next one (cyclically, matching
/// the time-loop steady state).
void eliminate_barriers(ProgramDecomposition& d,
                        support::RemarkSink* rs = nullptr);

/// Virtual-processor coordinates of an array element under D_x; nullopt
/// when the array is replicated or fully serial.
std::optional<linalg::Vec> data_coords(const ProgramDecomposition& d,
                                       int array, std::span<const Int> index);

}  // namespace dct::decomp
