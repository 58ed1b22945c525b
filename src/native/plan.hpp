// Scheduling plan for the native threaded SPMD backend.
//
// The simulator can interleave processors freely because it executes
// sequentially; real threads cannot. This layer derives, for every
// compiled nest, the synchronization that makes the SPMD walk race-free
// from the nest's statement-attributed dependence vectors, which
// dep::parallelize stored with the nest (ParallelizedNest::pairs): the
// plan folds them and analyzes nothing itself. The nest, its statements
// and its pairs come from that one record (cp.dec().par[j]); cp.nests[j]
// holds each statement's owners in the same order, so a pair's statement
// indices name both. The
// backend implements every shape below with one primitive, per-thread
// monotonic epoch counters (native.hpp): a post publishes "this thread is
// past sync event n", a wait blocks until one thread has posted n, and a
// barrier is a post followed by a wait on every thread. The shapes and
// the dependence condition each one needs:
//
//  * barrier_level BL — a barrier after every iteration of loop BL orders
//    every dependence carried at levels <= BL across threads (the classic
//    "synchronize the outer sequential loop" schedule, e.g. LU's k loop).
//    Dependences into a gated statement count toward BL.
//  * gate=post(owner) — gated statements (depth < nest depth, the paper's
//    imperfect nests: LU's pivot column) fire once per prefix; when another
//    owner depends on one, after each firing its owner posts and every
//    other thread waits on that owner only. That orders every dependence
//    out of the gated statement. A dependence into it from another owner
//    must be ordered already: carried at or above BL, or loop-independent
//    from a full-depth statement listed after it (the gated statement
//    fires at the first inner iteration, ahead of every such instance).
//    A loop-independent one from a statement listed before it makes the
//    nest Sequential.
//  * doacross — a dependence carried by the innermost loop, when that loop
//    is BLOCK-owned: each thread walks only its own block and, per
//    iteration of the enclosing loops, waits for the owner of the previous
//    block (digit-1) to post that iteration (ADI's row sweep, the paper's
//    pipelined doacross). Legal when every vector between different
//    owners has distance exactly 0 at the outer levels and a distance in
//    [1, block] at the owner level, so its source lies in the thread's own
//    block or the previous one.
//  * Sequential — the fallback for shapes the rules above cannot order
//    (a loop-independent dependence between full-depth statements of
//    different owners or into a later gated statement, an
//    innermost-carried dependence that is not a doacross): thread 0 runs
//    the whole nest between barriers.
//
// Dependences between statements owned by the same processor for both
// endpoints need no synchronization: the owning thread executes them in
// walk order, which is sequential order.
//
// Independently of synchronization, a nest may be *restricted*: each
// thread walks only its own iterations of one decomposed loop (BLOCK
// bounds / CYCLIC strides over myid, from CoordFold::block_lo/digit_of)
// instead of filtering the full space. Restriction is a pruning
// optimization only — the owner filter stays on — and is legal when the
// full-depth statements share one owner signature and the restricted level
// is deeper than every synchronized level, so every thread counts the same
// sync events. Gated statements must be listed first for an innermost
// restriction (they fire before the owned slice is walked); for an outer
// one they must share the level's fold and not synchronize.
#pragma once

#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace dct::native {

using linalg::Int;

enum class NestSchedule { Parallel, Sequential };

/// How gated-statement firings synchronize.
enum class GateSync {
  None,  ///< no firing syncs: no other owner depends on one
  Post,  ///< the owner posts after firing; the others wait on it
};

/// One loop level walked per thread over its own iterations (BLOCK bounds
/// / CYCLIC strides over its grid digit), or the owner level of a doacross.
struct NestRestriction {
  int level = -1;
  core::CoordFold fold;  ///< identical across the nest's statements
};

struct NestPlan {
  NestSchedule schedule = NestSchedule::Parallel;
  /// Barrier after each iteration of this loop level; -1 = none needed.
  int barrier_level = -1;
  GateSync gate = GateSync::None;
  /// Doacross over the BLOCK-owned innermost level (level -1 = none): per
  /// iteration of the enclosing loop, each thread waits for the thread
  /// holding the previous digit of `fold`, then posts.
  NestRestriction doacross;
  /// Every owner-bound level the walk can prune (empty = full walk +
  /// owner filter). All levels are deeper than every synchronized level so
  /// sync counts stay uniform across threads.
  std::vector<NestRestriction> restrictions;
  /// Classification rationale naming the sync chosen (remarks and tests).
  std::string why;
};

struct ProgramPlan {
  std::vector<NestPlan> nests;
  int sequential_nests = 0;
};

/// Classify every nest of a compiled program from its record in cp.dec().par
/// (the nest and its pair vectors) and its statements' owners. A pure
/// fold: never fails (unanalyzable shapes fall back to Sequential).
ProgramPlan plan_program(const core::CompiledProgram& cp);

}  // namespace dct::native
