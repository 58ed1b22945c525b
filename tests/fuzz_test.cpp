// Differential program fuzzer (tier-1 smoke): seeded random affine
// programs are compiled in all three modes (and FULL refolded to CYCLIC
// and BLOCK-CYCLIC) and executed by both engines and the native threaded
// backend;
// any divergence from the sequential reference is shrunk to a minimal
// repro and reported with its seed.
//
// Knobs: DCT_FUZZ_SEED (base seed, default 20260807), DCT_FUZZ_COUNT
// (number of programs, default 50 — CI's fuzz-smoke job raises it),
// DCT_FUZZ_REPRO_OUT (write minimized repros to this file for triage).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "verify/progen.hpp"

namespace dct::verify {
namespace {

TEST(Fuzz, GeneratorIsDeterministic) {
  const ir::Program a = generate_program(1234);
  const ir::Program b = generate_program(1234);
  EXPECT_EQ(a.to_string(), b.to_string());
  const ir::Program c = generate_program(1235);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(Fuzz, GeneratedProgramsAreInBounds) {
  // Every reference of every generated program must stay inside its
  // array for every executed iteration — the generator's core contract.
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const ir::Program prog = generate_program(seed);
    ASSERT_FALSE(prog.nests.empty());
    for (const ir::LoopNest& nest : prog.nests) {
      ir::for_each_iteration(nest, [&](std::span<const linalg::Int> iter,
                                       std::span<const linalg::Int>) {
        for (const ir::Stmt& stmt : nest.stmts) {
          auto check_ref = [&](const ir::ArrayRef& ref) {
            const linalg::Vec idx = ref.index(iter);
            const ir::ArrayDecl& decl = prog.array(ref.array);
            ASSERT_EQ(idx.size(), decl.dims.size());
            for (size_t k = 0; k < idx.size(); ++k) {
              ASSERT_GE(idx[k], 0) << prog.name;
              ASSERT_LT(idx[k], decl.dims[k]) << prog.name;
            }
          };
          for (const ir::ArrayRef& r : stmt.reads) check_ref(r);
          check_ref(stmt.write);
        }
      });
    }
  }
}

TEST(Fuzz, ShrinkerFindsMinimalRepro) {
  // Drive the shrinker with a synthetic failure predicate ("some
  // statement reads array 0") and check it reaches the minimal program:
  // one nest, one statement, one read.
  const auto reads_a0 =
      [](const ir::Program& p) -> std::optional<std::string> {
    for (const ir::LoopNest& nest : p.nests)
      for (const ir::Stmt& stmt : nest.stmts)
        for (const ir::ArrayRef& r : stmt.reads)
          if (r.array == 0) return "reads a0";
    return std::nullopt;
  };
  // Find a seed whose program trips the predicate with some redundancy.
  for (std::uint64_t seed = 0;; ++seed) {
    ASSERT_LT(seed, 500u) << "no generated program reads array 0?";
    const ir::Program prog = generate_program(seed);
    if (!reads_a0(prog)) continue;
    const ir::Program small = shrink_program(prog, reads_a0);
    ASSERT_TRUE(reads_a0(small));  // shrinking preserved the failure
    EXPECT_EQ(small.nests.size(), 1u);
    EXPECT_EQ(small.nests[0].stmts.size(), 1u);
    size_t reads = 0;
    for (const ir::ArrayRef& r : small.nests[0].stmts[0].reads)
      reads += r.array == 0 ? 1 : 0;
    EXPECT_EQ(small.nests[0].stmts[0].reads.size(), 1u);
    EXPECT_EQ(reads, 1u);
    EXPECT_EQ(small.time_steps, 1);
    break;
  }
}

TEST(Fuzz, DifferentialSweepFindsNoDivergence) {
  // A non-numeric DCT_FUZZ_SEED or DCT_FUZZ_COUNT throws, failing the test.
  const char* seed_env = std::getenv("DCT_FUZZ_SEED");
  const char* count_env = std::getenv("DCT_FUZZ_COUNT");
  const char* repro_env = std::getenv("DCT_FUZZ_REPRO_OUT");
  const std::uint64_t base =
      static_cast<std::uint64_t>(seed_env ? std::stol(seed_env) : 20260807);
  const long count = count_env ? std::stol(count_env) : 50;
  const std::string repro_out = repro_env ? repro_env : "";
  long divergences = 0;
  CheckCoverage cov;
  for (long i = 0; i < count; ++i) {
    const std::optional<Divergence> d =
        fuzz_one(base + static_cast<std::uint64_t>(i), &cov);
    if (d) {
      ++divergences;
      ADD_FAILURE() << "seed " << d->seed << ": " << d->detail
                    << "\nminimal repro:\n" << d->program.to_string();
      if (!repro_out.empty()) {
        std::ofstream out(repro_out, std::ios::app);
        out << "seed " << d->seed << ": " << d->detail
            << "\nminimal repro:\n" << d->program.to_string() << "\n";
      }
    }
  }
  EXPECT_EQ(divergences, 0) << "replay with DCT_FUZZ_SEED=" << base;
  // Every slice kind of the traversal kernel must have walked a
  // strip-mined layout, or the sweep proves nothing about its runs.
  const char* const kinds[] = {"BLOCK", "CYCLIC", "BLOCK-CYCLIC"};
  for (int k = 0; k < 3; ++k) {
    std::cout << "[ fuzz ] innermost " << kinds[k]
              << " slices crossing strips: " << cov.strip_slices[k] << "\n";
    EXPECT_GT(cov.strip_slices[k], 0)
        << "no innermost " << kinds[k] << " slice walked a strip-mined layout";
  }
  std::cout << "[ fuzz ] refolded decompositions rejected: "
            << cov.refold_skips << "\n";
  // Some generated nest must hold independent statements, or the sweep
  // never runs the split run loops against the reference.
  std::cout << "[ fuzz ] native instances in split run loops: "
            << cov.split_instances << "\n";
  EXPECT_GT(cov.split_instances, 0) << "no split run loop ran";
}

}  // namespace
}  // namespace dct::verify
