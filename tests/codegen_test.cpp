// Tests for the SPMD code emission: the paper's code shapes must appear.
#include "codegen/codegen.hpp"

#include <gtest/gtest.h>

#include "apps/apps.hpp"

namespace dct::codegen {
namespace {

TEST(Codegen, BaseModeBlockLoop) {
  const auto cp = core::compile(apps::figure1(32, 1), core::Mode::Base, 4);
  const std::string code = emit_program(cp);
  EXPECT_NE(code.find("BLOCK over 4 procs"), std::string::npos);
  EXPECT_NE(code.find("barrier()"), std::string::npos);
  EXPECT_NE(code.find("float A[32][32]"), std::string::npos);
}

TEST(Codegen, FullModeRestructuredArray) {
  const auto cp = core::compile(apps::lu(32), core::Mode::Full, 4);
  const std::string code = emit_program(cp);
  // LU's A is restructured: declared linear with a layout comment, and
  // subscripts become linearized addresses.
  EXPECT_NE(code.find("restructured"), std::string::npos);
  EXPECT_NE(code.find("A["), std::string::npos);
  EXPECT_NE(code.find("CYCLIC over 4 procs"), std::string::npos);
}

TEST(Codegen, NaiveStrategySpellsModDiv) {
  const auto cp = core::compile(apps::lu(32), core::Mode::Full, 4,
                                {.strategy = layout::AddrStrategy::Naive});
  const std::string code = emit_program(cp);
  EXPECT_NE(code.find("%"), std::string::npos);
  EXPECT_NE(code.find("/4"), std::string::npos);
}

TEST(Codegen, OptimizedStrategyUsesCounters) {
  const auto cp =
      core::compile(apps::lu(32), core::Mode::Full, 4,
                    {.strategy = layout::AddrStrategy::Optimized});
  const std::string code = emit_program(cp);
  // Strength-reduced counters replace the mod/div on the hot path.
  EXPECT_NE(code.find("_c"), std::string::npos);
}

TEST(Codegen, ReplicatedArraysMarked) {
  const auto cp = core::compile(apps::adi(16, 1), core::Mode::Full, 4);
  const std::string code = emit_program(cp);
  EXPECT_NE(code.find("replicated per cluster"), std::string::npos);
}

TEST(Codegen, TimeLoopEmitted) {
  const auto cp = core::compile(apps::stencil5(16, 3), core::Mode::Full, 4);
  const std::string code = emit_program(cp);
  EXPECT_NE(code.find("for (int t = 0; t < 3; t++)"), std::string::npos);
}

}  // namespace
}  // namespace dct::codegen
