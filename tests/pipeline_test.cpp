// Tests for the compile driver: the stages each mode runs (read back
// from the trace), equivalence of a supplied decomposition with compile(),
// rejection of a malformed one and failure attribution to the failing
// stage, the structured trace (remarks, counters, wall time, JSON
// rendering), the determinism of the multi-threaded experiment sweep,
// that the library ignores the environment, the digests pinning every
// compile artifact, and that compiles from one shared analysis hand out
// those same artifacts.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "apps/apps.hpp"
#include "codegen/codegen.hpp"
#include "core/compiler.hpp"
#include "core/experiment.hpp"
#include "decomp/decomposition.hpp"
#include "native/plan.hpp"
#include "runtime/executor.hpp"
#include "service/cache.hpp"
#include "support/remark.hpp"
#include "support/str.hpp"
#include "verify/oracle.hpp"
#include "verify/progen.hpp"

namespace dct {
namespace {

using core::Mode;

std::vector<std::string> stage_names(const core::CompiledProgram& cp) {
  std::vector<std::string> names;
  for (const auto& p : cp.trace.passes) names.push_back(p.name);
  return names;
}

const std::vector<std::string> kFullStages = {
    "parallelize", "decompose", "fold-select", "barrier-elim",
    "layout",      "lower",     "addr-strategy"};

TEST(Pipeline, ModePassLists) {
  // Every stage leaves exactly one trace record, in order.
  for (const ir::Program& prog : {apps::stencil5(18, 2), apps::vpenta(12)}) {
    SCOPED_TRACE(prog.name);
    EXPECT_EQ(stage_names(core::compile(prog, Mode::Base, 4)),
              std::vector<std::string>({"parallelize", "decompose-base",
                                        "layout", "lower", "addr-strategy"}));
    EXPECT_EQ(stage_names(core::compile(prog, Mode::CompDecomp, 4)),
              kFullStages);
    // Full runs CompDecomp's stages — restructuring is what the layout
    // stage does for Full, not an extra stage.
    EXPECT_EQ(stage_names(core::compile(prog, Mode::Full, 4)), kFullStages);

    // A supplied decomposition runs only the tail, from layout onward.
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full})
      EXPECT_EQ(stage_names(core::compile_with_decomposition(
                    prog, decomp::decompose(prog), mode, 4)),
                std::vector<std::string>({"layout", "lower", "addr-strategy"}));
  }
}

TEST(Pipeline, SuppliedDecompositionMatchesCompile) {
  // compile_with_decomposition on the compiler's own analysis must be
  // bit-identical to the integrated pipeline — the lowering tail is the
  // same stage functions.
  for (const ir::Program& prog : {apps::lu(16), apps::adi(14, 2)}) {
    const auto ref = runtime::run_reference(prog);
    for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
      SCOPED_TRACE(prog.name + " " + core::to_string(mode));
      const core::CompiledProgram direct = core::compile(prog, mode, 4);
      const core::CompiledProgram via = core::compile_with_decomposition(
          prog, decomp::decompose(prog), mode, 4);
      const verify::ValidationReport rep = verify::validate_compiled(via);
      EXPECT_TRUE(rep.ok()) << rep.to_string();
      const auto a = runtime::simulate(via, machine::MachineConfig::dash(4));
      // Base's own analysis differs from decompose().
      if (mode != Mode::Base) {
        EXPECT_EQ(via.report(), direct.report());
        const auto b =
            runtime::simulate(direct, machine::MachineConfig::dash(4));
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.values, b.values);
      }
      EXPECT_EQ(a.values, ref);
    }
  }
}

TEST(Pipeline, StageFailureNamesTheStage) {
  // A supplied decomposition that does not describe the program fails in
  // the layout stage, with a structured code and that stage named, before
  // anything indexes by it.
  const ir::Program prog = apps::stencil5(18, 2);
  const size_t a = static_cast<size_t>(prog.array_id("A"));
  struct Case {
    const char* what;
    std::function<void(decomp::ProgramDecomposition&)> mangle;
    Error::Code code;
  };
  const Case cases[] = {
      {"short nests",
       [](decomp::ProgramDecomposition& d) { d.nests.pop_back(); },
       Error::Code::kInvalidArgument},
      {"short arrays",
       [](decomp::ProgramDecomposition& d) { d.arrays.pop_back(); },
       Error::Code::kInvalidArgument},
      {"proc_dim out of range",
       [a](decomp::ProgramDecomposition& d) {
         d.arrays[a].dims[0].proc_dim = d.num_proc_dims;
       },
       Error::Code::kUnsupportedConfig},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    decomp::ProgramDecomposition dec = decomp::decompose(prog);
    c.mangle(dec);
    try {
      core::compile_with_decomposition(prog, std::move(dec), Mode::Full, 4);
      ADD_FAILURE() << "expected the layout stage to throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), c.code) << e.what();
      ASSERT_FALSE(e.context().empty());
      EXPECT_EQ(e.context().front(), "pass layout");
    }
  }

  // Swapping the processor dimensions of A's two distributed dims is a
  // well-formed decomposition that breaks Equation 1: it compiles, and
  // the static oracles reject the result.
  decomp::ProgramDecomposition dec = decomp::decompose(prog);
  auto& dims = dec.arrays[a].dims;
  ASSERT_EQ(dims.size(), 2u);
  ASSERT_GE(dims[0].proc_dim, 0);
  ASSERT_GE(dims[1].proc_dim, 0);
  ASSERT_NE(dims[0].proc_dim, dims[1].proc_dim);
  std::swap(dims[0].proc_dim, dims[1].proc_dim);
  const core::CompiledProgram cp =
      core::compile_with_decomposition(prog, std::move(dec), Mode::Full, 4);
  try {
    verify::validate_compiled(cp).raise_if_violated(prog.name);
    FAIL() << "expected the static oracles to throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Error::Code::kOracleViolation) << e.what();
  }
}

TEST(Pipeline, StatementWithoutEvaluatorRejected) {
  // Every statement is an assignment, write = eval(reads): a statement
  // without an evaluator is refused by compile's lower stage and by the
  // reference interpreter, naming the nest and the statement.
  ir::Program prog = apps::stencil5(18, 2);
  ir::LoopNest& nest = prog.nests.back();
  ASSERT_FALSE(nest.stmts.empty());
  nest.stmts.back().eval = {};
  const std::string where = strf("nest %s statement %zu", nest.name.c_str(),
                                 nest.stmts.size() - 1);
  const auto expect_rejected = [&](const std::string& what,
                                   const std::function<void()>& run,
                                   const char* context) {
    SCOPED_TRACE(what);
    try {
      run();
      ADD_FAILURE() << "expected kInvalidArgument";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Error::Code::kInvalidArgument) << e.what();
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
      if (context != nullptr) {
        ASSERT_FALSE(e.context().empty());
        EXPECT_EQ(e.context().front(), context);
      }
    }
  };
  for (Mode mode : {Mode::Base, Mode::CompDecomp, Mode::Full}) {
    expect_rejected(
        core::to_string(mode), [&] { core::compile(prog, mode, 4); },
        "pass lower");
    expect_rejected(
        core::to_string(mode) + " supplied",
        [&] {
          core::compile_with_decomposition(prog, decomp::decompose(prog), mode,
                                           4);
        },
        "pass lower");
  }
  expect_rejected("reference", [&] { runtime::run_reference(prog); },
                  nullptr);
}

/// The virtual processor dimensions `lower` binds an owner loop to for
/// statement s of nest j, in the order of CompiledStmt::owner.
std::vector<int> bound_dims(const core::CompiledProgram& cp, size_t j,
                            size_t s) {
  const decomp::NestDecomposition& nd = cp.dec().nests[j];
  std::vector<int> dims;
  for (int pd = 0; pd < cp.dec().num_proc_dims; ++pd) {
    int loop = -1;
    if (s < nd.stmts.size() &&
        pd < static_cast<int>(nd.stmts[s].loop_for_dim.size()))
      loop = nd.stmts[s].loop_for_dim[static_cast<size_t>(pd)];
    for (size_t l = 0; loop < 0 && l < nd.loops.size(); ++l)
      if (nd.loops[l].proc_dim == pd) loop = static_cast<int>(l);
    if (loop >= 0) dims.push_back(pd);
  }
  return dims;
}

TEST(Pipeline, PartitionFoldsAreLoweredFolds) {
  // One fold per virtual processor dimension: every array dimension bound
  // to dimension pd folds its elements exactly as the lowered schedule
  // folds the iterations it binds to pd.
  long compared = 0;
  const auto check = [&](const core::CompiledProgram& cp) {
    std::map<int, core::CoordFold> fold_of;
    for (size_t a = 0; a < cp.arrays.size(); ++a)
      for (const layout::Partition::Dim& d : cp.arrays[a].part.dims) {
        if (d.proc_dim < 0) continue;
        const auto [it, fresh] = fold_of.emplace(d.proc_dim, d.fold);
        EXPECT_EQ(it->second, d.fold)
            << cp.program().arrays[a].name << " p" << d.proc_dim;
      }
    for (size_t j = 0; j < cp.nests.size(); ++j)
      for (size_t s = 0; s < cp.nests[j].stmts.size(); ++s) {
        const auto& owner = cp.nests[j].stmts[s].owner;
        const std::vector<int> dims = bound_dims(cp, j, s);
        ASSERT_EQ(owner.size(), dims.size()) << "nest " << j << " stmt " << s;
        for (size_t k = 0; k < dims.size(); ++k) {
          const auto it = fold_of.find(dims[k]);
          if (it == fold_of.end()) continue;  // no array binds it
          EXPECT_EQ(owner[k].second, it->second)
              << "nest " << j << " stmt " << s << " p" << dims[k];
          ++compared;
        }
      }
  };
  for (const ir::Program& prog :
       {apps::figure1(20), apps::lu(16), apps::stencil5(18), apps::adi(14),
        apps::vpenta(12), apps::erlebacher(10), apps::swm256(14),
        apps::tomcatv(14)}) {
    const decomp::ProgramDecomposition dec = decomp::decompose(prog);
    for (int procs : {4, 6, 32}) {
      SCOPED_TRACE(prog.name + " P=" + std::to_string(procs));
      for (Mode mode : {Mode::CompDecomp, Mode::Full})
        check(core::compile(prog, mode, procs));
      for (decomp::DistKind kind :
           {decomp::DistKind::Cyclic, decomp::DistKind::BlockCyclic})
        check(core::compile_with_decomposition(
            prog, verify::refold(dec, kind), Mode::Full, procs));
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(Pipeline, TraceRecordsEveryPass) {
  const core::CompiledProgram cp =
      core::compile(apps::stencil5(18, 2), Mode::Full, 4);
  ASSERT_EQ(stage_names(cp), kFullStages);
  for (size_t i = 0; i < kFullStages.size(); ++i) {
    EXPECT_EQ(cp.trace.passes[i].runs, 1);
    EXPECT_GE(cp.trace.passes[i].wall_ms, 0.0);
  }
  EXPECT_GE(cp.trace.total_ms, 0.0);

  // The decomposition stages must have left their decision counters.
  auto counters_of = [&](const std::string& pass)
      -> const std::map<std::string, long>& {
    for (const auto& p : cp.trace.passes)
      if (p.name == pass) return p.counters;
    ADD_FAILURE() << "no pass " << pass;
    static const std::map<std::string, long> empty;
    return empty;
  };
  EXPECT_TRUE(counters_of("decompose").count("alignment_groups"));
  EXPECT_TRUE(counters_of("layout").count("bytes_allocated"));
  EXPECT_TRUE(counters_of("addr-strategy").count("refs"));

  const std::string j = cp.trace.json({{"unit", "stencil5"}});
  EXPECT_NE(j.find("\"unit\":\"stencil5\""), std::string::npos);
  EXPECT_NE(j.find("\"passes\":["), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"parallelize\""), std::string::npos);
}

TEST(Pipeline, TraceMergeAggregates) {
  support::PipelineTrace a, b;
  a.passes.push_back({.name = "layout", .runs = 1, .wall_ms = 1.0,
                      .remark_count = 2, .remarks = {},
                      .counters = {{"arrays", 3}}});
  a.total_ms = 1.0;
  b.passes.push_back({.name = "layout", .runs = 1, .wall_ms = 0.5,
                      .remark_count = 1, .remarks = {},
                      .counters = {{"arrays", 2}, {"permutes", 1}}});
  b.passes.push_back({.name = "lower", .runs = 1, .wall_ms = 0.25,
                      .remark_count = 0, .remarks = {}, .counters = {}});
  b.total_ms = 0.75;
  a.merge(b);
  ASSERT_EQ(a.passes.size(), 2u);
  EXPECT_EQ(a.passes[0].name, "layout");
  EXPECT_EQ(a.passes[0].runs, 2);
  EXPECT_DOUBLE_EQ(a.passes[0].wall_ms, 1.5);
  EXPECT_EQ(a.passes[0].remark_count, 3);
  EXPECT_EQ(a.passes[0].counters.at("arrays"), 5);
  EXPECT_EQ(a.passes[0].counters.at("permutes"), 1);
  EXPECT_EQ(a.passes[1].name, "lower");
  EXPECT_DOUBLE_EQ(a.total_ms, 1.75);
}

TEST(Pipeline, JsonEscaping) {
  EXPECT_EQ(support::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(support::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Pipeline, ParallelSweepIsDeterministic) {
  const ir::Program prog = apps::stencil5(18, 2);
  core::SweepOptions serial;
  serial.procs = {1, 2, 4};
  serial.threads = 1;
  core::SweepOptions pooled = serial;
  pooled.threads = 4;

  const core::SweepResult a = core::run_sweep(prog, serial);
  const core::SweepResult b = core::run_sweep(prog, pooled);
  // Byte-identical rendered tables regardless of the thread count.
  EXPECT_EQ(core::render_sweep("stencil5", a),
            core::render_sweep("stencil5", b));
  EXPECT_EQ(a.seq_cycles, b.seq_cycles);

  // The sweep trace aggregates every compilation in the sweep: 1 baseline
  // + 3 verification points + 3 modes x 3 procs.
  for (const auto& p : a.trace.passes) {
    if (p.name == "lower") {
      EXPECT_GE(p.runs, 10);
    }
  }
  bool saw_lower = false;
  for (const auto& p : b.trace.passes) saw_lower |= p.name == "lower";
  EXPECT_TRUE(saw_lower);
}

// The library reads no environment variables: configuration enters only
// through the options structs, so none of these settings may change a
// compile's stage list, emit a trace or cancel a sweep cell.
TEST(Pipeline, LibraryIgnoresEnvironment) {
  const std::string trace_path =
      ::testing::TempDir() + "dct_ignored_trace.jsonl";
  std::remove(trace_path.c_str());
  const std::vector<std::pair<const char*, std::string>> knobs = {
      {"DCT_VALIDATE", "1"}, {"DCT_NATIVE", "1"},
      {"DCT_TRACE", trace_path}, {"DCT_THREADS", "1"},
      {"DCT_DEADLINE_MS", "1"}, {"DCT_DEBUG_DECOMP", "1"}};
  struct Unset {  // also on a failed assertion
    const decltype(knobs)& k;
    ~Unset() {
      for (const auto& kv : k) unsetenv(kv.first);
    }
  } unset{knobs};

  struct Observed {
    std::vector<std::string> passes;
    core::SweepResult sweep;
  };
  const ir::Program prog = apps::stencil5(18, 2);
  auto observe = [&] {
    Observed o;
    o.passes =
        stage_names(core::compile(apps::figure1(12, 2), Mode::Full, 4));
    o.sweep = core::run_sweep(prog);
    return o;
  };

  for (const auto& kv : knobs) unsetenv(kv.first);
  const Observed clean = observe();
  for (const auto& kv : knobs)
    ASSERT_EQ(setenv(kv.first, kv.second.c_str(), 1), 0);
  const Observed set = observe();

  EXPECT_EQ(set.passes, clean.passes);
  std::ifstream trace(trace_path);
  EXPECT_FALSE(trace.good()) << "compile wrote a trace to " << trace_path;
  int cancelled = 0;
  for (const core::CellFailure& f : set.sweep.failures)
    cancelled += f.code == Error::Code::kCancelled ||
                 f.code == Error::Code::kDeadlineExceeded;
  EXPECT_EQ(cancelled, 0) << core::render_failures(set.sweep.failures);
  EXPECT_EQ(core::render_sweep("stencil5", set.sweep),
            core::render_sweep("stencil5", clean.sweep));
  std::remove(trace_path.c_str());
}

// Everything a compile hands its callers, as text: the report, the
// emitted SPMD code, every pass's remarks and counters (not its wall
// time), every native plan's rationale, and each nest's transform and
// stored dependence pairs.
std::string artifact_text(const core::CompiledProgram& cp) {
  std::ostringstream os;
  os << cp.report() << codegen::emit_program(cp);
  for (const support::PassRecord& p : cp.trace.passes) {
    os << "pass " << p.name << "\n";
    for (const support::Remark& r : p.remarks)
      os << r.nest << ' ' << r.nest_name << ' ' << r.array << ' '
         << r.array_name << ": " << r.message << "\n";
    for (const auto& [name, value] : p.counters)
      os << name << '=' << value << "\n";
  }
  for (const native::NestPlan& np : native::plan_program(cp).nests)
    os << "plan " << np.why << "\n";
  for (const dep::ParallelizedNest& par : cp.dec().par) {
    os << par.transform.to_string() << "\n";
    for (const dep::PairDeps& pd : par.pairs) {
      os << pd.src_stmt << "->" << pd.dst_stmt;
      for (const dep::DepVector& v : pd.vectors) os << ' ' << v.to_string();
      os << "\n";
    }
  }
  return os.str();
}

// The 8 applications at sizes 16, 33 and 64 and the fuzzer's programs of
// seeds 0-99, each compiled in every mode at P = 1, 3, 4 and 32.
std::vector<std::pair<std::string, ir::Program>> pinned_corpus() {
  std::vector<std::pair<std::string, ir::Program>> corpus;
  for (const int n : {16, 33, 64}) {
    for (const ir::Program& p :
         {apps::figure1(n), apps::vpenta(n), apps::lu(n), apps::stencil5(n),
          apps::adi(n), apps::erlebacher(n), apps::swm256(n),
          apps::tomcatv(n)})
      corpus.emplace_back(strf("%s(%d)", p.name.c_str(), n), p);
  }
  for (std::uint64_t seed = 0; seed < 100; ++seed)
    corpus.emplace_back(strf("seed%d", static_cast<int>(seed)),
                        verify::generate_program(seed));
  return corpus;
}
const Mode kPinnedModes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
const int kPinnedProcs[] = {1, 3, 4, 32};

/// artifact_text of `compile()`, or the error it threw.
std::string artifact_or_error(
    const std::function<core::CompiledProgram()>& compile) {
  try {
    return artifact_text(compile());
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

// One FNV-1a digest of artifact_text per (program, mode, P) of
// pinned_corpus. A compile that throws digests its error.
// Refactors of the compiler must leave every line as it is; regenerate
// after an intentional change with
//   DCT_UPDATE_GOLDEN=1 ./pipeline_test --gtest_filter=*ArePinned
// and review the diff of tests/golden/compile_digests.txt.
TEST(Pipeline, CompileArtifactsArePinned) {
  std::ostringstream got;
  for (const auto& [name, prog] : pinned_corpus())
    for (const Mode mode : kPinnedModes)
      for (const int procs : kPinnedProcs) {
        const std::string text = artifact_or_error(
            [&] { return core::compile(prog, mode, procs); });
        got << name << ' ' << core::to_string(mode) << " P=" << procs << ' '
            << strf("%016" PRIx64, service::fnv1a(text)) << "\n";
      }

  const std::string path =
      std::string(DCT_TEST_DIR) + "/golden/compile_digests.txt";
  if (std::getenv("DCT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got.str();
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (run with DCT_UPDATE_GOLDEN=1 to create)";
  std::istringstream got_lines(got.str());
  std::string want_line, got_line;
  int drifted = 0;
  while (std::getline(in, want_line)) {
    std::getline(got_lines, got_line);
    if (got_line != want_line && ++drifted <= 10)
      ADD_FAILURE() << "artifact drift: want '" << want_line << "', got '"
                    << got_line << "'";
    got_line.clear();
  }
  EXPECT_EQ(drifted, 0);
  EXPECT_FALSE(std::getline(got_lines, got_line)) << "extra line " << got_line;
}

// One analysis per program feeds every (mode, P) of the pinned corpus:
// each compile from it hands out exactly what a fresh compile does, trace
// records of the shared stages included.
TEST(Analyze, SharedAcrossModeAndProcs) {
  long compared = 0;
  for (const auto& [name, prog] : pinned_corpus()) {
    const std::shared_ptr<const core::Analysis> shared = core::analyze(prog);
    for (const Mode mode : kPinnedModes)
      for (const int procs : kPinnedProcs) {
        EXPECT_EQ(artifact_or_error(
                      [&] { return core::compile(shared, mode, procs); }),
                  artifact_or_error(
                      [&] { return core::compile(prog, mode, procs); }))
            << name << ' ' << core::to_string(mode) << " P=" << procs;
        ++compared;
      }
  }
  EXPECT_EQ(compared, 1488);
}

}  // namespace
}  // namespace dct
