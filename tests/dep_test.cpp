// Tests for dependence analysis and unimodular parallelization, including
// randomized comparison against a brute-force oracle (the analysis may be
// conservative — report extra carried levels — but never unsound).
#include "dep/dependence.hpp"
#include "dep/parallelize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "ir/transform.hpp"
#include "service/cache.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "verify/progen.hpp"

namespace dct::dep {
namespace {

using ir::cst;
using ir::loop;
using ir::LoopNest;
using ir::simple_ref;
using ir::Stmt;
using ir::var;

/// The nest summary of one analysis.
NestDeps analyze(const LoopNest& nest) {
  return summarize(analyze_pairs(nest));
}

LoopNest make_nest(std::vector<std::pair<Int, Int>> bounds) {
  LoopNest nest;
  for (size_t i = 0; i < bounds.size(); ++i)
    nest.loops.push_back(loop("i" + std::to_string(i), cst(bounds[i].first),
                              cst(bounds[i].second)));
  return nest;
}

/// A(i,j) = A(i,j-1): flow dependence carried by the j loop.
TEST(Analyze, StreamAlongInner) {
  LoopNest nest = make_nest({{0, 7}, {1, 7}});
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(0, 2, {{0, 0}, {1, -1}})};
  nest.stmts.push_back(std::move(s));
  const NestDeps deps = analyze(nest);
  const std::vector<bool> carried = carried_levels(deps.vectors, 2);
  EXPECT_FALSE(carried[0]);
  EXPECT_TRUE(carried[1]);
  ASSERT_EQ(deps.vectors.size(), 1u);
  EXPECT_EQ(deps.vectors[0].dist[0], 0);
  EXPECT_EQ(deps.vectors[0].dist[1], 1);
  EXPECT_TRUE(deps.pipelinable(1));
}

/// Fully parallel: A(i,j) = B(i,j).
TEST(Analyze, Independent) {
  LoopNest nest = make_nest({{0, 7}, {0, 7}});
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(1, 2, {{0, 0}, {1, 0}})};
  nest.stmts.push_back(std::move(s));
  const NestDeps deps = analyze(nest);
  EXPECT_TRUE(deps.vectors.empty());
  const std::vector<bool> carried = carried_levels(deps.vectors, 2);
  EXPECT_FALSE(carried[0]);
  EXPECT_FALSE(carried[1]);
}

/// The paper's Figure 1 second nest: A(I,J) = f(A(I,J), A(I,J-1),
/// A(I,J+1)) — J loop carries, I loop parallel.
TEST(Analyze, Figure1Smoother) {
  LoopNest nest = make_nest({{1, 6}, {0, 7}});  // J outer, I inner
  Stmt s;
  s.write = simple_ref(0, 2, {{1, 0}, {0, 0}});
  s.reads = {simple_ref(0, 2, {{1, 0}, {0, 0}}),
             simple_ref(0, 2, {{1, 0}, {0, -1}}),
             simple_ref(0, 2, {{1, 0}, {0, 1}})};
  nest.stmts.push_back(std::move(s));
  const NestDeps deps = analyze(nest);
  const std::vector<bool> carried = carried_levels(deps.vectors, 2);
  EXPECT_TRUE(carried[0]);   // J
  EXPECT_FALSE(carried[1]);  // I
}

/// LU elimination body over (I1, I2, I3): only I1 carries.
LoopNest lu_nest(Int n) {
  LoopNest nest;
  nest.loops.push_back(loop("k", cst(0), cst(n - 1)));
  nest.loops.push_back(loop("i", var(0) + 1, cst(n - 1)));
  nest.loops.push_back(loop("j", var(0) + 1, cst(n - 1)));
  Stmt s;
  s.write = simple_ref(0, 3, {{1, 0}, {2, 0}});
  s.reads = {simple_ref(0, 3, {{1, 0}, {2, 0}}),
             simple_ref(0, 3, {{1, 0}, {0, 0}}),
             simple_ref(0, 3, {{0, 0}, {2, 0}})};
  nest.stmts.push_back(std::move(s));
  return nest;
}

TEST(Analyze, LUOnlyOuterCarries) {
  const NestDeps deps = analyze(lu_nest(8));
  const std::vector<bool> carried = carried_levels(deps.vectors, 3);
  EXPECT_TRUE(carried[0]);
  EXPECT_FALSE(carried[1]);
  EXPECT_FALSE(carried[2]);
  const auto brute = carried_levels_bruteforce(lu_nest(8));
  EXPECT_TRUE(brute[0]);
  EXPECT_FALSE(brute[1]);
  EXPECT_FALSE(brute[2]);
}

/// Every level the brute-force oracle reports carried must also be
/// reported by the analysis (which may be conservative).
void expect_sound(const LoopNest& nest, const std::string& what) {
  const std::vector<bool> carried =
      carried_levels(analyze(nest).vectors, nest.depth());
  const auto brute = carried_levels_bruteforce(nest);
  for (int k = 0; k < nest.depth(); ++k)
    EXPECT_TRUE(!brute[static_cast<size_t>(k)] ||
                carried[static_cast<size_t>(k)])
        << what << ": unsound at level " << k;
}

TEST(Analyze, SoundVsBruteForce) {
  // Random small nests with random uniform references.
  Rng rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    const int d = static_cast<int>(rng.uniform(1, 3));
    std::vector<std::pair<Int, Int>> bounds;
    for (int k = 0; k < d; ++k) bounds.push_back({0, rng.uniform(2, 5)});
    LoopNest nest = make_nest(bounds);
    const int nstmts = static_cast<int>(rng.uniform(1, 2));
    for (int si = 0; si < nstmts; ++si) {
      Stmt s;
      auto rand_ref = [&]() {
        std::vector<std::pair<int, Int>> dims;
        for (int r = 0; r < 2; ++r)
          dims.push_back({static_cast<int>(rng.uniform(-1, d - 1)),
                          rng.uniform(0, 2)});
        return simple_ref(0, d, dims);
      };
      s.write = rand_ref();
      s.reads = {rand_ref()};
      nest.stmts.push_back(std::move(s));
    }
    expect_sound(nest, "trial " + std::to_string(trial));
  }
  // The fuzzer's programs: several arrays, constant subscripts and
  // imperfect nests.
  for (std::uint64_t seed = 0; seed < 100; ++seed)
    for (const LoopNest& nest : verify::generate_program(seed).nests)
      expect_sound(nest, "seed " + std::to_string(seed) + " " + nest.name);
}

/// Subscript equalities without a unit coefficient are not substituted
/// into the Fourier–Motzkin system; they stay an inequality pair. Each
/// nest writes A(2*i) (1-deep) or A(2*i, j) (2-deep) and reads A(c*i + o)
/// or A(c*i + o, 0); the 2-deep reads differ from the write in their
/// access matrix, so those pairs go through direction testing.
TEST(Analyze, NonUnitSubscriptEqualities) {
  const auto nest_with = [](int depth, Int read_coeff, Int read_offset) {
    LoopNest nest = make_nest(depth == 1
                                  ? std::vector<std::pair<Int, Int>>{{0, 7}}
                                  : std::vector<std::pair<Int, Int>>{{0, 7},
                                                                     {0, 3}});
    Stmt s;
    s.write.array = 0;
    s.write.access = depth == 1 ? linalg::IntMatrix{{2}}
                                : linalg::IntMatrix{{2, 0}, {0, 1}};
    s.write.offset.assign(static_cast<size_t>(depth), 0);
    ir::ArrayRef read = s.write;
    read.access.at(0, 0) = read_coeff;
    read.offset[0] = read_offset;
    if (depth == 2) read.access.at(1, 1) = 0;
    s.reads = {read};
    nest.stmts.push_back(std::move(s));
    return nest;
  };
  for (const int depth : {1, 2}) {
    const std::string where = "depth " + std::to_string(depth);
    // 2*i == 2*i' + 1 has no integer solution.
    const LoopNest odd = nest_with(depth, 2, 1);
    EXPECT_TRUE(analyze_pairs(odd).empty()) << where;
    for (const bool carried : carried_levels_bruteforce(odd))
      EXPECT_FALSE(carried) << where;
    expect_sound(odd, "A(2*i) = A(2*i+1), " + where);
    // i == 2*i' reads in iteration i' what iteration 2*i' writes.
    const LoopNest quad = nest_with(depth, 4, 0);
    EXPECT_FALSE(analyze_pairs(quad).empty()) << where;
    EXPECT_TRUE(carried_levels_bruteforce(quad)[0]) << where;
    expect_sound(quad, "A(2*i) = A(4*i), " + where);
  }
  // S0 (depth 1) writes A(i, i); S1 (depth 2) reads A(j+1, -j). Each
  // subscript row has a unit coefficient and passes Banerjee and GCD, and
  // j is free of the direction constraints, so the pair is independent
  // only by parity: substituting j' = i - 1 leaves 2*i - 1 == 0, which
  // only the row pair, each row tightened by its gcd, rules out.
  LoopNest parity = make_nest({{0, 7}, {-7, 7}});
  Stmt s0;
  s0.depth = 1;
  s0.write.array = 0;
  s0.write.access = linalg::IntMatrix{{1, 0}, {1, 0}};
  s0.write.offset = {0, 0};
  s0.reads = {simple_ref(1, 2, {{0, 0}})};
  parity.stmts.push_back(std::move(s0));
  Stmt s1;
  s1.write = simple_ref(2, 2, {{0, 0}, {1, 0}});
  ir::ArrayRef read;
  read.array = 0;
  read.access = linalg::IntMatrix{{0, 1}, {0, -1}};
  read.offset = {1, 0};
  s1.reads = {read};
  parity.stmts.push_back(std::move(s1));
  EXPECT_EQ(carried_levels_bruteforce(parity), (std::vector<bool>{false, false}));
  EXPECT_TRUE(analyze_pairs(parity).empty());
}

/// summarize folds analyze_pairs: the union of every pair's vectors
/// without the loop-independent ones, each once, in order of first
/// appearance. Checked on the apps' nests before and after
/// parallelization and on the fuzzer's programs.
TEST(Analyze, NestSummaryIsPairUnion) {
  std::vector<LoopNest> nests;
  for (const ir::Program& prog :
       {apps::figure1(16), apps::vpenta(16), apps::lu(16), apps::stencil5(16),
        apps::adi(16), apps::erlebacher(16), apps::swm256(16),
        apps::tomcatv(16)})
    for (const LoopNest& nest : prog.nests) {
      nests.push_back(nest);
      nests.push_back(parallelize(nest).nest);
    }
  for (std::uint64_t seed = 0; seed < 100; ++seed)
    for (const LoopNest& nest : verify::generate_program(seed).nests) {
      nests.push_back(nest);
      nests.push_back(parallelize(nest).nest);
    }
  auto as_set = [](const std::vector<DepVector>& vs) {
    std::set<std::string> out;
    for (const DepVector& v : vs) out.insert(v.to_string());
    return out;
  };
  for (const LoopNest& nest : nests) {
    std::vector<DepVector> all, carried_only;
    for (const PairDeps& pd : analyze_pairs(nest))
      for (const DepVector& v : pd.vectors) {
        all.push_back(v);
        if (!v.loop_independent() &&
            std::find(carried_only.begin(), carried_only.end(), v) ==
                carried_only.end())
          carried_only.push_back(v);
      }
    const NestDeps deps = analyze(nest);
    EXPECT_EQ(as_set(deps.vectors), as_set(carried_only)) << nest.name;
    EXPECT_EQ(deps.vectors, carried_only) << nest.name;
    EXPECT_EQ(carried_levels(deps.vectors, nest.depth()),
              carried_levels(all, nest.depth()))
        << nest.name;
  }
}

/// analyze_pairs must attribute vectors per ordered statement pair and —
/// unlike the nest-level summary — keep loop-independent dependences
/// between distinct statements (they decide native-backend scheduling).
TEST(AnalyzePairs, AttributesAndKeepsLoopIndependent) {
  LoopNest nest = make_nest({{0, 7}, {1, 7}});
  {
    // s0: A(i,j) = A(i,j-1)  — self flow dependence carried by j.
    Stmt s;
    s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
    s.reads = {simple_ref(0, 2, {{0, 0}, {1, -1}})};
    nest.stmts.push_back(std::move(s));
  }
  {
    // s1: B(i,j) = A(i,j)  — loop-independent flow s0 -> s1.
    Stmt s;
    s.write = simple_ref(1, 2, {{0, 0}, {1, 0}});
    s.reads = {simple_ref(0, 2, {{0, 0}, {1, 0}})};
    nest.stmts.push_back(std::move(s));
  }
  const auto pairs = analyze_pairs(nest);
  bool self_carried = false, cross_li = false;
  for (const PairDeps& pd : pairs) {
    EXPECT_FALSE(pd.vectors.empty());
    for (const DepVector& v : pd.vectors) {
      if (pd.src_stmt == 0 && pd.dst_stmt == 0)
        self_carried |= v.dist[1].has_value() && *v.dist[1] == 1;
      if (pd.src_stmt != pd.dst_stmt) cross_li |= v.loop_independent();
    }
    // Self-pairs never report loop-independent vectors: one statement
    // instance executes atomically.
    if (pd.src_stmt == pd.dst_stmt) {
      for (const DepVector& v : pd.vectors)
        EXPECT_FALSE(v.loop_independent());
    }
  }
  EXPECT_TRUE(self_carried);
  EXPECT_TRUE(cross_li);
}

/// LU's eliminate nest is the one Table 1 nest whose pairs are not
/// uniformly generated, so its vectors come from direction tests that
/// reach Fourier–Motzkin. The pair list is pinned in order.
TEST(Analyze, LuPairsArePinned) {
  const std::vector<std::string> want = {
      "0->1 (0,0,0)",
      "1->0 (<,0,0) (0,0,0) (<,<,0)",
      "1->1 (<,0,0) (<,0,<) (<,<,0)",
  };
  for (const Int n : {6, 9}) {
    std::vector<std::string> got;
    for (const PairDeps& pd : analyze_pairs(apps::lu(n).nests[0])) {
      std::ostringstream line;
      line << pd.src_stmt << "->" << pd.dst_stmt;
      for (const DepVector& v : pd.vectors) line << " " << v.to_string();
      got.push_back(line.str());
    }
    EXPECT_EQ(got, want) << "lu(" << n << ")";
  }
}

/// One line per ordered statement pair: "src->dst v v ...".
std::string pairs_text(const std::vector<PairDeps>& pairs) {
  std::ostringstream os;
  for (const PairDeps& pd : pairs) {
    os << pd.src_stmt << "->" << pd.dst_stmt;
    for (const DepVector& v : pd.vectors) os << ' ' << v.to_string();
    os << "\n";
  }
  return os.str();
}

/// Everything the dependence step decides for one nest: analyze_pairs'
/// vectors, then parallelize's transform, DOALL levels, regenerated loop
/// bounds, transformed access matrices and mapped pairs (or the error it
/// threw).
std::string analysis_text(const LoopNest& nest) {
  std::ostringstream os;
  try {
    os << pairs_text(analyze_pairs(nest));
    const ParallelizedNest par = parallelize(nest);
    os << par.transform.to_string() << "\n";
    for (const bool p : par.parallel) os << (p ? 'P' : 'S');
    os << "\n";
    for (const ir::Loop& lp : par.nest.loops) {
      os << lp.var_name << ':';
      for (const auto* bounds : {&lp.lowers, &lp.uppers})
        for (const ir::Bound& b : *bounds) {
          os << (bounds == &lp.lowers ? " lo [" : " hi [");
          for (size_t i = 0; i < b.expr.coeffs.size(); ++i)
            os << (i ? "," : "") << b.expr.coeffs[i];
          os << '|' << b.expr.constant << "]/" << b.divisor;
        }
      os << "\n";
    }
    for (const Stmt& s : par.nest.stmts) {
      for (const ir::ArrayRef& r : s.reads) os << r.access.to_string() << ' ';
      os << s.write.access.to_string() << "\n";
    }
    os << pairs_text(par.pairs);
  } catch (const Error& e) {
    os << "error: " << e.what() << "\n";
  }
  return os.str();
}

// One FNV-1a digest of analysis_text over every nest, per program: the
// fuzzer's programs of seeds 0-1999 and the 8 applications at six sizes.
// This pins the Fourier–Motzkin feasibility tests (their gcd cuts and row
// cap) and the unimodular inverse far past the applications' nests.
// Regenerate after an intentional change with
//   DCT_UPDATE_GOLDEN=1 ./dep_test --gtest_filter=*PairsArePinnedOnFuzzCorpus
// and review the diff of tests/golden/analysis_digests.txt.
TEST(Analyze, PairsArePinnedOnFuzzCorpus) {
  std::vector<std::pair<std::string, ir::Program>> corpus;
  for (const int n : {8, 16, 33, 64, 96, 256})
    for (const ir::Program& p :
         {apps::figure1(n), apps::vpenta(n), apps::lu(n), apps::stencil5(n),
          apps::adi(n), apps::erlebacher(n), apps::swm256(n),
          apps::tomcatv(n)})
      corpus.emplace_back(strf("%s(%d)", p.name.c_str(), n), p);
  for (std::uint64_t seed = 0; seed < 2000; ++seed)
    corpus.emplace_back(strf("seed%d", static_cast<int>(seed)),
                        verify::generate_program(seed));
  std::ostringstream got;
  for (const auto& [name, prog] : corpus) {
    std::string text;
    for (const LoopNest& nest : prog.nests) text += analysis_text(nest);
    got << name << ' ' << strf("%016" PRIx64, service::fnv1a(text)) << "\n";
  }

  const std::string path =
      std::string(DCT_TEST_DIR) + "/golden/analysis_digests.txt";
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
      ADD_FAILURE() << "analysis drift: want '" << want_line << "', got '"
                    << got_line << "'";
    got_line.clear();
  }
  EXPECT_EQ(drifted, 0);
  EXPECT_FALSE(std::getline(got_lines, got_line)) << "extra line " << got_line;
}

/// Pair attribution agrees with the nest summary on carried levels.
TEST(AnalyzePairs, CarriedLevelsCoverNestSummary) {
  LoopNest nest = make_nest({{0, 6}, {0, 6}});
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(0, 2, {{0, -1}, {1, 0}})};
  nest.stmts.push_back(std::move(s));
  const NestDeps deps = analyze(nest);
  const auto pairs = analyze_pairs(nest);
  std::vector<bool> carried(nest.loops.size(), false);
  for (const PairDeps& pd : pairs)
    for (const DepVector& v : pd.vectors) {
      const int l = v.carrier_level();
      if (l >= 0) carried[static_cast<size_t>(l)] = true;
    }
  EXPECT_EQ(carried, carried_levels(deps.vectors, nest.depth()));
}

TEST(Hull, TriangularWidening) {
  const Hull h = iteration_hull(lu_nest(8));
  EXPECT_EQ(h.lo, (linalg::Vec{0, 1, 1}));
  EXPECT_EQ(h.hi, (linalg::Vec{7, 7, 7}));
  EXPECT_FALSE(h.empty);
}

TEST(Hull, EmptyDetected) {
  LoopNest nest = make_nest({{5, 2}});
  EXPECT_TRUE(iteration_hull(nest).empty);
}

TEST(Parallelize, MovesParallelLoopOutermost) {
  // for i (parallel), for j (carries): ideal order puts i outermost.
  // Written with the carried loop outermost to force an interchange.
  LoopNest nest = make_nest({{1, 6}, {0, 7}});
  Stmt s;
  // A(j, i_outer): dim0 = inner loop (stride-1), carried along outer.
  s.write = simple_ref(0, 2, {{1, 0}, {0, 0}});
  s.reads = {simple_ref(0, 2, {{1, 0}, {0, -1}})};
  nest.stmts.push_back(std::move(s));
  const ParallelizedNest p = parallelize(nest);
  EXPECT_EQ(p.parallel, (std::vector<bool>{true, false}));
  // The transform must be the interchange.
  EXPECT_EQ(p.transform, ir::permutation_matrix({1, 0}));
}

TEST(Parallelize, LeavesGoodNestAlone) {
  // Outer already parallel and stride-1 inner: keep identity.
  LoopNest nest = make_nest({{0, 7}, {0, 7}});
  Stmt s;
  s.write = simple_ref(0, 2, {{1, 0}, {0, 0}});  // A(j, i): j stride-1
  s.reads = {simple_ref(1, 2, {{1, 0}, {0, 0}})};
  nest.stmts.push_back(std::move(s));
  const ParallelizedNest p = parallelize(nest);
  EXPECT_EQ(p.transform, linalg::IntMatrix::identity(2));
  EXPECT_EQ(p.parallel, (std::vector<bool>{true, true}));
}

/// SOR-like: A(i,j) = A(i-1,j) + A(i,j-1).
LoopNest sor_nest() {
  LoopNest nest = make_nest({{1, 6}, {1, 6}});
  Stmt s;
  s.write = simple_ref(0, 2, {{0, 0}, {1, 0}});
  s.reads = {simple_ref(0, 2, {{0, -1}, {1, 0}}),
             simple_ref(0, 2, {{0, 0}, {1, -1}})};
  nest.stmts.push_back(std::move(s));
  return nest;
}

TEST(Parallelize, SkewExposesWavefront) {
  // SOR-like: A(i,j) = A(i-1,j) + A(i,j-1): both loops carry; skewing
  // j by i gives distances (1,1),(0,1)->(1,0)... after skew (1,0),(1,1):
  // wait — skew makes inner parallel: deps (1,0),(0,1) -> (1,1),(0,1) no.
  // With transform [[1,0],[1,1]]: (1,0)->(1,1), (0,1)->(0,1): inner still
  // carries. With wavefront permute+skew [[1,1],[1,0]] deps become
  // (1,1),(1,0): inner parallel.
  const ParallelizedNest p = parallelize(sor_nest());
  // No permutation can give a DOALL; the skew fallback must find one
  // parallel (inner) loop.
  EXPECT_EQ(std::count(p.parallel.begin(), p.parallel.end(), true), 1);
  EXPECT_TRUE(p.parallel[1]);
  EXPECT_FALSE(p.parallel[0]);
}

/// parallelize stores the original nest's pairs mapped through its
/// transform; they must be what analyzing the transformed nest finds:
/// the same statement pairs, each with the same set of vectors. Checked
/// on every compiled nest of the apps and the fuzzer's programs. A skew
/// maps exact distances, which need not match a fresh analysis of the
/// skewed nest, so there the stored vectors must cover every carried
/// level.
TEST(Parallelize, StoresTheTransformedNestsPairs) {
  using Sets = std::map<std::pair<int, int>, std::set<std::string>>;
  auto as_sets = [](const std::vector<PairDeps>& pairs) {
    Sets out;
    for (const PairDeps& pd : pairs)
      for (const DepVector& v : pd.vectors)
        out[{pd.src_stmt, pd.dst_stmt}].insert(v.to_string());
    return out;
  };
  std::vector<ir::Program> progs = {
      apps::figure1(16), apps::vpenta(16), apps::lu(16),
      apps::stencil5(16), apps::adi(16),    apps::erlebacher(16),
      apps::swm256(16),  apps::tomcatv(16)};
  for (std::uint64_t seed = 0; seed < 100; ++seed)
    progs.push_back(verify::generate_program(seed));
  long transformed = 0;
  for (const ir::Program& prog : progs)
    for (const core::Mode mode :
         {core::Mode::Base, core::Mode::CompDecomp, core::Mode::Full})
      for (const int procs : {1, 3, 4}) {
        const core::CompiledProgram cp = core::compile(prog, mode, procs);
        ASSERT_EQ(cp.dec().par.size(), cp.nests.size());
        for (size_t j = 0; j < cp.nests.size(); ++j) {
          const ParallelizedNest& par = cp.dec().par[j];
          if (par.transform != linalg::IntMatrix::identity(par.nest.depth()))
            ++transformed;
          EXPECT_EQ(as_sets(par.pairs),
                    as_sets(analyze_pairs(par.nest)))
              << prog.name << " " << core::to_string(mode) << " P=" << procs
              << " nest " << j;
        }
      }
  EXPECT_GT(transformed, 0);  // some nest took a permutation

  const ParallelizedNest p = parallelize(sor_nest());
  ASSERT_NE(p.transform, linalg::IntMatrix::identity(2));
  std::vector<DepVector> stored;
  for (const PairDeps& pd : p.pairs)
    stored.insert(stored.end(), pd.vectors.begin(), pd.vectors.end());
  const std::vector<bool> carried = carried_levels(stored, 2);
  const std::vector<bool> brute = carried_levels_bruteforce(p.nest);
  for (size_t k = 0; k < brute.size(); ++k)
    EXPECT_TRUE(!brute[k] || carried[k]) << "level " << k;
  EXPECT_TRUE(brute[0]);
}

}  // namespace
}  // namespace dct::dep
