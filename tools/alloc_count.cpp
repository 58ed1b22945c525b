// build/tools/alloc_count: heap allocations per compile stage for the 7
// Table 1 applications at n=64, FULL, P=4, counted by a replaced global
// operator new. Each analysis stage runs as core::compile runs it, the tail
// (layout, lower, addr-strategy) is a compile from a shared analysis, and
// "other" is what a whole compile makes beyond the stages' sum. The last
// two columns are what a dctd worker pays beside a compile: "validate" is
// the allocations of one verify::validate_compiled of the tail's program
// (a cache-hit spot check), "release" the blocks freed when that program,
// its analysis still shared, is released (a cache eviction).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "apps/apps.hpp"
#include "core/compiler.hpp"
#include "verify/oracle.hpp"

// The tool is single-threaded.
static long allocations = 0;
static long frees = 0;

/// How much `f` adds to `counter` (by default, the allocations it makes).
template <typename F>
static long count(F&& f, const long& counter = allocations) {
  const long before = counter;
  f();
  return counter - before;
}

void* operator new(std::size_t n) {
  ++allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr) ++frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) ++frees;
  std::free(p);
}

int main() {
  using namespace dct;
  std::printf("%-11s %11s %9s %11s %12s %6s %6s %8s %8s %8s\n", "app",
              "parallelize", "decompose", "fold-select", "barrier-elim",
              "tail", "other", "compile", "validate", "release");
  for (const ir::Program& prog :
       {apps::vpenta(64), apps::lu(64), apps::stencil5(64), apps::adi(64),
        apps::erlebacher(64), apps::swm256(64), apps::tomcatv(64)}) {
    support::PassRecorder rs("stage");
    std::vector<dep::ParallelizedNest> par;
    decomp::ProgramDecomposition dec;
    const long s[] = {
        count([&] {
          for (size_t j = 0; j < prog.nests.size(); ++j) {
            support::ScopedSink nest_rs(&rs, static_cast<int>(j),
                                        prog.nests[j].name);
            par.push_back(dep::parallelize(prog.nests[j], &nest_rs));
          }
        }),
        count([&] { dec = decomp::decompose_from(std::move(par), prog, &rs); }),
        count([&] { decomp::select_folds(prog, dec, &rs); }),
        count([&] { decomp::eliminate_barriers(dec, &rs); }),
        count([&, an = core::analyze(prog)] {
          core::compile(an, core::Mode::Full, 4);
        })};
    const long all = count([&] { core::compile(prog, core::Mode::Full, 4); });
    const auto an = core::analyze(prog);
    auto cp = std::make_shared<const core::CompiledProgram>(
        core::compile(an, core::Mode::Full, 4));
    const long validate = count([&] { verify::validate_compiled(*cp); });
    const long release = count([&] { cp.reset(); }, frees);
    std::printf("%-11s %11ld %9ld %11ld %12ld %6ld %6ld %8ld %8ld %8ld\n",
                prog.name.c_str(), s[0], s[1], s[2], s[3], s[4],
                all - s[0] - s[1] - s[2] - s[3] - s[4], all, validate,
                release);
  }
}
