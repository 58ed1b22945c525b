// Simulator-throughput benchmark: how fast the execution engine itself
// runs, not how fast the simulated machine is. Every application is
// compiled under all three modes and simulated twice — once with the
// interpreter (the pre-optimization executor: affine subscripts plus
// Layout::linearize per access, full directory protocol) and once with the
// fast engine (incremental address walkers, hoisted owner computation,
// directory fast path). Both produce bit-identical results; the ratio of
// their statements/sec is the speedup of this engine.
//
// Output: a JSON report (DCT_BENCH_OUT, default BENCH_executor.json in the
// working directory) with per-(app, mode) throughput of both engines and
// the aggregate engine counters. Exits non-zero when the fast paths never
// fired (walker_fast == 0 or dir_fast == 0 in aggregate) — the smoke
// configuration CI runs with DCT_BENCH_SMOKE=1 uses reduced sizes.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_common.hpp"
#include "core/compiler.hpp"
#include "runtime/executor.hpp"

using namespace dct;

namespace {

double time_simulate(const core::CompiledProgram& cp, int procs,
                     bool fast_exec, int reps, runtime::RunResult* out) {
  runtime::ExecOptions opts;
  opts.collect_values = false;
  opts.fast_exec = fast_exec;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    runtime::RunResult res =
        runtime::simulate(cp, machine::MachineConfig::dash(procs), opts);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *out = std::move(res);
  }
  return best;
}

}  // namespace

int main() {
  const int procs = static_cast<int>(env_int("DCT_BENCH_PROCS", 16));
  const bool smoke = env_int("DCT_BENCH_SMOKE", 0) != 0;
  const int reps = static_cast<int>(env_int("DCT_BENCH_REPS", smoke ? 1 : 3));

  std::vector<std::pair<std::string, ir::Program>> programs;
  if (smoke) {
    programs.emplace_back("lu", apps::lu(24));
    programs.emplace_back("stencil5", apps::stencil5(32, 2));
    programs.emplace_back("adi", apps::adi(24, 2));
    programs.emplace_back("vpenta", apps::vpenta(16));
    programs.emplace_back("erlebacher", apps::erlebacher(8, 1));
    programs.emplace_back("swm256", apps::swm256(24, 2));
    programs.emplace_back("tomcatv", apps::tomcatv(24, 2));
  } else {
    programs.emplace_back("lu", apps::lu(96));
    programs.emplace_back("stencil5", apps::stencil5(192, 4));
    programs.emplace_back("adi", apps::adi(128, 4));
    programs.emplace_back("vpenta", apps::vpenta(64));
    programs.emplace_back("erlebacher", apps::erlebacher(32, 2));
    programs.emplace_back("swm256", apps::swm256(128, 3));
    programs.emplace_back("tomcatv", apps::tomcatv(128, 3));
  }
  const std::vector<core::Mode> modes = {core::Mode::Base,
                                         core::Mode::CompDecomp,
                                         core::Mode::Full};

  long long total_walker_fast = 0, total_dir_fast = 0;
  double stencil5_full_speedup = 0;
  std::string rows;
  std::cout << strf("%-12s %-12s %14s %14s %14s %8s\n", "app", "mode",
                    "interp stmt/s", "fast stmt/s", "fast ns/access",
                    "speedup");
  for (const auto& [name, prog] : programs) {
    for (const core::Mode mode : modes) {
      const auto cp = core::compile(prog, mode, procs);
      runtime::RunResult interp, fast;
      const double t_interp = time_simulate(cp, procs, false, reps, &interp);
      const double t_fast = time_simulate(cp, procs, true, reps, &fast);
      bench::check(fast.cycles == interp.cycles &&
                       fast.statements == interp.statements &&
                       fast.mem.accesses == interp.mem.accesses,
                   name + "/" + core::to_string(mode) +
                       ": engines agree on cycles, statements, accesses");
      const double interp_sps =
          static_cast<double>(interp.statements) / t_interp;
      const double fast_sps = static_cast<double>(fast.statements) / t_fast;
      const double ns_per_access =
          t_fast * 1e9 / static_cast<double>(fast.mem.accesses);
      const double speedup = fast_sps / interp_sps;
      total_walker_fast += fast.counters.walker_fast;
      total_dir_fast += fast.counters.dir_fast;
      if (name == "stencil5" && mode == core::Mode::Full)
        stencil5_full_speedup = speedup;
      std::cout << strf("%-12s %-12s %14.0f %14.0f %14.1f %7.2fx\n",
                        name.c_str(), core::to_string(mode).c_str(),
                        interp_sps, fast_sps, ns_per_access, speedup);
      rows += strf(
          "    {\"app\": \"%s\", \"mode\": \"%s\", \"procs\": %d, "
          "\"statements\": %lld, \"accesses\": %lld, "
          "\"interp_sec\": %.6f, \"fast_sec\": %.6f, "
          "\"interp_stmts_per_sec\": %.0f, \"fast_stmts_per_sec\": %.0f, "
          "\"fast_ns_per_access\": %.2f, \"speedup\": %.3f, "
          "\"walker_fast\": %lld, \"linearize_fallback\": %lld, "
          "\"dir_fast\": %lld, \"owner_hoisted\": %lld},\n",
          name.c_str(), core::to_string(mode).c_str(), procs,
          fast.statements, fast.mem.accesses, t_interp, t_fast, interp_sps,
          fast_sps, ns_per_access, speedup, fast.counters.walker_fast,
          fast.counters.linearize_fallback, fast.counters.dir_fast,
          fast.counters.owner_hoisted);
    }
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // trailing comma

  const char* out_env = std::getenv("DCT_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_executor.json";
  std::ofstream out(out_path);
  out << "{\n"
      << strf("  \"benchmark\": \"executor_throughput\",\n"
              "  \"procs\": %d,\n  \"smoke\": %s,\n  \"reps\": %d,\n",
              procs, smoke ? "true" : "false", reps)
      << strf("  \"stencil5_full_speedup\": %.3f,\n", stencil5_full_speedup)
      << strf("  \"total_walker_fast\": %lld,\n  \"total_dir_fast\": %lld,\n",
              total_walker_fast, total_dir_fast)
      << "  \"runs\": [\n"
      << rows << "  ]\n}\n";
  out.close();
  std::cout << "wrote " << out_path << "\n";

  bool ok = true;
  ok &= bench::check(total_walker_fast > 0,
                     "incremental walkers produced addresses");
  ok &= bench::check(total_dir_fast > 0,
                     "machine directory fast path served hits");
  // Throughput target only at full sizes: smoke runs are too short for a
  // stable ratio (they exist to prove the fast paths fire at all).
  if (!smoke)
    ok &= bench::check(stencil5_full_speedup >= 3.0,
                       strf("stencil5 FULL engine speedup %.2fx >= 3x",
                            stencil5_full_speedup));
  return ok ? 0 : 1;
}
