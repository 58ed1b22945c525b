// Native-backend wall-clock benchmark: the hardware's answer to whether
// the Section 4 transformations pay off outside the simulator's cost
// model. Every application is compiled under BASE / COMP_DECOMP / FULL
// and executed for real by src/native/ — one std::thread per compiled
// processor, transformed array layouts, incremental address walkers,
// epoch-counter synchronization — at each requested thread count.
//
// The headline ratio is FULL time vs BASE time at the same thread count:
// same statement schedule, different data layouts and addressing. On a
// machine whose working sets exceed the private cache, FULL's contiguous
// per-thread layouts (strip-mine + permute) must win; that is the paper's
// Figure 12 claim restated in wall-clock terms.
//
// Output: a JSON report (DCT_BENCH_OUT, default BENCH_native.json) with
// per-(app, mode, threads) timings and per-app FULL-vs-BASE ratios.
// Knobs: DCT_NATIVE_THREADS (max thread count, default 4),
// DCT_BENCH_SMOKE=1 (reduced sizes), DCT_BENCH_REPS.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_common.hpp"
#include "core/compiler.hpp"
#include "native/native.hpp"

using namespace dct;

namespace {

double time_native(const core::CompiledProgram& cp, int threads, int reps,
                   native::NativeResult* out) {
  native::NativeOptions opts;
  opts.threads = threads;
  opts.collect_values = false;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    native::NativeResult res = native::run_native(cp, opts);
    best = std::min(best, res.seconds);
    *out = std::move(res);
  }
  return best;
}

}  // namespace

int main() {
  const int max_threads =
      std::max(1, static_cast<int>(env_int("DCT_NATIVE_THREADS", 4)));
  const bool smoke = env_int("DCT_BENCH_SMOKE", 0) != 0;
  const int reps = static_cast<int>(env_int("DCT_BENCH_REPS", smoke ? 1 : 3));

  // Sizes chosen so FULL-mode working sets exceed a private L2 (~2 MB):
  // layout locality, addressing and barrier counts are what differ, so
  // the arrays must be big enough for locality to matter.
  std::vector<std::pair<std::string, ir::Program>> programs;
  if (smoke) {
    programs.emplace_back("lu", apps::lu(48));
    programs.emplace_back("stencil5", apps::stencil5(64, 2));
    programs.emplace_back("adi", apps::adi(48, 2));
    programs.emplace_back("vpenta", apps::vpenta(24));
    programs.emplace_back("erlebacher", apps::erlebacher(12, 1));
    programs.emplace_back("swm256", apps::swm256(48, 2));
    programs.emplace_back("tomcatv", apps::tomcatv(48, 2));
  } else {
    programs.emplace_back("lu", apps::lu(384));
    programs.emplace_back("stencil5", apps::stencil5(768, 4));
    programs.emplace_back("adi", apps::adi(512, 3));
    programs.emplace_back("vpenta", apps::vpenta(128));
    programs.emplace_back("erlebacher", apps::erlebacher(64, 2));
    programs.emplace_back("swm256", apps::swm256(512, 3));
    programs.emplace_back("tomcatv", apps::tomcatv(512, 3));
  }
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  const std::vector<core::Mode> modes = {core::Mode::Base,
                                         core::Mode::CompDecomp,
                                         core::Mode::Full};

  // seconds[app][mode][threads]
  std::map<std::string, std::map<std::string, std::map<int, double>>> secs;
  std::string rows;
  std::cout << strf("%-12s %-26s %7s %12s %14s %9s\n", "app", "mode",
                    "threads", "seconds", "stmts/sec", "barriers");
  for (const auto& [name, prog] : programs) {
    for (const core::Mode mode : modes) {
      for (const int threads : thread_counts) {
        const auto cp = core::compile(prog, mode, threads);
        native::NativeResult res;
        const double t = time_native(cp, threads, reps, &res);
        const double sps = static_cast<double>(res.statements) / t;
        secs[name][core::to_string(mode)][threads] = t;
        std::cout << strf("%-12s %-26s %7d %12.4f %14.0f %9lld\n",
                          name.c_str(), core::to_string(mode).c_str(),
                          threads, t, sps,
                          static_cast<long long>(res.barriers));
        rows += strf(
            "    {\"app\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
            "\"seconds\": %.6f, \"statements\": %lld, "
            "\"stmts_per_sec\": %.0f, \"barriers\": %lld, "
            "\"parallel_nests\": %d, \"sequential_nests\": %d, "
            "\"restricted_nests\": %d},\n",
            name.c_str(), core::to_string(mode).c_str(), threads, t,
            res.statements, sps, static_cast<long long>(res.barriers),
            res.parallel_nests, res.sequential_nests, res.restricted_nests);
      }
    }
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // trailing comma

  // FULL vs BASE at the largest thread count >= 2 (or 1 if that is all
  // the machine offers): the wall-clock payoff of the data transforms.
  const int gate_threads =
      thread_counts.size() > 1 ? thread_counts.back() : thread_counts[0];
  const std::string base_key = core::to_string(core::Mode::Base);
  const std::string full_key = core::to_string(core::Mode::Full);
  std::string ratio_rows;
  double best_ratio = 0;
  std::string best_app;
  for (const auto& [name, by_mode] : secs) {
    const double tb = by_mode.at(base_key).at(gate_threads);
    const double tf = by_mode.at(full_key).at(gate_threads);
    const double ratio = tb / tf;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_app = name;
    }
    ratio_rows += strf("    {\"app\": \"%s\", \"threads\": %d, "
                       "\"full_vs_base\": %.3f},\n",
                       name.c_str(), gate_threads, ratio);
    std::cout << strf("  %-12s FULL vs BASE at %d threads: %.2fx\n",
                      name.c_str(), gate_threads, ratio);
  }
  if (!ratio_rows.empty()) ratio_rows.erase(ratio_rows.size() - 2, 1);

  const char* out_env = std::getenv("DCT_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_native.json";
  std::ofstream out(out_path);
  out << "{\n"
      << strf("  \"benchmark\": \"native_wallclock\",\n"
              "  \"max_threads\": %d,\n  \"smoke\": %s,\n  \"reps\": %d,\n",
              max_threads, smoke ? "true" : "false", reps)
      << strf("  \"gate_threads\": %d,\n", gate_threads)
      << strf("  \"best_full_vs_base\": %.3f,\n", best_ratio)
      << strf("  \"best_full_vs_base_app\": \"%s\",\n", best_app.c_str())
      << "  \"full_vs_base\": [\n" << ratio_rows << "  ],\n"
      << "  \"runs\": [\n" << rows << "  ]\n}\n";
  out.close();
  std::cout << "wrote " << out_path << "\n";

  bool ok = true;
  // The layout transforms must pay off in wall-clock terms somewhere.
  // Smoke sizes fit in cache, so the gate only applies at full sizes.
  if (!smoke)
    ok &= bench::check(
        best_ratio > 1.0,
        strf("%s FULL beats BASE at %d threads (%.2fx)", best_app.c_str(),
             gate_threads, best_ratio));
  return ok ? 0 : 1;
}
