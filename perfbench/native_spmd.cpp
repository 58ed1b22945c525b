// Workload `native_spmd`: the 7 Table 1 codes compiled in all 3 modes and
// run on real threads by native::run_native, at min(4, nproc) threads and
// at 1 thread. The only workload that times barriers, thread scaling and
// the FULL layouts on hardware.
#include <algorithm>
#include <iostream>
#include <map>
#include <random>

#include "apps/apps.hpp"
#include "common.hpp"
#include "native/native.hpp"
#include "runtime/executor.hpp"
#include "service/server.hpp"
#include "support/str.hpp"

namespace perfbench {

namespace {

using dct::strf;
using dct::core::Mode;

const Mode kModes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
const char* const kModeNames[] = {"base", "cd", "full"};
// Timed set-ups before the first round and after each round.
constexpr int kSetupsPerRound = 3;

/// Sizes whose FULL working sets exceed a 2 MiB per-core L2, as in
/// bench_native; LU is smaller so its per-iteration barriers do not
/// dominate the run.
std::vector<std::pair<std::string, dct::ir::Program>> build_apps() {
  namespace apps = dct::apps;
  std::vector<std::pair<std::string, dct::ir::Program>> out;
  out.emplace_back("lu", apps::lu(96));
  out.emplace_back("stencil5", apps::stencil5(512, 2));
  out.emplace_back("adi", apps::adi(384, 2));
  out.emplace_back("vpenta", apps::vpenta(256));
  out.emplace_back("erlebacher", apps::erlebacher(64, 2));
  out.emplace_back("swm256", apps::swm256(384, 2));
  out.emplace_back("tomcatv", apps::tomcatv(384, 2));
  return out;
}

struct Cell {
  std::size_t app;
  int mode;
  int threads;
  dct::core::CompiledProgram cp;
  dct::native::ProgramPlan plan;
  std::vector<double> seconds;
  long long barriers = 0;
};

struct Setup {
  std::vector<std::pair<std::string, dct::ir::Program>> apps;
  std::vector<Cell> cells;
  std::map<std::string, double> pass_ms;
  double plan_ms = 0;
};

Setup set_up(const std::vector<int>& thread_counts, Tracer& tr) {
  Setup s;
  s.apps = build_apps();
  dct::core::CompileOptions copts;
  copts.strategy = dct::layout::AddrStrategy::Optimized;
  for (std::size_t a = 0; a < s.apps.size(); ++a)
    for (int m = 0; m < 3; ++m)
      for (const int t : thread_counts) {
        Cell c{a, m, t, {}, {}, {}, 0};
        {
          SpanScope span(tr, "core.compile", -1);
          c.cp = dct::core::compile(s.apps[a].second, kModes[m], t, copts);
        }
        for (const dct::support::PassRecord& p : c.cp.trace.passes)
          s.pass_ms[p.name] += p.wall_ms;
        const double p0 = tr.now_us();
        c.plan = dct::native::plan_program(c.cp);
        const double p1 = tr.now_us();
        tr.add("native.plan_program", -1, p0, p1);
        s.plan_ms += (p1 - p0) / 1000.0;
        s.cells.push_back(std::move(c));
      }
  return s;
}

}  // namespace

void run_native_spmd(const Config& cfg, Report& rep, Tracer& tr) {
  const int tmax = cfg.threads;
  const std::vector<int> thread_counts =
      tmax > 1 ? std::vector<int>{tmax, 1} : std::vector<int>{1};

  // Set-up: build programs, compile every cell, plan it. Timed again after
  // every round, so the reported median spans the whole run; spans only
  // for the first one.
  std::vector<double> setup_s, plan_ms;
  std::map<std::string, std::vector<double>> pass_ms;
  Tracer quiet(false);
  const auto timed_setup = [&](int times, Tracer& t) {
    Setup out;
    for (int i = 0; i < times; ++i) {
      const Clock::time_point t0 = Clock::now();
      out = set_up(thread_counts, i == 0 ? t : quiet);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      plan_ms.push_back(out.plan_ms);
      for (const auto& [p, ms] : out.pass_ms) pass_ms[p].push_back(ms);
    }
    return out;
  };
  Setup s = timed_setup(kSetupsPerRound, tr);

  // Reference fingerprints, outside all timing. The seed picks the
  // initial array values.
  std::vector<std::uint64_t> want;
  for (const auto& [name, prog] : s.apps)
    want.push_back(dct::service::values_fingerprint(
        dct::runtime::run_reference(prog, cfg.seed)));

  std::mt19937_64 rng(cfg.seed);
  std::vector<std::size_t> order(s.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> untraced_round_s, traced_round_s;
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       seconds_between(start, Clock::now()) < cfg.seconds || round < 3;
       ++round) {
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured in the same process.
    const bool traced = cfg.trace && round % 2 == 1;
    std::shuffle(order.begin(), order.end(), rng);
    const Clock::time_point r0 = Clock::now();
    {
      SpanScope root(traced ? tr : quiet, "bench.native_round", -1);
      for (const std::size_t i : order) {
        Cell& c = s.cells[i];
        dct::native::NativeOptions no;
        no.threads = c.threads;
        no.init_seed = cfg.seed;
        // Values are checked once per cell and run: collecting them costs
        // more than most cells take.
        no.collect_values = round == 0;
        rep.attempt();
        try {
          dct::native::NativeResult nr = [&] {
            SpanScope span(traced ? tr : quiet, "native.run_native",
                           root.id());
            return dct::native::run_native(c.cp, c.plan, no);
          }();
          c.seconds.push_back(nr.seconds);
          c.barriers = nr.barriers;
          if (round == 0 &&
              dct::service::values_fingerprint(nr.values) != want[c.app])
            rep.fail(strf("%s %s T=%d: values differ from run_reference",
                          s.apps[c.app].first.c_str(), kModeNames[c.mode],
                          c.threads));
        } catch (const std::exception& e) {
          rep.fail(strf("%s %s T=%d: %s", s.apps[c.app].first.c_str(),
                        kModeNames[c.mode], c.threads, e.what()));
        }
      }
    }
    (traced ? traced_round_s : untraced_round_s)
        .push_back(seconds_between(r0, Clock::now()));
    timed_setup(kSetupsPerRound, quiet);
  }

  // cell_at[app][mode][threads] -> median seconds
  std::map<std::size_t, std::map<int, std::map<int, const Cell*>>> at;
  for (const Cell& c : s.cells) at[c.app][c.mode][c.threads] = &c;
  const auto med = [&](std::size_t a, int m, int t) {
    return median(at[a][m][t]->seconds);
  };
  std::vector<double> all_t4;
  for (int m = 0; m < 3; ++m) {
    std::vector<double> per_app;
    for (std::size_t a = 0; a < s.apps.size(); ++a)
      per_app.push_back(med(a, m, tmax));
    all_t4.insert(all_t4.end(), per_app.begin(), per_app.end());
    rep.add(strf("native_%s_s", kModeNames[m]), "s", geomean(per_app));
  }

  std::cout << strf("native anomaly report (%d threads vs 1):\n", tmax);
  for (std::size_t a = 0; a < s.apps.size(); ++a) {
    const std::string& n = s.apps[a].first;
    std::cout << strf(
        "  %-10s FULL-vs-BASE at %dT %.2f | FULL vs CD time %.2f at 1T, "
        "%.2f at %dT | %dT vs 1T speedup: base %.2f cd %.2f full %.2f | "
        "barriers at %dT: base %lld cd %lld full %lld\n",
        n.c_str(), tmax, med(a, 0, tmax) / med(a, 2, tmax),
        med(a, 2, 1) / med(a, 1, 1), med(a, 2, tmax) / med(a, 1, tmax), tmax,
        tmax, med(a, 0, 1) / med(a, 0, tmax), med(a, 1, 1) / med(a, 1, tmax),
        med(a, 2, 1) / med(a, 2, tmax), tmax, at[a][0][tmax]->barriers,
        at[a][1][tmax]->barriers, at[a][2][tmax]->barriers);
  }

  // The end-to-end metrics every workload reports: work_s here is the
  // geomean over the 21 cells of their median time at tmax threads.
  rep.add("setup_s", "s", setup_s);
  rep.add("work_s", "s", geomean(all_t4));
  if (!cfg.trace) return;

  rep.add("trace.overhead_frac", "ratio",
          median(traced_round_s) / median(untraced_round_s) - 1.0);
  for (const auto& [p, v] : pass_ms) rep.add("core." + p + "_ms", "ms", v);
  rep.add("native.plan_ms", "ms", plan_ms);
  for (std::size_t a = 0; a < s.apps.size(); ++a) {
    const std::string& n = s.apps[a].first;
    for (int m = 0; m < 3; ++m) {
      const std::string key = "native." + n + "." + kModeNames[m];
      rep.add(key + ".t4_s", "s", at[a][m][tmax]->seconds);
      rep.add(key + ".t1_s", "s", at[a][m][1]->seconds);
      rep.add(key + ".barriers", "count",
              static_cast<double>(at[a][m][tmax]->barriers));
    }
    rep.add("native." + n + ".full_vs_base", "ratio",
            med(a, 0, tmax) / med(a, 2, tmax));
  }
  for (const auto& [layer, ms] : tr.self_ms_by_layer())
    rep.add("self." + layer + "_ms", "ms", ms);
}

}  // namespace perfbench
