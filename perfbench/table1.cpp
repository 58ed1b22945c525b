// Workload `table1`: the paper's Table 1 reproduced end to end. Each
// repetition runs the 7 codes through core::run_sweep at P=32 (plus the
// sweep's own P=1 BASE baseline) in all 3 modes. Nearly all of the time is
// the simulator (runtime) and the DASH model (machine); compiles are ~1%.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <random>

#include "apps/apps.hpp"
#include "common.hpp"
#include "core/experiment.hpp"
#include "support/parallel.hpp"
#include "support/str.hpp"

namespace perfbench {

namespace {

using dct::strf;
using dct::core::Mode;

constexpr int kProcs = 32;
constexpr int kSetupsPerRep = 5;  // timed set-ups before and after each rep
const Mode kModes[] = {Mode::Base, Mode::CompDecomp, Mode::Full};
const char* const kModeNames[] = {"base", "cd", "full"};

struct App {
  std::string name;   ///< metric name
  std::string label;  ///< Table 1 row label
  dct::ir::Program prog;
  std::string decompositions;
};

/// bench_table1's sizes at REPRO_SCALE=1.
std::vector<App> build_apps() {
  namespace apps = dct::apps;
  std::vector<App> out;
  out.push_back({"vpenta", "vpenta", apps::vpenta(96), {}});
  out.push_back({"lu", "LU", apps::lu(256), {}});
  out.push_back({"stencil5", "stencil", apps::stencil5(256, 4), {}});
  out.push_back({"adi", "ADI", apps::adi(128, 4), {}});
  out.push_back({"erlebacher", "erlebacher", apps::erlebacher(48, 2), {}});
  out.push_back({"swm256", "swm256", apps::swm256(128, 4), {}});
  out.push_back({"tomcatv", "tomcatv", apps::tomcatv(256, 2), {}});
  for (App& a : out) {
    // The decomposition strings of Table 1, as core::table1_row derives
    // them.
    const dct::decomp::ProgramDecomposition dec =
        dct::decomp::decompose(a.prog);
    std::vector<std::string> decs;
    for (std::size_t i = 0; i < a.prog.arrays.size(); ++i) {
      if (dec.arrays[i].replicated || dec.arrays[i].distributed_count() == 0)
        continue;
      decs.push_back(a.prog.arrays[i].name + dec.arrays[i].hpf_string());
    }
    a.decompositions = dct::join(decs, " ");
  }
  return out;
}

/// Simulated result of one app: BASE at P=1 and each mode at P=32.
struct Cells {
  double seq_cycles = 0;
  double cycles[3] = {0, 0, 0};
};

/// The expected-file lines of one app; cycles and speedups are printed
/// with all their digits, so equality is exact.
std::vector<std::string> expected_lines(const App& a, const Cells& c) {
  std::vector<std::string> out;
  out.push_back(strf("%s seq_cycles %.17g", a.name.c_str(), c.seq_cycles));
  for (int m = 0; m < 3; ++m)
    out.push_back(strf("%s %s P=%d cycles %.17g speedup %.17g",
                       a.name.c_str(), kModeNames[m], kProcs, c.cycles[m],
                       c.cycles[m] > 0 ? c.seq_cycles / c.cycles[m] : 0.0));
  out.push_back(strf("%s decomp %s", a.name.c_str(),
                     a.decompositions.c_str()));
  return out;
}

std::map<std::string, std::vector<std::string>> read_expected(
    const std::string& path) {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read expected file " + path);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty() && line[0] != '#')
      out[line.substr(0, line.find(' '))].push_back(line);
  return out;
}

dct::core::SweepOptions sweep_options(const Config& cfg) {
  dct::core::SweepOptions o;
  o.procs = {kProcs};
  o.modes = {Mode::Base, Mode::CompDecomp, Mode::Full};
  o.strategy = dct::layout::AddrStrategy::Optimized;
  o.verify = false;
  o.threads = cfg.threads;
  o.retries = 0;
  o.deadline_ms = 0;
  return o;
}

/// Per-rep measurements of a traced repetition.
struct TracedRep {
  double wall_s = 0;
  std::map<std::string, double> pass_ms;
  std::map<std::string, double> ns_per_access;  ///< "<app>.<mode>"
  long long walker_fast = 0, linearize = 0, owner_hoisted = 0,
            statements = 0, dir_fast = 0, accesses = 0;
};

/// The same 28 cells as the untraced sweep, through core::compile and
/// runtime::simulate directly so each call gets its own span.
TracedRep traced_rep(const Config& cfg, const std::vector<App>& apps,
                     const std::vector<std::size_t>& order, Tracer& tr,
                     std::vector<Cells>& cells) {
  struct Task {
    std::size_t app;
    int mode;  ///< -1 = the P=1 BASE baseline
  };
  std::vector<Task> tasks;
  for (const std::size_t a : order)
    for (int m = -1; m < 3; ++m) tasks.push_back({a, m});
  struct Out {
    dct::support::PipelineTrace trace;
    dct::runtime::RunResult rr;
    double sim_us = 0;
  };
  std::vector<Out> outs(tasks.size());

  TracedRep rep;
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope root(tr, "bench.table1_rep", -1);
    dct::core::CompileOptions copts;
    copts.strategy = dct::layout::AddrStrategy::Optimized;
    dct::support::parallel_for(
        static_cast<int>(tasks.size()), cfg.threads, [&](int i) {
          const Task& t = tasks[static_cast<std::size_t>(i)];
          const Mode mode = t.mode < 0 ? Mode::Base : kModes[t.mode];
          const int procs = t.mode < 0 ? 1 : kProcs;
          Out& o = outs[static_cast<std::size_t>(i)];
          dct::core::CompiledProgram cp = [&] {
            SpanScope s(tr, "core.compile", root.id());
            return dct::core::compile(apps[t.app].prog, mode, procs, copts);
          }();
          o.trace = std::move(cp.trace);
          dct::runtime::ExecOptions eo;
          eo.collect_values = false;
          eo.fast_exec = 1;
          const double s0 = tr.now_us();
          o.rr = dct::runtime::simulate(
              cp, dct::machine::MachineConfig::dash(procs), eo);
          const double s1 = tr.now_us();
          tr.add("runtime.simulate", root.id(), s0, s1);
          o.sim_us = s1 - s0;
        });
  }
  rep.wall_s = seconds_between(t0, Clock::now());

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    const Out& o = outs[i];
    for (const dct::support::PassRecord& p : o.trace.passes)
      rep.pass_ms[p.name] += p.wall_ms;
    Cells& c = cells[t.app];
    if (t.mode < 0) {
      c.seq_cycles = o.rr.cycles;
    } else {
      c.cycles[t.mode] = o.rr.cycles;
      rep.ns_per_access[apps[t.app].name + "." + kModeNames[t.mode]] =
          o.sim_us * 1000.0 /
          static_cast<double>(std::max<long long>(1, o.rr.mem.accesses));
    }
    rep.walker_fast += o.rr.counters.walker_fast;
    rep.linearize += o.rr.counters.linearize_fallback;
    rep.owner_hoisted += o.rr.counters.owner_hoisted;
    rep.statements += o.rr.statements;
    rep.dir_fast += o.rr.counters.dir_fast;
    rep.accesses += o.rr.mem.accesses;
  }
  return rep;
}

}  // namespace

void run_table1(const Config& cfg, Report& rep, Tracer& tr) {
  // Set-up: build the 7 programs and their Table 1 decompositions. It is
  // timed again after every repetition, so the reported median spans the
  // whole run rather than one moment of it.
  std::vector<double> setup_s;
  const auto timed_setup = [&](int times) {
    std::vector<App> out;
    for (int i = 0; i < times; ++i) {
      const Clock::time_point t0 = Clock::now();
      out = build_apps();
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    return out;
  };
  const std::vector<App> apps = timed_setup(kSetupsPerRep);
  // The seed only orders the apps on the sweep's thread pool.
  std::vector<std::size_t> order(apps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(cfg.seed));

  if (cfg.write_expected) {
    std::ofstream os(cfg.expected_path);
    os << "# Table 1 cells at P=" << kProcs
       << " (cycles and speedups exact) and decompositions.\n";
    for (const App& a : apps) {
      const dct::core::SweepResult r =
          dct::core::run_sweep(a.prog, sweep_options(cfg));
      if (!r.all_cells_ok())
        throw std::runtime_error(a.name + ": sweep failed; not recording");
      Cells c;
      c.seq_cycles = r.seq_cycles;
      for (int m = 0; m < 3; ++m) c.cycles[m] = r.raw_at_max[m].cycles;
      for (const std::string& l : expected_lines(a, c)) os << l << "\n";
    }
    std::cout << "wrote " << cfg.expected_path << "\n";
  }
  const auto expected = read_expected(cfg.expected_path);

  std::vector<Cells> cells(apps.size());
  // Compare one repetition's cells with the expected file; every line
  // that differs is one wrong cell.
  const auto check = [&] {
    for (const App& a : apps) {
      const std::vector<std::string> got =
          expected_lines(a, cells[&a - apps.data()]);
      const auto it = expected.find(a.name);
      rep.attempt(static_cast<long>(got.size()));
      for (std::size_t i = 0; i < got.size(); ++i)
        if (it == expected.end() || i >= it->second.size() ||
            it->second[i] != got[i])
          rep.fail("table1 cell differs from expected: " + got[i]);
    }
  };

  // The tracing overhead compares the traced path with itself under a
  // disabled tracer; run_sweep only gives table1_s and the cell check.
  std::vector<double> untraced_s, plain_s, traced_s;
  std::vector<TracedRep> traced;
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < cfg.seconds ||
         untraced_s.size() < 3 || (cfg.trace && traced.size() < 3)) {
    const Clock::time_point t0 = Clock::now();
    std::vector<dct::core::SweepResult> results(apps.size());
    for (const std::size_t a : order)
      results[a] = dct::core::run_sweep(apps[a].prog, sweep_options(cfg));
    untraced_s.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t a = 0; a < apps.size(); ++a) {
      cells[a].seq_cycles = results[a].seq_cycles;
      for (int m = 0; m < 3; ++m)
        cells[a].cycles[m] = results[a].raw_at_max[m].cycles;
      for (const auto& f : results[a].failures)
        std::cerr << "perfbench: " << apps[a].name << ": " << f.to_string()
                  << "\n";
    }
    check();

    if (cfg.trace) {
      plain_s.push_back(traced_rep(cfg, apps, order, off, cells).wall_s);
      check();
      traced.push_back(traced_rep(cfg, apps, order, tr, cells));
      traced_s.push_back(traced.back().wall_s);
      check();
    }
    timed_setup(kSetupsPerRep);
  }

  std::vector<dct::core::Table1Row> rows;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const Cells& c = cells[a];
    dct::core::Table1Row row;
    row.program = apps[a].label;
    row.base_speedup = c.seq_cycles / c.cycles[0];
    const double cd = c.seq_cycles / c.cycles[1];
    row.full_speedup = c.seq_cycles / c.cycles[2];
    row.comp_decomp_critical = cd >= 1.2 * row.base_speedup ||
                               row.full_speedup >= 1.5 * row.base_speedup;
    row.data_transform_critical = row.full_speedup >= 1.2 * cd;
    row.decompositions = apps[a].decompositions;
    rows.push_back(row);
  }
  std::cout << "Table 1 (speedups on " << kProcs << " simulated processors):\n"
            << dct::core::render_table1(rows) << "\n";

  // The end-to-end metrics every workload reports: work_s here is the time
  // of one whole Table 1 sweep, the same samples as table1_s.
  rep.add("setup_s", "s", setup_s);
  rep.add("work_s", "s", untraced_s);
  rep.add("table1_s", "s", untraced_s);
  if (!cfg.trace) return;

  rep.add("trace.overhead_frac", "ratio",
          median(traced_s) / median(plain_s) - 1.0);
  const auto per_rep = [&](auto field) {
    std::vector<double> v;
    for (const TracedRep& t : traced) v.push_back(field(t));
    return v;
  };
  for (const auto& [pass, ms] : traced.front().pass_ms) {
    (void)ms;
    rep.add("core." + pass + "_ms", "ms", per_rep([&](const TracedRep& t) {
              const auto it = t.pass_ms.find(pass);
              return it == t.pass_ms.end() ? 0.0 : it->second;
            }));
  }
  for (const auto& [cell, ns] : traced.front().ns_per_access) {
    (void)ns;
    rep.add("runtime." + cell + ".ns_per_access", "ns",
            per_rep([&](const TracedRep& t) {
              return t.ns_per_access.at(cell);
            }));
  }
  const TracedRep& t = traced.front();
  rep.add("runtime.walker_fast_frac", "ratio",
          static_cast<double>(t.walker_fast) /
              static_cast<double>(std::max(1LL, t.walker_fast + t.linearize)));
  rep.add("runtime.owner_hoisted_frac", "ratio",
          static_cast<double>(t.owner_hoisted) /
              static_cast<double>(std::max(1LL, t.statements)));
  rep.add("machine.dir_fast_frac", "ratio",
          static_cast<double>(t.dir_fast) /
              static_cast<double>(std::max(1LL, t.accesses)));
  for (const auto& [layer, ms] : tr.self_ms_by_layer())
    rep.add("self." + layer + "_ms", "ms", ms);
}

}  // namespace perfbench
