#include "core/experiment.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "support/deadline.hpp"
#include "support/diagnostics.hpp"
#include "support/parallel.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace dct::core {

namespace {

bool retryable(Error::Code code) {
  switch (code) {
    case Error::Code::kUnsupportedConfig:
    case Error::Code::kOracleViolation:  // deterministic: retry can't help
    case Error::Code::kCancelled:
    case Error::Code::kDeadlineExceeded:
      return false;
    default:
      return true;
  }
}

}  // namespace

std::string CellFailure::to_string() const {
  return strf("%s P=%d [%s] %s (%s, %d attempt%s)%s",
              core::to_string(mode).c_str(), procs, dct::to_string(code),
              skipped ? "skipped" : "failed",
              stage.empty() ? "-" : stage.c_str(),
              attempts, attempts == 1 ? "" : "s",
              what.empty() ? "" : (": " + what).c_str());
}

SweepResult run_sweep(const ir::Program& prog, const SweepOptions& opts) {
  SweepResult out;
  out.procs = opts.procs;
  out.modes = opts.modes;

  // Sweep-wide wall-clock deadline: every cell checks it before it
  // starts, and the executor polls it at segment granularity.
  const support::Deadline deadline =
      opts.deadline_ms > 0 ? support::Deadline::in_ms(opts.deadline_ms)
                           : support::Deadline();

  // Every sweep point — the sequential baseline, the per-mode verification
  // runs and the (mode, P) grid — is an independent compile + simulation,
  // so they all go onto one thread pool. Results land in slots indexed by
  // task id, so aggregation below is deterministic and the rendered tables
  // are byte-identical to a serial (threads = 1) sweep.
  struct Task {
    Mode mode;
    int procs;
    bool verify;
  };
  std::vector<Task> tasks;
  tasks.push_back({Mode::Base, 1, false});  // best sequential version
  if (opts.verify)
    for (Mode mode : opts.modes) tasks.push_back({mode, 4, true});
  const size_t grid_base = tasks.size();
  for (Mode mode : opts.modes)
    for (int p : opts.procs) tasks.push_back({mode, p, false});

  const std::vector<std::vector<double>> reference =
      opts.verify ? runtime::run_reference(prog)
                  : std::vector<std::vector<double>>{};
  const CompileOptions copts{.strategy = opts.strategy};

  // One analysis serves every cell: the first attempt that gets past its
  // fault hook builds it and records its stages in the sweep's trace. One
  // that throws is not kept, so every attempt of every cell retries it
  // and fails with its own stage context, as a compile of its own would.
  std::mutex analysis_mu;
  const auto shared_analysis = [&] {
    const std::lock_guard<std::mutex> lock(analysis_mu);
    if (out.analysis == nullptr) out.analysis = analyze(prog, &out.trace);
    return out.analysis;
  };

  // Crash boundary around one cell: any failure of any attempt becomes a
  // CellFailure record; the sweep itself always completes.
  struct CellOutcome {
    runtime::RunResult result;
    support::PipelineTrace trace;
    bool ok = false;
    bool has_failure = false;
    CellFailure fail;
  };
  std::vector<CellOutcome> cells(tasks.size());

  // One attempt of one cell. Throws on any failure.
  auto attempt = [&](const Task& t)
      -> std::pair<runtime::RunResult, support::PipelineTrace> {
    if (opts.fault_hook) opts.fault_hook(t.mode, t.procs);
    CompiledProgram cp = compile(shared_analysis(), t.mode, t.procs, copts);
    support::PipelineTrace trace = std::move(cp.trace);
    runtime::ExecOptions eopts;
    eopts.collect_values = t.verify;
    eopts.deadline = deadline;
    runtime::RunResult rr =
        runtime::simulate(cp, machine::MachineConfig::dash(t.procs), eopts);
    trace.merge(rr.trace);
    if (t.verify && rr.values != reference)
      throw Error(Error::Code::kOracleViolation,
                  prog.name + ": transformed program changed results")
          .with_context("verify cell");
    return {std::move(rr), std::move(trace)};
  };

  auto run_cell = [&](int idx) {
    const Task& t = tasks[static_cast<size_t>(idx)];
    CellOutcome& cell = cells[static_cast<size_t>(idx)];
    cell.fail.mode = t.mode;
    cell.fail.procs = t.procs;
    if (deadline.expired()) {
      cell.has_failure = true;
      cell.fail.code = Error::Code::kDeadlineExceeded;
      cell.fail.what = "sweep budget exhausted before the cell started";
      cell.fail.repro = strf("%s mode=%s procs=%d", prog.name.c_str(),
                             to_string(t.mode).c_str(), t.procs);
      return;
    }
    std::optional<Error> last;
    const int tries = 1 + std::max(0, opts.retries);
    for (int a = 0; a < tries && !cell.ok; ++a) {
      ++cell.fail.attempts;
      try {
        auto [rr, trace] = attempt(t);
        cell.result = std::move(rr);
        cell.trace = std::move(trace);
        cell.ok = true;
      } catch (...) {
        last = current_error();
      }
      if (last && !retryable(last->code())) break;
    }
    if (cell.ok) return;
    // Every attempt failed: the cell is recorded and rendered as "-".
    cell.has_failure = true;
    cell.fail.code = last->code();
    cell.fail.stage = join(last->context(), "; ");
    cell.fail.what = last->what();
    cell.fail.repro = strf("%s mode=%s procs=%d%s", prog.name.c_str(),
                           to_string(t.mode).c_str(), t.procs,
                           t.verify ? " (verify cell)" : "");
    // Not a fault: the configuration is out of contract.
    cell.fail.skipped = last->code() == Error::Code::kUnsupportedConfig;
  };

  // run_cell is the crash boundary: it catches every exception, so this
  // never throws.
  support::parallel_for(static_cast<int>(tasks.size()), opts.threads,
                        run_cell);

  for (size_t i = 0; i < tasks.size(); ++i) {
    out.trace.merge(cells[i].trace);
    if (cells[i].has_failure) out.failures.push_back(cells[i].fail);
  }

  out.seq_cycles = cells[0].ok ? cells[0].result.cycles : 0;
  size_t i = grid_base;
  for (size_t m = 0; m < opts.modes.size(); ++m) {
    std::vector<double> series;
    for (size_t p = 0; p < opts.procs.size(); ++p, ++i) {
      const CellOutcome& cell = cells[i];
      series.push_back(cell.ok && cell.result.cycles > 0 &&
                               out.seq_cycles > 0
                           ? out.seq_cycles / cell.result.cycles
                           : 0.0);
    }
    out.speedups.push_back(std::move(series));
    runtime::RunResult last;
    if (!opts.procs.empty() && cells[i - 1].ok)
      last = std::move(cells[i - 1].result);
    out.raw_at_max.push_back(std::move(last));
  }
  return out;
}

std::string render_failures(const std::vector<CellFailure>& failures) {
  std::ostringstream os;
  os << "cell failures:\n";
  Table t({"mode", "procs", "code", "stage", "attempts", "disposition",
           "error"});
  for (const CellFailure& f : failures) {
    std::string what = f.what;
    if (what.size() > 60) what = what.substr(0, 57) + "...";
    t.add_row({to_string(f.mode), strf("%d", f.procs),
               dct::to_string(f.code), f.stage.empty() ? "-" : f.stage,
               strf("%d", f.attempts), f.skipped ? "skipped" : "failed",
               std::move(what)});
  }
  os << t.to_string();
  return os.str();
}

std::string render_sweep(const std::string& title, const SweepResult& r) {
  std::ostringstream os;
  std::vector<Series> series;
  for (size_t m = 0; m < r.modes.size(); ++m)
    series.push_back(Series{to_string(r.modes[m]), r.speedups[m]});
  os << render_speedup_chart(title, r.procs, series) << "\n";

  std::vector<std::string> header = {"procs"};
  for (Mode m : r.modes) header.push_back(to_string(m));
  Table t(header);
  for (size_t i = 0; i < r.procs.size(); ++i) {
    std::vector<std::string> row = {strf("%d", r.procs[i])};
    for (size_t m = 0; m < r.modes.size(); ++m)
      row.push_back(r.speedups[m][i] > 0 ? strf("%.2f", r.speedups[m][i])
                                         : "-");
    t.add_row(std::move(row));
  }
  os << t.to_string();

  os << "memory behaviour at P=" << r.procs.back() << ":\n";
  for (size_t m = 0; m < r.modes.size(); ++m)
    os << "  " << to_string(r.modes[m]) << ": "
       << r.raw_at_max[m].mem.to_string() << "\n";
  if (!r.failures.empty()) os << render_failures(r.failures);
  return os.str();
}

Table1Row table1_row(const std::string& name, const ir::Program& prog,
                     int procs) {
  SweepOptions opts;
  opts.procs = {procs};
  opts.verify = false;
  const SweepResult r = run_sweep(prog, opts);
  if (!r.failures.empty()) {
    const CellFailure& f = r.failures.front();
    Error e(f.code, f.what);
    if (!f.stage.empty()) e.with_context(f.stage);
    throw e.with_context("cell " + f.repro);
  }
  Table1Row row;
  row.program = name;
  row.base_speedup = r.speedups[0][0];
  const double cd = r.speedups[1][0];
  row.full_speedup = r.speedups[2][0];
  // "Critical" as in the paper's Table 1: the technique accounts for a
  // substantial part of the final improvement.
  row.comp_decomp_critical = cd >= 1.2 * row.base_speedup ||
                             row.full_speedup >= 1.5 * row.base_speedup;
  row.data_transform_critical = row.full_speedup >= 1.2 * cd;

  // The sweep's own analysis: every cell compiled from it.
  const decomp::ProgramDecomposition& dec = r.analysis->dec(Mode::CompDecomp);
  std::vector<std::string> decs;
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    if (dec.arrays[a].replicated ||
        dec.arrays[a].distributed_count() == 0)
      continue;
    decs.push_back(prog.arrays[a].name + dec.arrays[a].hpf_string());
  }
  row.decompositions = join(decs, " ");
  return row;
}

std::string render_table1(const std::vector<Table1Row>& rows) {
  Table t({"Program", "Base", "Fully Optimized", "Comp Decomp",
           "Data Transform", "Data Decompositions"});
  for (const Table1Row& r : rows)
    t.add_row({r.program, strf("%.1f", r.base_speedup),
               strf("%.1f", r.full_speedup),
               r.comp_decomp_critical ? "yes" : "-",
               r.data_transform_critical ? "yes" : "-", r.decompositions});
  return t.to_string();
}

}  // namespace dct::core
