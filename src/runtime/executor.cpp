#include "runtime/executor.hpp"

#include <algorithm>
#include <cstdint>

#include "runtime/traversal.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace dct::runtime {

using core::CompiledProgram;
using core::CompiledRef;

double init_value(std::uint64_t seed, int array, Int orig_linear) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(array + 1) << 40) ^
          static_cast<std::uint64_t>(orig_linear));
  return 1.0 + rng.uniform01();  // in [1, 2): safe divisor
}

namespace {

/// Per-element simulation state of one array, as parallel arrays by
/// restructured element address: the writer id, read on every access (-1
/// = initial data); the completion time of the last write, read only when
/// the writer is another processor; and, only when values are collected,
/// the value. A hot element costs 9 bytes.
struct Cells {
  std::vector<std::int8_t> wproc;
  std::vector<double> wtime;
  std::vector<double> data;  ///< empty unless values are collected

  std::size_t bytes() const {
    return wproc.size() * sizeof(wproc[0]) + wtime.size() * sizeof(double) +
           data.size() * sizeof(double);
  }
};
// The Machine's processor limit is what keeps writer ids in range.
static_assert(machine::kMaxProcs <= INT8_MAX);

/// Traversal policy of the simulator: per-processor clocks, dataflow
/// waits on elements written by other processors, and one machine access
/// per reference. Statements are evaluated only when values are collected.
class SimPolicy {
 public:
  struct Slot {
    std::int8_t* wproc = nullptr;  ///< by restructured element address
    double* wtime = nullptr;
    double* data = nullptr;  ///< used only when values are collected
    Int base_addr = 0;
    Int elem_size = 8;
    Int copy_bytes = 0;
    bool replicated = false;
    double addr_overhead = 0;
  };

  SimPolicy(const CompiledProgram& cp, const machine::MachineConfig& mcfg,
            machine::Machine& machine, std::vector<Cells>& cells,
            std::vector<double>& clock, const support::CancelToken& cancel,
            bool cache_clock, bool values)
      : cp_(cp), mcfg_(mcfg), machine_(machine), cells_(cells),
        clock_(clock), cancel_(cancel), cache_clock_(cache_clock),
        values_(values) {}

  Slot slot(const CompiledRef& ref) const {
    const core::CompiledArray& ca = cp_.arrays[static_cast<size_t>(ref.array)];
    Cells& c = cells_[static_cast<size_t>(ref.array)];
    return {c.wproc.data(),
            c.wtime.data(),
            c.data.data(),
            ca.base_addr,
            cp_.program().arrays[static_cast<size_t>(ref.array)].elem_size,
            ca.bytes,
            ca.replicated,
            ref.addr_overhead};
  }

  static bool owns(int) { return true; }
  /// Every access is charged to the machine in order: no run loops.
  static constexpr bool kRunLoops = false;
  bool values() const { return values_; }

  /// The processor whose clock is in flight and that clock. With
  /// `cache_clock` it stays in flight until the owner changes or the
  /// segment ends; otherwise it is stored back after every instance.
  struct Cursor {
    int q = -1;  ///< -1 = none
    int cluster = 0;
    double t = 0;
  };

  static Cursor cursor() { return {}; }
  void flush(Cursor& c) {
    if (c.q >= 0) clock_[static_cast<size_t>(c.q)] = c.t;
    c.q = -1;
  }
  void begin(Cursor& c, int q, double compute_cycles) {
    if (q != c.q) {
      flush(c);
      c = {q, mcfg_.cluster_of(q), clock_[static_cast<size_t>(q)]};
    }
    c.t += compute_cycles;
  }
  void end(Cursor& c) {
    if (!cache_clock_) flush(c);
  }

  double load(Cursor& cur, const Slot& s, Int lin) {
    // Cross-processor dataflow.
    const int w = s.wproc[lin];
    if (w >= 0 && w != cur.q) {
      const double wt = s.wtime[lin];
      if (wt > cur.t) {
        wait_cycles += wt - cur.t;
        cur.t = wt + mcfg_.lock_cycles;
      }
    }
    Int byte = s.base_addr + lin * s.elem_size;
    if (s.replicated) byte += static_cast<Int>(cur.cluster) * s.copy_bytes;
    cur.t += machine_.access(cur.q, byte, false) + s.addr_overhead;
    return values_ ? s.data[lin] : 0.0;
  }

  void store(Cursor& cur, const Slot& s, Int lin, double v, bool has_value) {
    cur.t += machine_.access(cur.q, s.base_addr + lin * s.elem_size, true) +
             s.addr_overhead;
    if (has_value) s.data[lin] = v;
    s.wproc[lin] = static_cast<std::int8_t>(cur.q);
    s.wtime[lin] = cur.t;
  }

  void poll() const {
    if (cancel_.valid()) cancel_.check("simulate");
  }
  static void gate() {}
  static void after_iteration(int) {}

  double wait_cycles = 0;  ///< cross-processor dataflow stalls

 private:
  const CompiledProgram& cp_;
  const machine::MachineConfig& mcfg_;
  machine::Machine& machine_;
  std::vector<Cells>& cells_;
  std::vector<double>& clock_;
  const support::CancelToken& cancel_;
  const bool cache_clock_;
  const bool values_;
};

}  // namespace

RunResult simulate(const CompiledProgram& cp,
                   const machine::MachineConfig& mcfg,
                   const ExecOptions& opts) {
  support::PassRecorder rec("simulate");
  DCT_CHECK(mcfg.procs == cp.procs, "machine/compile processor mismatch");
  machine::Machine machine(mcfg, opts.fast_exec);
  const int P = cp.procs;
  const ir::Program& prog = cp.program();

  // ---- array state + page homing ----
  // Pages are the machine's: compile aligns arrays to 4 KB, so a larger
  // page may start before an array or end after it. An array's pages run
  // from the one holding its first byte to the one holding its last.
  const bool values = opts.collect_values;
  const Int page_bytes = mcfg.page_bytes;
  std::vector<Cells> cells(prog.arrays.size());
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    const core::CompiledArray& ca = cp.arrays[a];
    const ir::ArrayDecl& decl = prog.arrays[a];
    const bool distributed =
        !ca.replicated &&
        std::any_of(ca.part.dims.begin(), ca.part.dims.end(),
                    [](const auto& d) { return d.proc_dim >= 0; });
    const auto n = static_cast<size_t>(ca.layout.size());
    cells[a].wproc.assign(n, -1);
    cells[a].wtime.assign(n, 0.0);
    if (values) cells[a].data.resize(n);
    // First page of the copy starting at `base`, and how many it spans.
    const auto pages_of = [&](Int base) {
      const Int first = base / page_bytes;
      const Int end = (base + ca.bytes + page_bytes - 1) / page_bytes;
      return std::pair{first, end - first};
    };
    const auto [first_page, pages] = pages_of(ca.base_addr);
    // Per page: lowest byte of the array in it and that element's owner.
    std::vector<std::pair<Int, int>> page_owner(
        distributed ? static_cast<size_t>(pages) : 0, {INT64_MAX, -1});
    if (values || distributed)
      ir::for_each_element(decl, [&](std::span<const Int> idx, Int linear) {
        const Int lin = ca.layout.linearize(idx);
        if (values)
          cells[a].data[static_cast<size_t>(lin)] =
              init_value(opts.init_seed, static_cast<int>(a), linear);
        if (!distributed) return;
        const Int byte = ca.base_addr + lin * decl.elem_size;
        auto& po = page_owner[static_cast<size_t>(byte / page_bytes -
                                                  first_page)];
        if (byte < po.first) po = {byte, std::min(ca.part.rank(idx), P - 1)};
      });
    if (ca.replicated) {
      for (int c = 0; c < mcfg.clusters(); ++c) {
        const auto [first, count] = pages_of(ca.base_addr + c * ca.bytes);
        for (Int pg = first; pg < first + count; ++pg)
          machine.home_page(pg * page_bytes, c);
      }
    } else if (distributed) {
      for (Int pg = 0; pg < pages; ++pg) {
        const int owner = page_owner[static_cast<size_t>(pg)].second;
        if (owner >= 0)
          machine.home_page((first_page + pg) * page_bytes,
                            mcfg.cluster_of(owner));
      }
    }
    // Base mode / serial arrays: left to round-robin first touch.
  }

  // ---- execution ----
  RunResult res;
  res.proc_cycles.assign(static_cast<size_t>(P), 0.0);
  std::vector<double>& clock = res.proc_cycles;
  SimPolicy policy(cp, mcfg, machine, cells, clock, opts.cancel,
                   opts.fast_exec, values);
  Traversal<SimPolicy> kernel(cp, policy, opts.fast_exec);
  for (int step = 0; step < prog.time_steps; ++step) {
    for (size_t j = 0; j < cp.nests.size(); ++j) {
      policy.poll();
      kernel.run_nest(j);
      const bool last =
          step == prog.time_steps - 1 && j == cp.nests.size() - 1;
      if (P > 1 && (cp.nests[j].barrier_after || last)) {
        const double m = *std::max_element(clock.begin(), clock.end());
        const double bc = machine.barrier_cost(P);
        for (double& c : clock) c = m + bc;
        res.barrier_cycles += bc;
      }
    }
  }

  res.cycles = *std::max_element(clock.begin(), clock.end());
  res.mem = machine.total_stats();
  res.wait_cycles = policy.wait_cycles;
  res.statements = kernel.statements;
  ExecCounters& ctr = res.counters = kernel.counters;
  ctr.dir_fast = res.mem.dir_fast_hits;

  rec.count("sim_walker_fast_hits", static_cast<long>(ctr.walker_fast));
  rec.count("sim_linearize_fallbacks",
            static_cast<long>(ctr.linearize_fallback));
  rec.count("sim_dir_fast_hits", static_cast<long>(ctr.dir_fast));
  rec.count("sim_owner_hoisted", static_cast<long>(ctr.owner_hoisted));
  rec.count("sim_walker_splits", static_cast<long>(ctr.walker_splits));
  rec.count("sim_statements", static_cast<long>(res.statements));
  std::size_t state_bytes = machine.state_bytes();
  for (const Cells& c : cells) state_bytes += c.bytes();
  rec.count("sim_state_bytes", static_cast<long>(state_bytes));

  if (values)
    res.values = original_order(cp, [&](int a, Int lin) {
      return cells[static_cast<size_t>(a)].data[static_cast<size_t>(lin)];
    });
  res.trace.passes.push_back(rec.finish());
  return res;
}

std::vector<std::vector<double>> run_reference(const ir::Program& prog,
                                               std::uint64_t init_seed) {
  ir::require_evaluators(prog);
  std::vector<std::vector<double>> data(prog.arrays.size());
  for (size_t a = 0; a < prog.arrays.size(); ++a) {
    const ir::ArrayDecl& decl = prog.arrays[a];
    data[a].resize(static_cast<size_t>(decl.elem_count()));
    for (Int l = 0; l < decl.elem_count(); ++l)
      data[a][static_cast<size_t>(l)] =
          init_value(init_seed, static_cast<int>(a), l);
  }
  auto linear_of = [&](const ir::ArrayDecl& decl, std::span<const Int> idx) {
    Int l = 0, s = 1;
    for (size_t k = 0; k < idx.size(); ++k) {
      l += idx[k] * s;
      s *= decl.dims[k];
    }
    return l;
  };

  size_t max_reads = 1;
  for (const ir::LoopNest& nest : prog.nests)
    for (const ir::Stmt& s : nest.stmts)
      max_reads = std::max(max_reads, s.reads.size());
  std::vector<double> vals(max_reads);

  for (int step = 0; step < prog.time_steps; ++step)
    for (const ir::LoopNest& nest : prog.nests)
      ir::for_each_iteration(nest, [&](std::span<const Int> iter,
                                       std::span<const Int> lower) {
        for (const ir::Stmt& s : nest.stmts) {
          if (!s.fires(iter, lower)) continue;
          size_t vi = 0;
          for (const ir::ArrayRef& r : s.reads) {
            const auto idx = r.index(iter);
            vals[vi++] = data[static_cast<size_t>(r.array)][static_cast<size_t>(
                linear_of(prog.arrays[static_cast<size_t>(r.array)], idx))];
          }
          const auto idx = s.write.index(iter);
          data[static_cast<size_t>(s.write.array)][static_cast<size_t>(
              linear_of(prog.arrays[static_cast<size_t>(s.write.array)],
                        idx))] =
              s.eval(std::span<const double>(vals.data(), vi));
        }
      });
  return data;
}

}  // namespace dct::runtime
