// perfbench: one process per run, driving the pipeline's layers through
// their public functions.
//
//   perfbench --workload table1|native_spmd|dctd_mix --seed N --seconds S
//             --trace 0|1 --expected FILE [--out-dir DIR] [--source-id ID]
//             [--write-expected]
//
// The last line of standard output is the run's result as one JSON object.
// The workloads and their metrics are described at the top of table1.cpp,
// native_spmd.cpp and dctd_mix.cpp; run.py builds and launches this.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload table1|native_spmd|dctd_mix "
               "--seed N --seconds S --trace 0|1 --expected FILE "
               "[--out-dir DIR] [--source-id ID] [--write-expected]\n";
  std::exit(2);
}

/// The library still reads DCT_* and REPRO_SCALE in the middle of calls
/// (run_sweep's option snapshot, simulate's engine choice, DCT_THREADS);
/// a stray setting would silently change what is measured.
void refuse_environment_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (name.rfind("DCT_", 0) == 0 || name == "REPRO_SCALE") {
      std::cerr << "perfbench: environment variable " << name
                << " is set; unset it (every option is passed explicitly)\n";
      std::exit(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  refuse_environment_knobs();
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-expected") {
      cfg.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--expected") cfg.expected_path = v;
      else if (a == "--out-dir") cfg.out_dir = v;
      else if (a == "--source-id") cfg.source_id = v;
      else usage("unknown argument " + a);
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  if (cfg.expected_path.empty()) usage("--expected is required");
  cfg.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  perfbench::Report rep;
  perfbench::Tracer tracer(cfg.trace);
  try {
    if (cfg.workload == "table1")
      perfbench::run_table1(cfg, rep, tracer);
    else if (cfg.workload == "native_spmd")
      perfbench::run_native_spmd(cfg, rep, tracer);
    else if (cfg.workload == "dctd_mix")
      perfbench::run_dctd_mix(cfg, rep, tracer);
    else
      usage("unknown workload \"" + cfg.workload + "\"");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (cfg.trace && !cfg.out_dir.empty())
    tracer.write_jsonl(cfg.out_dir + "/" + cfg.workload + "-spans.jsonl");
  return rep.finish(cfg);
}
