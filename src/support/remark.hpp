// Structured pass remarks (the compiler's observability layer).
//
// Every pipeline stage reports what it decided — per-nest and per-array
// attributed remarks plus named decision counters — into a RemarkSink.
// Whoever runs a stage records it with one PassRecorder (remarks,
// counters, wall time) into its own PipelineTrace — a CompiledProgram's,
// core::analyze's caller's, a RunResult's — so the experiment harness can
// aggregate traces across a whole sweep.
//
// The library never prints a trace: remarks are always collected, and a
// caller that wants the report renders it with PipelineTrace::json and
// writes it wherever it likes (examples/quickstart prints one line to
// stderr).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dct::support {

/// One structured observation from a compiler pass.
struct Remark {
  std::string message;
  int nest = -1;        ///< nest index, -1 = program-wide
  int array = -1;       ///< array index, -1 = no array attribution
  std::string nest_name;
  std::string array_name;
};

/// Sink interface the passes (and the analyses they call) emit into.
class RemarkSink {
 public:
  virtual ~RemarkSink() = default;
  virtual void remark(Remark r) = 0;
  /// Bump a named decision counter.
  virtual void count(const std::string& counter, long delta = 1) = 0;

  /// Convenience: program-wide remark from just a message.
  void note(std::string message) {
    Remark r;
    r.message = std::move(message);
    remark(std::move(r));
  }
};

/// Forwards to an underlying sink with nest (and optionally array)
/// attribution filled in — lets nest-at-a-time analyses (dep::parallelize,
/// layout::derive_layout) emit remarks without knowing their index.
class ScopedSink final : public RemarkSink {
 public:
  ScopedSink(RemarkSink* inner, int nest, std::string nest_name, int array = -1,
             std::string array_name = {})
      : inner_(inner), nest_(nest), array_(array),
        nest_name_(std::move(nest_name)), array_name_(std::move(array_name)) {}

  void remark(Remark r) override {
    if (inner_ == nullptr) return;
    if (r.nest < 0) { r.nest = nest_; r.nest_name = nest_name_; }
    if (r.array < 0) { r.array = array_; r.array_name = array_name_; }
    inner_->remark(std::move(r));
  }
  void count(const std::string& counter, long delta = 1) override {
    if (inner_ != nullptr) inner_->count(counter, delta);
  }

 private:
  RemarkSink* inner_;
  int nest_, array_;
  std::string nest_name_, array_name_;
};

/// Everything recorded about one pass execution (or, after merging, about
/// all executions of that pass across a sweep).
struct PassRecord {
  std::string name;
  int runs = 1;
  double wall_ms = 0;
  long remark_count = 0;  ///< survives merging even when remarks are dropped
  std::vector<Remark> remarks;
  std::map<std::string, long> counters;
};

/// The structured report of one compilation (or an aggregation of many).
struct PipelineTrace {
  std::vector<PassRecord> passes;

  /// The passes' wall time, summed.
  double total_ms() const;

  /// Fold another trace in: per-pass wall time, run and remark counts and
  /// counters are summed; individual remarks are dropped (aggregations
  /// would otherwise grow unboundedly over a sweep).
  void merge(const PipelineTrace& other);

  /// JSON report. `meta` entries become leading string fields of the
  /// top-level object (e.g. {"unit","lu"}, {"mode","full"}).
  std::string json(
      const std::vector<std::pair<std::string, std::string>>& meta = {}) const;
};

/// Records one run of the pass `name`: the remarks and counters emitted
/// into it, and the wall time from construction to finish().
class PassRecorder final : public RemarkSink {
 public:
  explicit PassRecorder(std::string name);

  void remark(Remark r) override;
  void count(const std::string& counter, long delta = 1) override;

  /// Stamps the wall time and hands the record out; call it once.
  PassRecord finish();

 private:
  PassRecord rec_;
  double start_ms_;
};

/// JSON string escaping (exposed for tests).
std::string json_escape(const std::string& s);

}  // namespace dct::support
