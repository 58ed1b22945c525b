// Diagnostics: checked assertions and error reporting for the dct library.
//
// DCT_CHECK is used to validate internal invariants and user-supplied
// arguments alike; it throws dct::Error (never aborts) so library users can
// recover and tests can assert on failures.
//
// Errors carry a machine-readable code plus an optional context chain:
// each layer a failure propagates through (a compiler pass, a sweep cell,
// a fuzzer stage) appends one frame via with_context(), so the experiment
// harness can attribute a failure to the stage that raised it without
// parsing the message.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace dct {

/// Exception type thrown on any precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  /// Failure taxonomy used by the sweep's structured CellFailure records.
  enum class Code {
    kGeneric,            ///< uncategorized invariant/precondition violation
    kInvalidArgument,    ///< caller-supplied argument out of contract
    kUnsupportedConfig,  ///< valid request the implementation cannot serve
                         ///< (recorded as a skipped cell, not a failure)
    kOracleViolation,    ///< a validation oracle found wrong results
    kCancelled,          ///< a dctd request refused at shutdown
    kDeadlineExceeded,   ///< wall-clock deadline budget exhausted
    kFault,              ///< foreign exception caught at a crash boundary
  };

  explicit Error(const std::string& what)
      : std::runtime_error(what), code_(Code::kGeneric) {}
  Error(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  Code code() const { return code_; }

  /// Context frames, innermost first (the order with_context was called in
  /// as the error travelled up).
  const std::vector<std::string>& context() const { return context_; }

  /// Append one context frame; returns *this so a catch site can
  /// `throw e.with_context("pass layout")`.
  Error& with_context(std::string frame) {
    context_.push_back(std::move(frame));
    return *this;
  }

  /// what() plus the context chain, for human-facing reports.
  std::string full_message() const;

 private:
  Code code_;
  std::vector<std::string> context_;
};

/// Short stable name of a code, e.g. "unsupported-config".
const char* to_string(Error::Code code);

/// The exception in flight as an Error, for crash boundaries: a dct::Error
/// as it is, any other std::exception as kFault with its what(), and
/// anything else as kFault "unknown exception". Call only inside a catch.
Error current_error();

namespace detail {
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line) {
  check_failed(expr, file, line, std::string());
}
}  // namespace detail

}  // namespace dct

/// Validate `cond`; on failure throw dct::Error mentioning the expression,
/// source location and the optional message given as the second argument
/// (any std::string expression).
#define DCT_CHECK(cond, ...)                                               \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::dct::detail::check_failed(#cond, __FILE__,                         \
                                  __LINE__ __VA_OPT__(, ) __VA_ARGS__);    \
    }                                                                      \
  } while (false)
