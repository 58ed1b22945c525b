// The dctd wire protocol: JSON lines over stdin/stdout.
//
// Each input line is one flat JSON object — either a control command
//   {"cmd": "metrics"}   print the metrics text dump
//   {"cmd": "drain"}     block until every accepted request completed
//   {"cmd": "shutdown"}  drain and exit
// or a request
//   {"id": "r1", "app": "lu", "size": 64, "mode": "full", "procs": 4,
//    "engine": "simulate", "steps": 2, "deadline_ms": 500,
//    "hpf": "!HPF$ DISTRIBUTE A(CYCLIC, *)", "seed": 42}
// (every field optional except "app"). Numeric fields may be JSON numbers
// or strings holding one; a value that is empty, not wholly a number,
// non-finite (inf, nan) or out of range is rejected. "deadline_ms" is
// capped at one day (|deadline_ms| <= 86400000; 0 = the server default,
// negative = no deadline). Each response is one JSON object on one line.
// A malformed line yields an error response with code "invalid-argument"
// and the server keeps serving.
//
// The parser handles exactly the flat string/number/bool objects above —
// no nesting, no arrays — which keeps dctd dependency-free.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "service/server.hpp"

namespace dct::service {

/// One parsed input line.
struct ParsedLine {
  enum class Kind { kRequest, kMetrics, kDrain, kShutdown };
  Kind kind = Kind::kRequest;
  Request request;  ///< meaningful when kind == kRequest
};

/// Parse a flat JSON object into string key -> scalar-as-string values.
/// Throws Error(kInvalidArgument) with a position-precise message on
/// malformed input.
std::map<std::string, std::string> parse_flat_json(const std::string& line);

/// Parse one input line into a command or a Request.
/// Throws Error(kInvalidArgument) on malformed JSON or bad field values.
ParsedLine parse_line(const std::string& line);

/// Serialize a Response as one JSON line (no trailing newline).
std::string to_json(const Response& resp);

}  // namespace dct::service
