#include "service/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/remark.hpp"
#include "support/str.hpp"

namespace dct::service {

namespace {

[[noreturn]] void bad(const std::string& why, std::size_t pos) {
  throw Error(Error::Code::kInvalidArgument,
              strf("malformed JSON at offset %zu: %s", pos, why.c_str()));
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
    ++i;
}

std::string parse_string(const std::string& s, std::size_t& i) {
  if (s[i] != '"') bad("expected '\"'", i);
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i];
    if (c == '\\') {
      ++i;
      if (i >= s.size()) bad("dangling escape", i);
      switch (s[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        default: bad(strf("unsupported escape '\\%c'", s[i]), i);
      }
    }
    out += c;
    ++i;
  }
  if (i >= s.size()) bad("unterminated string", i);
  ++i;  // closing quote
  return out;
}

std::string parse_scalar(const std::string& s, std::size_t& i) {
  if (s[i] == '"') return parse_string(s, i);
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' &&
         !std::isspace(static_cast<unsigned char>(s[i])))
    ++i;
  const std::string tok = s.substr(start, i - start);
  if (tok.empty()) bad("expected a value", start);
  if (tok == "true" || tok == "false" || tok == "null") return tok;
  // Validate as a number so garbage is rejected here, not downstream.
  char* end = nullptr;
  std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) bad("invalid literal: " + tok, start);
  return tok;
}

/// Upper bound on a request's "deadline_ms" (one day); see protocol.hpp.
constexpr double kMaxDeadlineMs = 86'400'000;

/// The numeric field `key` (`def` when absent). Rejects a value that is
/// empty, not fully consumed, non-finite, outside [lo, hi] or, with
/// `integral`, fractional — all checked on the double, before any cast.
double require_number(const std::map<std::string, std::string>& kv,
                      const std::string& key, double def, double lo,
                      double hi, bool integral) {
  const auto it = kv.find(key);
  if (it == kv.end()) return def;
  const std::string& text = it->second;
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(d) || (integral && d != std::trunc(d)))
    throw Error(Error::Code::kInvalidArgument,
                strf("field \"%s\": expected %s, got \"%s\"", key.c_str(),
                     integral ? "an integer" : "a finite number",
                     text.c_str()));
  if (d < lo || d > hi)
    throw Error(Error::Code::kInvalidArgument,
                strf("field \"%s\": %s out of range [%.17g, %.17g]",
                     key.c_str(), text.c_str(), lo, hi));
  return d;
}

long require_long(const std::map<std::string, std::string>& kv,
                  const std::string& key, long def, long lo, long hi) {
  return static_cast<long>(require_number(kv, key, static_cast<double>(def),
                                          static_cast<double>(lo),
                                          static_cast<double>(hi), true));
}

}  // namespace

std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') bad("expected '{'", i);
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(line, i);
      if (i >= line.size()) bad("unterminated object", i);
      const std::string key = parse_string(line, i);
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') bad("expected ':'", i);
      ++i;
      skip_ws(line, i);
      if (i >= line.size()) bad("missing value", i);
      kv[key] = parse_scalar(line, i);
      skip_ws(line, i);
      if (i >= line.size()) bad("unterminated object", i);
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      bad("expected ',' or '}'", i);
    }
  }
  skip_ws(line, i);
  if (i != line.size()) bad("trailing characters", i);
  return kv;
}

ParsedLine parse_line(const std::string& line) {
  const std::map<std::string, std::string> kv = parse_flat_json(line);
  ParsedLine out;

  if (const auto cmd = kv.find("cmd"); cmd != kv.end()) {
    if (cmd->second == "metrics") {
      out.kind = ParsedLine::Kind::kMetrics;
    } else if (cmd->second == "drain") {
      out.kind = ParsedLine::Kind::kDrain;
    } else if (cmd->second == "shutdown") {
      out.kind = ParsedLine::Kind::kShutdown;
    } else {
      throw Error(Error::Code::kInvalidArgument,
                  "unknown cmd \"" + cmd->second + "\"");
    }
    return out;
  }

  out.kind = ParsedLine::Kind::kRequest;
  Request& r = out.request;
  if (const auto it = kv.find("id"); it != kv.end()) r.id = it->second;
  if (const auto it = kv.find("app"); it != kv.end()) {
    r.app = it->second;
  } else {
    throw Error(Error::Code::kInvalidArgument,
                "request is missing the \"app\" field");
  }
  if (const auto it = kv.find("hpf"); it != kv.end()) r.hpf = it->second;
  r.size = require_long(kv, "size", 64, 1, 1 << 20);
  r.steps = static_cast<int>(require_long(kv, "steps", 2, 1, 1 << 20));
  r.procs = static_cast<int>(require_long(kv, "procs", 4, 1, 1 << 20));
  r.seed = static_cast<std::uint64_t>(
      require_long(kv, "seed", 42, 0, 1L << 62));
  r.deadline_ms = require_number(kv, "deadline_ms", r.deadline_ms,
                                 -kMaxDeadlineMs, kMaxDeadlineMs, false);
  if (const auto it = kv.find("mode"); it != kv.end()) {
    const std::optional<core::Mode> m = parse_mode(it->second);
    if (!m)
      throw Error(Error::Code::kInvalidArgument,
                  "unknown mode \"" + it->second +
                      "\" (known: base comp_decomp full)");
    r.mode = *m;
  }
  if (const auto it = kv.find("engine"); it != kv.end()) {
    const std::optional<Engine> e = parse_engine(it->second);
    if (!e)
      throw Error(Error::Code::kInvalidArgument,
                  "unknown engine \"" + it->second +
                      "\" (known: compile simulate native)");
    r.engine = *e;
  }
  return out;
}

std::string to_json(const Response& resp) {
  std::ostringstream os;
  os.precision(17);
  using support::json_escape;
  os << "{\"id\":\"" << json_escape(resp.id)
     << "\",\"ok\":" << (resp.ok ? "true" : "false");
  if (!resp.ok) {
    os << ",\"error_code\":\"" << json_escape(resp.error_code)
       << "\",\"error\":\"" << json_escape(resp.error) << "\"";
    if (!resp.context.empty())
      os << ",\"context\":\"" << json_escape(resp.context) << "\"";
  }
  os << ",\"cache_hit\":" << (resp.cache_hit ? "true" : "false")
     << ",\"deduped\":" << (resp.deduped ? "true" : "false");
  if (resp.key_hash != 0)
    os << ",\"key\":\"" << strf("%016llx",
                                static_cast<unsigned long long>(
                                    resp.key_hash))
       << "\"";
  if (resp.ok) {
    if (resp.cycles > 0) os << ",\"cycles\":" << resp.cycles;
    if (resp.seconds > 0) os << ",\"seconds\":" << resp.seconds;
    if (resp.statements > 0) os << ",\"statements\":" << resp.statements;
    if (resp.values_hash != 0)
      os << ",\"values\":\""
         << strf("%016llx",
                 static_cast<unsigned long long>(resp.values_hash))
         << "\"";
  }
  os << strf(",\"queue_ms\":%.3f,\"compile_ms\":%.3f,\"exec_ms\":%.3f,"
             "\"total_ms\":%.3f}",
             resp.queue_ms, resp.compile_ms, resp.exec_ms, resp.total_ms);
  return os.str();
}

}  // namespace dct::service
