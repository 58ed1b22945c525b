#include "support/remark.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace dct::support {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_remark_json(std::ostringstream& os, const Remark& r) {
  os << "{\"message\":\"" << json_escape(r.message) << "\"";
  if (r.nest >= 0) {
    os << ",\"nest\":" << r.nest;
    if (!r.nest_name.empty())
      os << ",\"nest_name\":\"" << json_escape(r.nest_name) << "\"";
  }
  if (r.array >= 0) {
    os << ",\"array\":" << r.array;
    if (!r.array_name.empty())
      os << ",\"array_name\":\"" << json_escape(r.array_name) << "\"";
  }
  os << "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PipelineTrace::merge(const PipelineTrace& other) {
  for (const PassRecord& pr : other.passes) {
    PassRecord* mine = nullptr;
    for (PassRecord& p : passes)
      if (p.name == pr.name) { mine = &p; break; }
    if (mine == nullptr) {
      mine = &passes.emplace_back();
      mine->name = pr.name;
      mine->runs = 0;
    }
    mine->runs += pr.runs;
    mine->wall_ms += pr.wall_ms;
    mine->remark_count += pr.remark_count;
    for (const auto& [k, v] : pr.counters) mine->counters[k] += v;
  }
}

double PipelineTrace::total_ms() const {
  double ms = 0;
  for (const PassRecord& p : passes) ms += p.wall_ms;
  return ms;
}

std::string PipelineTrace::json(
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ostringstream os;
  os << "{";
  for (const auto& [k, v] : meta)
    os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\",";
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f", total_ms());
  os << "\"total_ms\":" << ms << ",\"passes\":[";
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    if (i != 0) os << ",";
    std::snprintf(ms, sizeof(ms), "%.3f", p.wall_ms);
    os << "{\"name\":\"" << json_escape(p.name) << "\",\"runs\":" << p.runs
       << ",\"wall_ms\":" << ms << ",\"remark_count\":" << p.remark_count;
    os << ",\"counters\":{";
    bool first = true;
    for (const auto& [k, v] : p.counters) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(k) << "\":" << v;
    }
    os << "}";
    if (!p.remarks.empty()) {
      os << ",\"remarks\":[";
      for (size_t r = 0; r < p.remarks.size(); ++r) {
        if (r != 0) os << ",";
        append_remark_json(os, p.remarks[r]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

PassRecorder::PassRecorder(std::string name) : start_ms_(now_ms()) {
  rec_.name = std::move(name);
}

void PassRecorder::remark(Remark r) {
  rec_.remarks.push_back(std::move(r));
  ++rec_.remark_count;
}

void PassRecorder::count(const std::string& counter, long delta) {
  rec_.counters[counter] += delta;
}

PassRecord PassRecorder::finish() {
  rec_.wall_ms = now_ms() - start_ms_;
  return std::move(rec_);
}

}  // namespace dct::support
