#include "hpf/hpf.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::hpf {

using decomp::DimDistribution;
using decomp::DistKind;

namespace {

/// Malformed-directive failure: a structured kInvalidArgument error whose
/// context chain carries the source line, so the experiment harness (and
/// tests) can attribute the failure without parsing the message.
[[noreturn]] void parse_fail(int lineno, const std::string& msg) {
  Error e(Error::Code::kInvalidArgument, msg);
  e.with_context(strf("hpf line %d", lineno));
  throw e;
}

/// Tiny recursive-descent tokenizer over one directive line.
class Cursor {
 public:
  Cursor(const std::string& line, int lineno)
      : s_(line), lineno_(lineno) {}

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c))
      parse_fail(lineno_,
                 strf("expected '%c' near position %zu", c, pos_));
  }
  std::string ident() {
    skip_ws();
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_'))
      ++pos_;
    if (pos_ == start) parse_fail(lineno_, "identifier expected");
    std::string out = s_.substr(start, pos_ - start);
    std::transform(out.begin(), out.end(), out.begin(), ::toupper);
    return out;
  }
  long number() {
    skip_ws();
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (pos_ == start ||
        !std::isdigit(static_cast<unsigned char>(s_[pos_ - 1])))
      parse_fail(lineno_, "number expected");
    try {
      return std::stol(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      parse_fail(lineno_, "number out of range");
    }
  }
  bool peek_alpha() {
    skip_ws();
    return pos_ < s_.size() &&
           std::isalpha(static_cast<unsigned char>(s_[pos_]));
  }
  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  int lineno() const { return lineno_; }

 private:
  std::string s_;
  size_t pos_ = 0;
  int lineno_;
};

struct Template {
  int rank = 0;
  std::vector<DimDistribution> dist;  ///< empty until DISTRIBUTE seen
};

/// ALIGN A(i,j) WITH T(j, i+1): for each template dim, the source array
/// dim (or -1 for a constant/replicated subscript).
struct Alignment {
  std::string target;                 ///< template or array name
  std::vector<int> array_dim_of_tdim; ///< per target dim
};

std::vector<DimDistribution> parse_dist_format(Cursor& c) {
  std::vector<DimDistribution> dims;
  c.expect('(');
  while (true) {
    DimDistribution d;
    if (c.eat('*')) {
      d.kind = DistKind::Serial;
    } else {
      const std::string kw = c.ident();
      if (kw == "BLOCK") {
        d.kind = DistKind::Block;
      } else if (kw == "CYCLIC") {
        d.kind = DistKind::Cyclic;
        if (c.eat('(')) {
          d.block = c.number();
          if (d.block < 1)
            parse_fail(c.lineno(),
                       strf("CYCLIC block must be positive, got %lld",
                            static_cast<long long>(d.block)));
          if (d.block > 1) d.kind = DistKind::BlockCyclic;
          c.expect(')');
        }
      } else {
        parse_fail(c.lineno(),
                   strf("unknown distribution '%s' (expected BLOCK, "
                        "CYCLIC or *)",
                        kw.c_str()));
      }
    }
    dims.push_back(d);
    if (c.eat(')')) break;
    c.expect(',');
  }
  return dims;
}

}  // namespace

Directives parse(const ir::Program& prog, const std::string& text) {
  struct PendingAlign {
    std::string array;
    Alignment al;
    int lineno = 0;
  };
  std::map<std::string, Template> templates;
  std::map<std::string, std::vector<DimDistribution>> direct;  // array name
  std::vector<PendingAlign> aligns;

  auto array_rank = [&](const std::string& name) -> int {
    for (const auto& a : prog.arrays) {
      std::string n = a.name;
      std::transform(n.begin(), n.end(), n.begin(), ::toupper);
      if (n == name) return static_cast<int>(a.dims.size());
    }
    return -1;
  };

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments (!HPF$ prefixes and ! comments).
    if (const size_t bang = line.find('!'); bang != std::string::npos) {
      std::string rest = line.substr(bang);
      std::string upper = rest;
      std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
      if (upper.rfind("!HPF$", 0) == 0)
        line = line.substr(bang + 5);
      else
        line = line.substr(0, bang);
    }
    Cursor c(line, lineno);
    if (c.at_end()) continue;
    const std::string kw = c.ident();
    if (kw == "TEMPLATE") {
      const std::string name = c.ident();
      Template t;
      c.expect('(');
      while (true) {
        c.number();  // extents recorded but unused (offsets are ignored)
        ++t.rank;
        if (c.eat(')')) break;
        c.expect(',');
      }
      templates[name] = t;
    } else if (kw == "DISTRIBUTE") {
      const std::string name = c.ident();
      auto dims = parse_dist_format(c);
      if (auto it = templates.find(name); it != templates.end()) {
        if (static_cast<int>(dims.size()) != it->second.rank)
          parse_fail(lineno,
                     strf("template %s has rank %d but DISTRIBUTE names %zu "
                          "dimensions",
                          name.c_str(), it->second.rank, dims.size()));
        it->second.dist = std::move(dims);
      } else {
        const int rank = array_rank(name);
        if (rank < 0)
          parse_fail(lineno, strf("unknown array or template %s",
                                  name.c_str()));
        if (static_cast<int>(dims.size()) != rank)
          parse_fail(lineno,
                     strf("array %s has rank %d but DISTRIBUTE names %zu "
                          "dimensions",
                          name.c_str(), rank, dims.size()));
        direct[name] = std::move(dims);
      }
    } else if (kw == "ALIGN") {
      const std::string array = c.ident();
      if (array_rank(array) < 0)
        parse_fail(lineno, strf("unknown array %s", array.c_str()));
      // Dummy variables of the array side.
      std::vector<std::string> dummies;
      c.expect('(');
      while (true) {
        dummies.push_back(c.ident());
        if (c.eat(')')) break;
        c.expect(',');
      }
      if (c.ident() != "WITH") parse_fail(lineno, "WITH expected");
      Alignment al;
      al.target = c.ident();
      c.expect('(');
      while (true) {
        int src = -1;
        if (c.eat('*')) {
          src = -1;  // replicated along this template dim
        } else if (c.peek_alpha()) {
          const std::string dummy = c.ident();
          const auto it = std::find(dummies.begin(), dummies.end(), dummy);
          if (it == dummies.end())
            parse_fail(lineno,
                       strf("unknown align dummy %s", dummy.c_str()));
          src = static_cast<int>(it - dummies.begin());
          // Offsets are ignored (paper 4.2): consume "+ n" / "- n".
          if (c.peek('+') || c.peek('-')) c.number();
        } else {
          c.number();  // constant subscript: collapsed dimension
        }
        al.array_dim_of_tdim.push_back(src);
        if (c.eat(')')) break;
        c.expect(',');
      }
      aligns.push_back({array, std::move(al), lineno});
    } else {
      parse_fail(lineno, strf("unknown directive %s (expected TEMPLATE, "
                              "DISTRIBUTE or ALIGN)",
                              kw.c_str()));
    }
  }

  // Resolve: direct distributions plus template alignments, assigning
  // virtual processor dimensions in first-seen order per (target, dim).
  Directives out;
  int next_proc_dim = 0;
  std::map<std::pair<std::string, int>, int> proc_dim_of;

  auto resolve_dims = [&](const std::string& key,
                          const std::vector<DimDistribution>& fmt,
                          const std::vector<int>& src_map, int rank) {
    decomp::ArrayDecomposition ad;
    ad.dims.assign(static_cast<size_t>(rank), DimDistribution{});
    for (size_t td = 0; td < fmt.size(); ++td) {
      if (fmt[td].kind == DistKind::Serial) continue;
      const int src = td < src_map.size() ? src_map[td] : static_cast<int>(td);
      if (src < 0 || src >= rank) continue;  // replicated/collapsed
      DimDistribution d = fmt[td];
      const auto k = std::make_pair(key, static_cast<int>(td));
      if (!proc_dim_of.count(k)) proc_dim_of[k] = next_proc_dim++;
      d.proc_dim = proc_dim_of[k];
      ad.dims[static_cast<size_t>(src)] = d;
    }
    return ad;
  };

  for (const auto& [name, fmt] : direct) {
    std::vector<int> identity(fmt.size());
    for (size_t i = 0; i < fmt.size(); ++i) identity[i] = static_cast<int>(i);
    out.arrays[name] =
        resolve_dims(name, fmt, identity, array_rank(name));
  }
  for (const auto& [array, al, al_line] : aligns) {
    const auto it = templates.find(al.target);
    if (it == templates.end() || it->second.dist.empty())
      parse_fail(al_line,
                 "ALIGN target " + al.target + " has no DISTRIBUTE");
    out.arrays[array] = resolve_dims(al.target, it->second.dist,
                                     al.array_dim_of_tdim, array_rank(array));
  }
  return out;
}

core::CompiledProgram compile(const core::Analysis& analysis,
                              const std::string& text, core::Mode mode,
                              int procs, const core::CompileOptions& opts) {
  const ir::Program& prog = analysis.program;
  const Directives dirs = parse(prog, text);
  decomp::ProgramDecomposition dec = analysis.dec(core::Mode::CompDecomp);
  for (const auto& [name, ad] : dirs.arrays)
    dec.arrays[static_cast<size_t>(prog.array_id(name))] = ad;
  return core::compile_with_decomposition(prog, std::move(dec), mode, procs,
                                          opts);
}

}  // namespace dct::hpf
