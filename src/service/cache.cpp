#include "service/cache.hpp"

#include <charconv>
#include <span>
#include <string_view>
#include <type_traits>

namespace dct::service {

namespace {

/// Appends the canonical key text to one string: integers in decimal,
/// doubles as printf's %.17g (which round-trips every compute_cycles).
class KeyWriter {
 public:
  explicit KeyWriter(std::string& out) : out_(out) {}

  KeyWriter& operator<<(std::string_view s) {
    out_ += s;
    return *this;
  }
  KeyWriter& operator<<(char c) {
    out_ += c;
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  KeyWriter& operator<<(T v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
    return *this;
  }
  KeyWriter& operator<<(double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, 17);
    out_.append(buf, res.ptr);
    return *this;
  }

  void vec(std::span<const linalg::Int> v) {
    *this << '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) *this << ',';
      *this << v[i];
    }
    *this << ']';
  }
  void expr(const ir::AffineExpr& e) {
    vec(e.coeffs);
    *this << '+' << e.constant;
  }
  void bounds(const std::vector<ir::Bound>& bs) {
    *this << '{';
    for (const ir::Bound& b : bs) {
      expr(b.expr);
      *this << '/' << b.divisor << ';';
    }
    *this << '}';
  }
  void ref(const ir::ArrayRef& r) {
    *this << 'a' << r.array << ':' << r.access.rows() << 'x'
          << r.access.cols() << '[';
    for (int i = 0; i < r.access.rows(); ++i)
      for (int j = 0; j < r.access.cols(); ++j)
        *this << r.access.at(i, j) << ',';
    *this << ']';
    vec(r.offset);
  }

 private:
  std::string& out_;
};

}  // namespace

std::uint64_t fnv1a(std::string_view s, std::uint64_t state) {
  for (const char c : s) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  return state;
}

std::string program_key(const ir::Program& prog) {
  std::string key;
  key.reserve(2048);
  KeyWriter os(key);
  os << "v1|prog=" << prog.name << "|steps=" << prog.time_steps << '|';
  for (const ir::ArrayDecl& a : prog.arrays) {
    os << "arr " << a.name << ':';
    os.vec(a.dims);
    os << 'e' << a.elem_size << (a.transformable ? 't' : 'f') << '|';
  }
  for (const ir::LoopNest& n : prog.nests) {
    os << "nest " << n.name << ":f" << n.frequency << ':';
    for (const ir::Loop& l : n.loops) {
      os << l.var_name << ":lo";
      os.bounds(l.lowers);
      os << "up";
      os.bounds(l.uppers);
      os << ';';
    }
    for (const ir::Stmt& s : n.stmts) {
      // Evaluator closures cannot be fingerprinted; the structural parts
      // (shape, cost, reference pattern) plus the program name identify a
      // statement for caching purposes.
      os << "s:d" << s.depth << ":c" << s.compute_cycles << ":r";
      for (const ir::ArrayRef& r : s.reads) os.ref(r);
      os << ":w";
      os.ref(s.write);
      os << ';';
    }
    os << '|';
  }
  return key;
}

std::string cache_key(std::string_view program_key, core::Mode mode,
                      int procs, const core::CompileOptions& opts,
                      const std::string& salt) {
  std::string key;
  key.reserve(program_key.size() + 32 + salt.size());
  KeyWriter os(key);
  os << program_key << "mode=" << static_cast<int>(mode) << "|P=" << procs
     << "|strat=" << static_cast<int>(opts.strategy);
  if (!salt.empty()) os << "|salt=" << salt;
  return key;
}

std::string cache_key(const ir::Program& prog, core::Mode mode, int procs,
                      const core::CompileOptions& opts,
                      const std::string& salt) {
  return cache_key(program_key(prog), mode, procs, opts, salt);
}

}  // namespace dct::service
