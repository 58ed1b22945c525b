#include "core/compiler.hpp"

#include <algorithm>
#include <sstream>

#include "linalg/int_matrix.hpp"
#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::core {

using decomp::DistKind;
using linalg::floor_div;
using linalg::floor_mod;

std::string to_string(Mode mode) {
  switch (mode) {
    case Mode::Base: return "base";
    case Mode::CompDecomp: return "comp decomp";
    case Mode::Full: return "comp decomp + data transform";
  }
  return "?";
}

int CoordFold::fold(Int v) const {
  const Int x = v - offset;
  switch (kind) {
    case DistKind::Serial:
      return 0;
    case DistKind::Block: {
      const Int c = floor_div(x, std::max<Int>(1, block));
      return static_cast<int>(std::clamp<Int>(c, 0, procs - 1));
    }
    case DistKind::Cyclic:
      return static_cast<int>(floor_mod(x, procs));
    case DistKind::BlockCyclic:
      return static_cast<int>(
          floor_mod(floor_div(x, std::max<Int>(1, block)), procs));
  }
  return 0;
}

std::string CompiledProgram::report() const {
  std::ostringstream os;
  os << "=== " << program.name << " [" << to_string(mode) << ", P=" << procs
     << "] ===\n";
  os << dec.to_string(program);
  for (size_t a = 0; a < arrays.size(); ++a) {
    if (arrays[a].layout.is_identity()) continue;
    os << "  layout " << program.arrays[a].name << ": "
       << arrays[a].layout.to_string() << "\n";
  }
  return os.str();
}

}  // namespace dct::core
