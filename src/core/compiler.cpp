#include "core/compiler.hpp"

#include <sstream>

#include "support/diagnostics.hpp"
#include "support/str.hpp"

namespace dct::core {

std::string to_string(Mode mode) {
  switch (mode) {
    case Mode::Base: return "base";
    case Mode::CompDecomp: return "comp decomp";
    case Mode::Full: return "comp decomp + data transform";
  }
  return "?";
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
