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

const Analysis::Decomposed& Analysis::decomposed(Mode mode) const {
  const std::shared_ptr<const Decomposed>& half =
      mode == Mode::Base ? base : global;
  if (half == nullptr)
    throw Error(Error::Code::kInvalidArgument,
                strf("the analysis of %s has no decomposition for mode %s",
                     program.name.c_str(), to_string(mode).c_str()));
  return *half;
}

std::string CompiledProgram::report() const {
  const ir::Program& prog = program();
  std::ostringstream os;
  os << "=== " << prog.name << " [" << to_string(mode) << ", P=" << procs
     << "] ===\n";
  os << dec().to_string(prog);
  for (size_t a = 0; a < arrays.size(); ++a) {
    if (arrays[a].layout.is_identity()) continue;
    os << "  layout " << prog.arrays[a].name << ": "
       << arrays[a].layout.to_string() << "\n";
  }
  return os.str();
}

}  // namespace dct::core
