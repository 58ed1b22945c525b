// Environment-variable readers for binaries' main() functions (the benches
// and the fuzz harness). The library itself reads no environment: every
// option reaches it explicitly through its options structs.
#pragma once

#include <string>

namespace dct {

/// Read an integer environment variable, falling back to `def` when unset
/// or unparsable.
long env_int(const char* name, long def);

/// Read a string environment variable, falling back to `def` when unset
/// or empty.
std::string env_str(const char* name, const std::string& def);

/// Global workload scale factor (env REPRO_SCALE, default 1). Benches
/// multiply their default problem sizes by this to approach the paper's
/// original dataset sizes (REPRO_SCALE=4 reproduces most of them exactly).
long repro_scale();

}  // namespace dct
