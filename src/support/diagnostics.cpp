#include "support/diagnostics.hpp"

#include <sstream>

namespace dct {

std::string Error::full_message() const {
  std::ostringstream os;
  os << what();
  for (const std::string& frame : context_) os << " [" << frame << "]";
  return os.str();
}

const char* to_string(Error::Code code) {
  switch (code) {
    case Error::Code::kGeneric: return "generic";
    case Error::Code::kInvalidArgument: return "invalid-argument";
    case Error::Code::kUnsupportedConfig: return "unsupported-config";
    case Error::Code::kOracleViolation: return "oracle-violation";
    case Error::Code::kCancelled: return "cancelled";
    case Error::Code::kDeadlineExceeded: return "deadline-exceeded";
    case Error::Code::kFault: return "fault";
  }
  return "?";
}

Error current_error() {
  try {
    throw;
  } catch (const Error& e) {
    return e;
  } catch (const std::exception& e) {
    return Error(Error::Code::kFault, e.what());
  } catch (...) {
    return Error(Error::Code::kFault, "unknown exception");
  }
}

namespace detail {

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace dct
