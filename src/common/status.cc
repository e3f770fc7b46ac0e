#include "common/status.h"

#include <cstdio>
#include <cstdlib>

#include "common/result.h"

namespace xdbft {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

void internal::DieOnErrorResult(const Status& status) {
  std::fprintf(stderr, "Result::ValueOrDie on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace xdbft
