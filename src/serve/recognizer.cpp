#include "serve/recognizer.hpp"

namespace rtmobile::serve {

const char* to_string(OpenStatus status) {
  switch (status) {
    case OpenStatus::kOk:
      return "ok";
    case OpenStatus::kRejectedOverBudget:
      return "rejected-over-budget";
    case OpenStatus::kBackpressure:
      return "backpressure";
  }
  return "unknown";
}

}  // namespace rtmobile::serve
