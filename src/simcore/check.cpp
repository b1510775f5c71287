#include "simcore/check.hpp"

namespace rh {

void throw_invariant_violation(const char* message) {
  throw InvariantViolation(message);
}

void throw_invariant_violation(const std::string& message) {
  throw InvariantViolation(message);
}

}  // namespace rh
