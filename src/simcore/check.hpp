// Invariant checking helpers.
//
// Per the C++ Core Guidelines (I.6/I.8, E.12) we express preconditions and
// invariants as checked expressions that throw on violation. Exceptions
// (rather than abort) let tests assert that violations are detected.
//
// ensure() sits on the simulator's hottest paths (every event push/pop runs
// through it), so the success path must cost exactly one predicted branch:
// the message stays a const char* and the exception is materialized only in
// the out-of-line, cold throw helper.
//
// There is deliberately no ensure(bool, std::string) overload: its argument
// would be built on every call, including every call where the invariant
// holds. A site whose message names runtime values tests the condition
// itself and builds the message only on the failing branch:
//
//   if (mfn >= total) [[unlikely]] {
//     throw_invariant_violation("frame " + std::to_string(mfn) + " out of range");
//   }
#pragma once

#include <stdexcept>
#include <string>

namespace rh {

/// Thrown when a simulator invariant or precondition is violated.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Cold path: constructs and throws InvariantViolation. Out of line so
/// ensure() inlines to a bare test-and-branch.
[[noreturn]] void throw_invariant_violation(const char* message);

/// Cold path for messages built at the failing site (see the header
/// comment); call it only from inside an `if (!cond) [[unlikely]]` block.
[[noreturn]] void throw_invariant_violation(const std::string& message);

/// Throws InvariantViolation with `message` unless `condition` holds.
inline void ensure(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw_invariant_violation(message);
  }
}

}  // namespace rh
