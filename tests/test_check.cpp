#include <gtest/gtest.h>

#include <string>

#include "simcore/check.hpp"

namespace rh::test {
namespace {

template <typename Message>
concept EnsureAccepts = requires(Message m) { rh::ensure(true, m); };

// ensure() takes only a const char*: a std::string message would be built
// on every call, also when the invariant holds. Dynamic messages belong in
// an explicit failing branch that calls throw_invariant_violation.
static_assert(EnsureAccepts<const char*>);
static_assert(!EnsureAccepts<std::string>);
static_assert(!EnsureAccepts<const std::string&>);

TEST(Check, ThrowInvariantViolationCarriesABuiltMessage) {
  const int frame = 42;
  try {
    throw_invariant_violation("frame " + std::to_string(frame) + " not free");
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.what(), "frame 42 not free");
  }
}

}  // namespace
}  // namespace rh::test
