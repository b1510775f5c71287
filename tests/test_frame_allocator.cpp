#include <gtest/gtest.h>

#include "mm/frame_allocator.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(FrameAllocator, AllocateAssignsOwnership) {
  mm::FrameAllocator a(100);
  const auto frames = a.allocate(1, 10);
  EXPECT_EQ(frames.size(), std::size_t{10});
  EXPECT_EQ(a.free_frames(), 90);
  EXPECT_EQ(a.owned_frames(1), 10);
  for (const auto f : frames) EXPECT_EQ(a.owner_of(f), 1);
}

TEST(FrameAllocator, NoDoubleAllocation) {
  mm::FrameAllocator a(100);
  const auto f1 = a.allocate(1, 50);
  const auto f2 = a.allocate(2, 50);
  std::vector<bool> seen(100, false);
  for (const auto f : f1) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(f)]);
    seen[static_cast<std::size_t>(f)] = true;
  }
  for (const auto f : f2) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(f)]);
    seen[static_cast<std::size_t>(f)] = true;
  }
}

TEST(FrameAllocator, ExhaustionThrowsWithoutSideEffects) {
  mm::FrameAllocator a(100);
  a.allocate(1, 90);
  EXPECT_THROW(a.allocate(2, 20), mm::OutOfMachineMemory);
  EXPECT_EQ(a.free_frames(), 10);
  EXPECT_EQ(a.owned_frames(2), 0);
}

TEST(FrameAllocator, ReleaseReturnsToPool) {
  mm::FrameAllocator a(100);
  const auto frames = a.allocate(1, 10);
  a.release(frames[0]);
  EXPECT_EQ(a.free_frames(), 91);
  EXPECT_EQ(a.owner_of(frames[0]), kNoDomain);
  EXPECT_THROW(a.release(frames[0]), InvariantViolation);  // double free
}

TEST(FrameAllocator, ReleaseAllFreesEverything) {
  mm::FrameAllocator a(100);
  a.allocate(1, 30);
  a.allocate(2, 20);
  EXPECT_EQ(a.release_all(1), 30);
  EXPECT_EQ(a.free_frames(), 80);
  EXPECT_EQ(a.owned_frames(1), 0);
  EXPECT_EQ(a.owned_frames(2), 20);
  EXPECT_EQ(a.release_all(1), 0);  // idempotent
}

TEST(FrameAllocator, ClaimTakesExactFrames) {
  mm::FrameAllocator a(100);
  const std::vector<hw::FrameNumber> wanted{5, 17, 42};
  a.claim(7, wanted);
  for (const auto f : wanted) EXPECT_EQ(a.owner_of(f), 7);
  EXPECT_EQ(a.free_frames(), 97);
  // Claiming an owned frame fails atomically (nothing is taken).
  EXPECT_THROW(a.claim(8, std::vector<hw::FrameNumber>{1, 17}),
               InvariantViolation);
  EXPECT_EQ(a.owner_of(1), kNoDomain);
}

TEST(FrameAllocator, ReusesReleasedFramesAfterWrap) {
  mm::FrameAllocator a(10);
  const auto first = a.allocate(1, 10);
  a.release_all(1);
  const auto second = a.allocate(2, 10);  // cursor wraps
  EXPECT_EQ(second.size(), std::size_t{10});
  EXPECT_EQ(a.free_frames(), 0);
}

TEST(FrameAllocator, FramesOwnedByAscending) {
  mm::FrameAllocator a(50);
  a.allocate(1, 5);
  a.allocate(2, 5);
  a.allocate(1, 5);
  const auto mine = a.frames_owned_by(1);
  EXPECT_EQ(mine.size(), std::size_t{10});
  for (std::size_t i = 1; i < mine.size(); ++i) EXPECT_LT(mine[i - 1], mine[i]);
}

TEST(FrameAllocator, ClaimOfOwnedFrameNamesItAndChangesNothing) {
  mm::FrameAllocator a(64);
  a.allocate(1, 10);                                     // MFNs 0..9
  a.claim(2, std::vector<hw::FrameNumber>{20, 21, 22});
  const auto free_before = a.free_frames();
  try {
    a.claim(3, std::vector<hw::FrameNumber>{30, 31, 21, 32});
    FAIL() << "claiming an owned frame must throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("frame 21 not free"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(a.free_frames(), free_before);
  for (const hw::FrameNumber f : {30, 31, 32}) EXPECT_EQ(a.owner_of(f), kNoDomain);
  EXPECT_EQ(a.owner_of(21), 2);
  EXPECT_EQ(a.owned_frames(3), 0);
  EXPECT_TRUE(a.accounting_ok());
}

TEST(FrameAllocator, AccountingSeesInterleavedRunsOfOwners) {
  mm::FrameAllocator a(40);
  a.claim(1, std::vector<hw::FrameNumber>{0, 1, 2, 10, 11, 39});
  a.claim(2, std::vector<hw::FrameNumber>{3, 4, 12});
  EXPECT_TRUE(a.accounting_ok());
  a.release(11);
  a.release(3);
  EXPECT_TRUE(a.accounting_ok());
  EXPECT_EQ(a.owned_frames(1), 5);
  EXPECT_EQ(a.owned_frames(2), 2);
  EXPECT_EQ(a.free_frames(), 33);
}

TEST(FrameAllocator, ReleaseOwnedFreesOnlyTheOwnersFrames) {
  mm::FrameAllocator a(20);
  a.claim(kVmmOwner, std::vector<hw::FrameNumber>{2, 3, 4});
  a.claim(5, std::vector<hw::FrameNumber>{6});
  const std::vector<hw::FrameNumber> image{2, 3, 6, 9};  // 9 is free
  EXPECT_EQ(a.release_owned(kVmmOwner, image), 2);
  EXPECT_EQ(a.owner_of(2), kNoDomain);
  EXPECT_EQ(a.owner_of(3), kNoDomain);
  EXPECT_EQ(a.owner_of(4), kVmmOwner);
  EXPECT_EQ(a.owner_of(6), 5);
  EXPECT_EQ(a.owned_frames(kVmmOwner), 1);
  EXPECT_EQ(a.free_frames(), 18);
  EXPECT_TRUE(a.accounting_ok());
  EXPECT_EQ(a.release_owned(kVmmOwner, image), 0);
  EXPECT_TRUE(a.accounting_ok());
}

TEST(FrameAllocator, LowestFreeFromWalksTheFreePoolInOrder) {
  mm::FrameAllocator a(12);
  a.claim(1, std::vector<hw::FrameNumber>{0, 1, 4, 5, 6, 11});
  std::vector<hw::FrameNumber> walked;
  for (auto f = a.lowest_free_from(0); f >= 0; f = a.lowest_free_from(f + 1)) {
    walked.push_back(f);
  }
  EXPECT_EQ(walked, (std::vector<hw::FrameNumber>{2, 3, 7, 8, 9, 10}));
  EXPECT_EQ(a.lowest_free_from(11), -1);
  EXPECT_EQ(a.lowest_free_from(12), -1);
}

TEST(FrameAllocator, FrameConservationInvariant) {
  mm::FrameAllocator a(1000);
  a.allocate(1, 100);
  a.allocate(2, 200);
  a.claim(3, std::vector<hw::FrameNumber>{900, 901});
  a.release_all(2);
  EXPECT_EQ(a.free_frames() + a.owned_frames(1) + a.owned_frames(2) +
                a.owned_frames(3),
            a.total_frames());
}

}  // namespace
}  // namespace rh::test
