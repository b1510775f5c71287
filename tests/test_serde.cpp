#include <gtest/gtest.h>

#include "mm/serde.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(Serde, RoundTripsAllTypes) {
  mm::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello, world");
  w.i64_vector({1, -1, 1000000});
  const auto blob = w.take();

  mm::ByteReader r(blob);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello, world");
  EXPECT_EQ(r.i64_vector(), (std::vector<std::int64_t>{1, -1, 1000000}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, EmptyStringAndVector) {
  mm::ByteWriter w;
  w.str("");
  w.i64_vector({});
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.i64_vector().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, TruncatedPayloadThrows) {
  mm::ByteWriter w;
  w.u64(7);
  auto blob = w.take();
  blob.pop_back();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.u64(), InvariantViolation);
}

TEST(Serde, TruncatedStringLengthThrows) {
  mm::ByteWriter w;
  w.u32(100);  // declares a 100-char string with no body
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.str(), InvariantViolation);
}

TEST(Serde, HugeVectorLengthPrefixThrowsInvariantViolation) {
  // 1 << 61 elements is 2^64 bytes: n * 8 wraps to 0 and must not pass the
  // bounds check (nor reach an allocation that throws length_error).
  mm::ByteWriter w;
  w.u64(std::uint64_t{1} << 61);
  w.i64(5);
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.i64_vector(), InvariantViolation);
}

TEST(Serde, VectorLengthOneWordPastThePayloadThrows) {
  mm::ByteWriter w;
  w.u64(3);  // declares three elements, carries two
  w.i64(1);
  w.i64(2);
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.i64_vector(), InvariantViolation);
}

TEST(Serde, I64VectorGoldenBytes) {
  mm::ByteWriter w;
  w.i64_vector({1, -1, 1000000});
  const auto blob = w.take();
  // u64 length 3, then each element as 8 little-endian bytes.
  const std::vector<int> expected{
      3,    0,    0,    0,    0,    0,    0,    0,     //
      1,    0,    0,    0,    0,    0,    0,    0,     //
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
      0x40, 0x42, 0x0f, 0,    0,    0,    0,    0};
  ASSERT_EQ(blob.size(), expected.size());
  for (std::size_t i = 0; i < blob.size(); ++i) {
    EXPECT_EQ(std::to_integer<int>(blob[i]), expected[i]) << "byte " << i;
  }
}

TEST(Serde, LittleEndianLayout) {
  mm::ByteWriter w;
  w.u32(0x01020304);
  const auto blob = w.take();
  ASSERT_EQ(blob.size(), std::size_t{4});
  EXPECT_EQ(std::to_integer<int>(blob[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(blob[3]), 0x01);
}

}  // namespace
}  // namespace rh::test
