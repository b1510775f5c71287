#include "mm/serde.hpp"

#include <bit>
#include <cstring>

namespace rh::mm {

// i64_vector copies whole blocks: the in-memory layout of an int64_t array
// is the wire layout (8 little-endian bytes per element) only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "mm serde bulk-copies int64 arrays as little-endian bytes");

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) u8(static_cast<std::uint8_t>(c));
}

void ByteWriter::i64_vector(const std::vector<std::int64_t>& v) {
  u64(v.size());
  if (v.empty()) return;
  const std::size_t at = buf_.size();
  buf_.resize(at + v.size() * sizeof(std::int64_t));
  std::memcpy(buf_.data() + at, v.data(), v.size() * sizeof(std::int64_t));
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s;
  s.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.push_back(static_cast<char>(u8()));
  return s;
}

std::vector<std::int64_t> ByteReader::i64_vector() {
  const std::uint64_t n = u64();
  // Bound n before multiplying: a malformed prefix such as 1 << 61 would
  // wrap n * 8 past the check.
  ensure(n <= (buf_.size() - pos_) / sizeof(std::int64_t),
         "ByteReader: truncated payload");
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  if (n == 0) return v;
  std::memcpy(v.data(), buf_.data() + pos_, v.size() * sizeof(std::int64_t));
  pos_ += v.size() * sizeof(std::int64_t);
  return v;
}

}  // namespace rh::mm
