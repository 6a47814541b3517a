#include "common/buffer.h"

#include <algorithm>
#include <array>
#include <bit>

namespace cwc {

namespace {
// The wire format is little-endian; convert on big-endian hosts.
template <typename T>
T to_little_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    auto bytes = std::bit_cast<std::array<std::uint8_t, sizeof(T)>>(v);
    std::reverse(bytes.begin(), bytes.end());
    return std::bit_cast<T>(bytes);
  }
  return v;
}
template <typename T>
T from_little_endian(T v) {
  return to_little_endian(v);  // symmetric
}
}  // namespace

void BufferWriter::append(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buffer_.insert(buffer_.end(), p, p + n);
}

void BufferWriter::write_u8(std::uint8_t v) { append(&v, sizeof v); }

void BufferWriter::write_u16(std::uint16_t v) {
  v = to_little_endian(v);
  append(&v, sizeof v);
}

void BufferWriter::write_u32(std::uint32_t v) {
  v = to_little_endian(v);
  append(&v, sizeof v);
}

void BufferWriter::write_u64(std::uint64_t v) {
  v = to_little_endian(v);
  append(&v, sizeof v);
}

void BufferWriter::write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
void BufferWriter::write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }

void BufferWriter::write_f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void BufferWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  append(bytes.data(), bytes.size());
}

void BufferWriter::write_raw(std::span<const std::uint8_t> bytes) {
  append(bytes.data(), bytes.size());
}

void BufferWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void BufferReader::take(void* dst, std::size_t n) {
  if (remaining() < n) throw BufferUnderflow("buffer underflow");
  std::memcpy(dst, data_.data() + offset_, n);
  offset_ += n;
}

std::uint8_t BufferReader::read_u8() {
  std::uint8_t v;
  take(&v, sizeof v);
  return v;
}

std::uint16_t BufferReader::read_u16() {
  std::uint16_t v;
  take(&v, sizeof v);
  return from_little_endian(v);
}

std::uint32_t BufferReader::read_u32() {
  std::uint32_t v;
  take(&v, sizeof v);
  return from_little_endian(v);
}

std::uint64_t BufferReader::read_u64() {
  std::uint64_t v;
  take(&v, sizeof v);
  return from_little_endian(v);
}

std::int32_t BufferReader::read_i32() { return static_cast<std::int32_t>(read_u32()); }
std::int64_t BufferReader::read_i64() { return static_cast<std::int64_t>(read_u64()); }

double BufferReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::vector<std::uint8_t> BufferReader::read_bytes() {
  const std::uint32_t n = read_u32();
  if (remaining() < n) throw BufferUnderflow("bytes length prefix exceeds buffer");
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
                                data_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

std::string BufferReader::read_string() {
  const std::uint32_t n = read_u32();
  if (remaining() < n) throw BufferUnderflow("string length prefix exceeds buffer");
  std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, n);
  offset_ += n;
  return out;
}

}  // namespace cwc
