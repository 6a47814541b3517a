// Byte-buffer serialization used by the wire protocol (cwc::net) and by task
// checkpoints (cwc::tasks). Everything is little-endian fixed-width, with
// length-prefixed strings and blobs, so a checkpoint produced on one "phone"
// can be resumed byte-identically on another — the property CWC's migration
// model depends on.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cwc {

/// Thrown by BufferReader when a read runs past the end of the buffer or a
/// length prefix is inconsistent — i.e. the peer sent a malformed frame.
class BufferUnderflow : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only serializer.
class BufferWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  /// 32-bit length prefix followed by raw bytes.
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Raw bytes with no length prefix (one piece of a blob whose prefix the
  /// caller already wrote).
  void write_raw(std::span<const std::uint8_t> bytes);
  void write_string(std::string_view s);
  /// Capacity for `bytes` in total: a writer that knows its final size
  /// then grows its buffer once.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const std::vector<std::uint8_t>& data() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  void append(const void* src, std::size_t n);
  std::vector<std::uint8_t> buffer_;
};

/// Sequential deserializer over a borrowed byte span. The caller owns the
/// underlying storage and must keep it alive while reading.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  std::int64_t read_i64();
  double read_f64();
  std::vector<std::uint8_t> read_bytes();
  std::string read_string();

  std::size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return remaining() == 0; }

 private:
  void take(void* dst, std::size_t n);
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace cwc
