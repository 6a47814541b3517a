#include "net/framing.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/fault.h"

namespace cwc::net {

std::array<std::uint8_t, 4> frame_header(std::size_t size) {
  if (size > kMaxFrameBytes) throw std::runtime_error("frame too large");
  const auto length = static_cast<std::uint32_t>(size);
  return {static_cast<std::uint8_t>(length), static_cast<std::uint8_t>(length >> 8),
          static_cast<std::uint8_t>(length >> 16), static_cast<std::uint8_t>(length >> 24)};
}

void write_frame(TcpConnection& conn, std::span<const std::uint8_t> payload) {
  const auto header = frame_header(payload.size());
  conn.send_all(header, payload);
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kFrameDecode);
      action && !data.empty()) {
    // kCorrupt flips a bit inside the incoming chunk: if it lands in a
    // length prefix the decoder sees an oversized frame (torn stream) and
    // the connection must be dropped and re-established. kDrop discards
    // the chunk, leaving the stream torn mid-frame.
    if (action.kind == fault::FaultAction::Kind::kDrop) return;
    if (action.kind == fault::FaultAction::Kind::kCorrupt) {
      std::vector<std::uint8_t> mangled(data.begin(), data.end());
      const auto at = static_cast<std::size_t>(
          static_cast<double>(mangled.size()) * std::clamp(action.fraction, 0.0, 1.0));
      mangled[std::min(at, mangled.size() - 1)] ^= 0x80;
      buffer_.insert(buffer_.end(), mangled.begin(), mangled.end());
      return;
    }
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::pop() {
  if (buffered_bytes() < 4) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint32_t size = static_cast<std::uint32_t>(head[0]) |
                             (static_cast<std::uint32_t>(head[1]) << 8) |
                             (static_cast<std::uint32_t>(head[2]) << 16) |
                             (static_cast<std::uint32_t>(head[3]) << 24);
  if (size > kMaxFrameBytes) throw std::runtime_error("oversized frame: corrupted stream");
  if (buffered_bytes() < 4 + static_cast<std::size_t>(size)) return std::nullopt;
  std::vector<std::uint8_t> frame(head + 4, head + 4 + size);
  consumed_ += 4 + static_cast<std::size_t>(size);
  return frame;
}

std::optional<std::vector<std::uint8_t>> read_frame(TcpConnection& conn, FrameDecoder& decoder) {
  std::array<std::uint8_t, 16 * 1024> buffer;
  while (true) {
    if (auto frame = decoder.pop()) return frame;
    const auto n = conn.recv_into(buffer);
    if (!n) continue;                  // non-blocking socket: busy wait is the
                                       // caller's concern; agents use blocking
    if (*n == 0) return std::nullopt;  // orderly shutdown
    decoder.feed({buffer.data(), *n});
  }
}

}  // namespace cwc::net
