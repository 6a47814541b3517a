// Length-prefixed message framing over a TCP stream.
//
// Wire format: u32 little-endian payload length, then the payload. The
// decoder is incremental so the server's event loop can feed it whatever
// recv() returned and pop complete frames as they materialize. Blocking
// clients send with write_frame; the server queues frames on its
// per-connection outboxes (net/outbox.h). Either way a frame's prefix and
// payload leave in one gathered write with one link/fault decision.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/socket.h"

namespace cwc::net {

/// Frames larger than this indicate a corrupted stream (inputs ship in
/// chunks well below it).
inline constexpr std::uint32_t kMaxFrameBytes = 256 * 1024 * 1024;

/// The length prefix of a `size`-byte payload. Throws std::runtime_error
/// above kMaxFrameBytes.
std::array<std::uint8_t, 4> frame_header(std::size_t size);

/// Sends one framed payload (blocking).
void write_frame(TcpConnection& conn, std::span<const std::uint8_t> payload);

/// Incremental decoder: feed() raw stream bytes, pop() complete frames.
/// pop() consumes through a read offset, so its cost is the frame's own
/// bytes; feed() compacts the consumed prefix away at most once per call.
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> data);
  /// Next complete frame, or nullopt. Throws std::runtime_error on an
  /// oversized length prefix (stream corruption).
  std::optional<std::vector<std::uint8_t>> pop();

  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< leading bytes of buffer_ already popped
};

/// Blocking convenience for the phone agent: reads one whole frame;
/// returns nullopt on orderly connection shutdown.
std::optional<std::vector<std::uint8_t>> read_frame(TcpConnection& conn, FrameDecoder& decoder);

}  // namespace cwc::net
