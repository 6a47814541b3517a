// RAII POSIX socket wrappers for the CWC wire deployment.
//
// The paper's prototype keeps one persistent TCP connection per phone to a
// central server (a small EC2 instance) with SO_KEEPALIVE plus
// application-level keep-alives. These wrappers provide exactly the
// plumbing that design needs: a listener, stream connections with
// send-all/recv semantics, and non-blocking accept/read for the server's
// poll loop. Errors surface as SocketError (std::system_error).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <system_error>

#include "common/types.h"

namespace cwc::net {

class SocketError : public std::system_error {
 public:
  SocketError(const std::string& what, int err)
      : std::system_error(err, std::generic_category(), what) {}
};

/// One frame's fate on its link, decided once per frame by both send
/// paths (blocking send_all and the server's outbox): what the link fault
/// plane (common/link_fault.h) and the `socket_write` fault point say.
struct SendDecision {
  bool drop = false;      ///< the frame vanishes (partition, burst loss, injected drop)
  Millis delay_ms = 0.0;  ///< link latency and pacing plus any injected delay
  std::size_t limit = 0;  ///< bytes of the frame to write (an injected partial cuts it)
  bool reset = false;     ///< once `limit` bytes are out, the connection resets
};

/// Owns a file descriptor; move-only.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor();
  FileDescriptor(FileDescriptor&& other) noexcept;
  FileDescriptor& operator=(FileDescriptor&& other) noexcept;
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Receive buffer size for connections that carry protocol frames: the
/// server and the agents each own one buffer of this size.
inline constexpr std::size_t kRecvBufferBytes = 64 * 1024;

/// A connected TCP stream.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FileDescriptor fd) : fd_(std::move(fd)) {}

  /// Connects to 127.0.0.1:port (the loopback deployment).
  static TcpConnection connect_local(std::uint16_t port);
  /// Connects to a dotted-quad IPv4 address (real deployments).
  static TcpConnection connect_ipv4(const std::string& address, std::uint16_t port);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Blocking send of the whole buffer; throws SocketError on failure.
  void send_all(std::span<const std::uint8_t> data) { send_all(data, {}); }
  /// Blocking send of `head` then `body` (a frame's length prefix and
  /// payload) with one link/fault decision for the pair and one gathered
  /// write per attempt. Link delays sleep the calling thread; a peer that
  /// takes nothing for 30 s throws. For blocking clients only: the server
  /// sends through its outboxes.
  void send_all(std::span<const std::uint8_t> head, std::span<const std::uint8_t> body);

  /// Asks the link plane and the `socket_write` fault point about one
  /// outgoing frame of `bytes` bytes. Consumes link credit and fault hits.
  SendDecision decide_send(std::size_t bytes) const;
  /// One gathered write of bytes [from, to) of `head` followed by `body`:
  /// returns how many the kernel took, 0 when a non-blocking socket's
  /// buffer is full. Throws SocketError on a real error (reset, EPIPE).
  /// No link plane, no faults.
  std::size_t write_some(std::span<const std::uint8_t> head, std::span<const std::uint8_t> body,
                         std::size_t from, std::size_t to);

  /// One recv into the caller's (non-empty) buffer: returns the bytes
  /// read, 0 on orderly shutdown, and nullopt when a non-blocking socket
  /// has no data. The caller owns the buffer and reuses it across calls.
  std::optional<std::size_t> recv_into(std::span<std::uint8_t> buffer);

  void set_nonblocking(bool enabled);
  /// Disables Nagle so small protocol frames flush immediately.
  void set_nodelay(bool enabled);
  void close() { fd_.reset(); }

  /// Declares which phone's link this connection carries so the link fault
  /// plane (common/link_fault.h) can key its schedules. `server_side` is
  /// true on the server end (sends flow *toward* the phone) and false on
  /// the agent end (sends flow *from* the phone). Unbound connections are
  /// never touched by link faults.
  void bind_link(PhoneId phone, bool server_side) {
    link_peer_ = phone;
    link_server_side_ = server_side;
  }
  PhoneId link_peer() const { return link_peer_; }

 private:
  FileDescriptor fd_;
  PhoneId link_peer_ = kInvalidPhone;
  bool link_server_side_ = false;
};

/// ::poll on a single fd with honest error handling: retries EINTR,
/// throws SocketError on real errors, returns the ready revents mask
/// (0 on timeout). `timeout_ms < 0` waits indefinitely.
short poll_one(int fd, short events, int timeout_ms);

/// A listening TCP socket on an ephemeral or fixed port.
class TcpListener {
 public:
  /// Binds and listens on `port` (0 = kernel-assigned); loopback-only by
  /// default, all interfaces when `loopback_only` is false.
  explicit TcpListener(std::uint16_t port = 0, bool loopback_only = true);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  /// Accepts one connection; nullopt if none pending (non-blocking mode).
  std::optional<TcpConnection> accept();

  void set_nonblocking(bool enabled);

 private:
  FileDescriptor fd_;
  std::uint16_t port_ = 0;
};

}  // namespace cwc::net
