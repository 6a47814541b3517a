#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/fault.h"
#include "common/link_fault.h"
#include "obs/metrics.h"

namespace cwc::net {

namespace {
/// How long a blocking send_all may wait for a peer that takes no bytes
/// before it gives up: a dead-but-connected server must not hang an agent
/// thread forever.
constexpr int kBlockingSendStallMs = 30'000;

/// Applies the fault kinds the connect and recv sites share: kDelay
/// stalls, kReset throws as a peer reset. kDrop is interpreted by each
/// site; writes go through decide_send instead.
void apply_common_fault(const fault::FaultAction& action, const char* site) {
  switch (action.kind) {
    case fault::FaultAction::Kind::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(action.delay_ms));
      break;
    case fault::FaultAction::Kind::kReset:
      throw SocketError(std::string("injected fault: ") + site, ECONNRESET);
    default:
      break;
  }
}
}  // namespace

short poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  while (true) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal, not a timeout — retry
      throw SocketError("poll", errno);
    }
    return n == 0 ? short{0} : pfd.revents;
  }
}

FileDescriptor::~FileDescriptor() { reset(); }

FileDescriptor::FileDescriptor(FileDescriptor&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

FileDescriptor& FileDescriptor::operator=(FileDescriptor&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FileDescriptor::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {
void set_fd_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw SocketError("fcntl(F_GETFL)", errno);
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, updated) < 0) throw SocketError("fcntl(F_SETFL)", errno);
}

sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

TcpConnection TcpConnection::connect_local(std::uint16_t port) {
  return connect_ipv4("127.0.0.1", port);
}

TcpConnection TcpConnection::connect_ipv4(const std::string& address, std::uint16_t port) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw SocketError("socket", errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("inet_pton: invalid IPv4 address " + address, EINVAL);
  }
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kSocketConnect)) {
    // kDrop behaves like kReset here: there is no "silently skip" for a
    // connect, the caller needs a connection or an error.
    if (action.kind == fault::FaultAction::Kind::kDrop) {
      throw SocketError("injected fault: connect", ECONNREFUSED);
    }
    apply_common_fault(action, "connect");
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("connect", errno);
  }
  TcpConnection conn{std::move(fd)};
  conn.set_nodelay(true);
  return conn;
}

SendDecision TcpConnection::decide_send(std::size_t bytes) const {
  SendDecision decision;
  decision.limit = bytes;
  // The link fault plane sits "under" the point faults: it models the
  // network itself. Enforcement is sender-side only — every byte of a
  // loopback deployment leaves through an instrumented send path, so
  // dropping here realizes asymmetric partitions exactly (the reverse
  // direction consults its own rule set on its own sender).
  if (fault::link_enabled() && link_peer_ != kInvalidPhone) {
    const auto link = fault::LinkFaultPlane::global().on_send(
        link_peer_, /*toward_phone=*/link_server_side_, bytes);
    if (link.drop) {
      decision.drop = true;  // the partition eats the whole frame
      return decision;
    }
    decision.delay_ms = link.delay_ms;
  }
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kSocketWrite)) {
    switch (action.kind) {
      case fault::FaultAction::Kind::kDrop:
        decision.drop = true;  // bytes vanish
        break;
      case fault::FaultAction::Kind::kPartial:
        decision.limit = static_cast<std::size_t>(static_cast<double>(bytes) *
                                                  std::clamp(action.fraction, 0.0, 1.0));
        decision.reset = true;  // torn frame, then reset
        break;
      case fault::FaultAction::Kind::kReset:
        decision.limit = 0;
        decision.reset = true;
        break;
      case fault::FaultAction::Kind::kDelay:
        decision.delay_ms += action.delay_ms;
        break;
      default:
        break;
    }
  }
  return decision;
}

std::size_t TcpConnection::write_some(std::span<const std::uint8_t> head,
                                      std::span<const std::uint8_t> body, std::size_t from,
                                      std::size_t to) {
  if (from >= to) return 0;
  iovec iov[2];
  std::size_t count = 0;
  if (from < head.size()) {
    const std::size_t end = std::min(to, head.size());
    iov[count++] = {const_cast<std::uint8_t*>(head.data() + from), end - from};
  }
  if (to > head.size()) {
    const std::size_t skip = from > head.size() ? from - head.size() : 0;
    iov[count++] = {const_cast<std::uint8_t*>(body.data() + skip), to - head.size() - skip};
  }
  msghdr message{};
  message.msg_iov = iov;
  message.msg_iovlen = count;
  while (true) {
    const ssize_t n = ::sendmsg(fd_.get(), &message, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw SocketError("send", errno);
  }
}

void TcpConnection::send_all(std::span<const std::uint8_t> head,
                             std::span<const std::uint8_t> body) {
  const SendDecision decision = decide_send(head.size() + body.size());
  // A blocking sender pays its link's latency and pacing on its own thread
  // (an agent's uplink stalls that agent, nothing else).
  if (decision.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(decision.delay_ms));
  }
  if (decision.drop) return;
  std::size_t sent = 0;
  while (sent < decision.limit) {
    const std::size_t n = write_some(head, body, sent, decision.limit);
    if (n == 0 && poll_one(fd_.get(), POLLOUT, kBlockingSendStallMs) == 0) {
      throw SocketError("send (stalled peer)", ETIMEDOUT);
    }
    sent += n;
  }
  if (decision.reset) throw SocketError("injected fault: send", ECONNRESET);
}

std::optional<std::size_t> TcpConnection::recv_into(std::span<std::uint8_t> buffer) {
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kSocketRead)) {
    // kDrop reads as "no data right now"; the bytes stay queued in the
    // kernel, so this models delivery delay rather than loss (TCP would
    // retransmit real loss anyway).
    if (action.kind == fault::FaultAction::Kind::kDrop) return std::nullopt;
    apply_common_fault(action, "recv");
  }
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buffer.data(), buffer.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);  // 0 = orderly shutdown
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw SocketError("recv", errno);
  }
}

void TcpConnection::set_nonblocking(bool enabled) { set_fd_nonblocking(fd_.get(), enabled); }

void TcpConnection::set_nodelay(bool enabled) {
  const int value = enabled ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &value, sizeof value) < 0) {
    throw SocketError("setsockopt(TCP_NODELAY)", errno);
  }
}

TcpListener::TcpListener(std::uint16_t port, bool loopback_only) {
  fd_ = FileDescriptor(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) throw SocketError("socket", errno);
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_address(port);
  if (!loopback_only) addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw SocketError("bind", errno);
  }
  // Deep backlog: a 1k–10k agent swarm reconnecting after a restart is a
  // legitimate connect storm, not an attack. The kernel clamps to
  // net.core.somaxconn.
  if (::listen(fd_.get(), 1024) < 0) throw SocketError("listen", errno);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw SocketError("getsockname", errno);
  }
  port_ = ntohs(bound.sin_port);
}

std::optional<TcpConnection> TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return std::nullopt;
    // fd exhaustion is a degraded state, not a reason to tear the whole
    // server down: existing connections keep progressing, and the queued
    // connect is retried once something frees a descriptor.
    if (errno == EMFILE || errno == ENFILE) {
      obs::counter("net.accept_shed").inc();
      return std::nullopt;
    }
    throw SocketError("accept", errno);
  }
  TcpConnection conn{FileDescriptor(fd)};
  conn.set_nodelay(true);
  return conn;
}

void TcpListener::set_nonblocking(bool enabled) { set_fd_nonblocking(fd_.get(), enabled); }

}  // namespace cwc::net
