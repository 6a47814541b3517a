// Per-connection outbox: the server's non-blocking, in-order send path.
//
// A FIFO of frames, each with a release time decided when it is queued.
// The link fault plane's latency and pacing (common/link_fault.h) and an
// injected `socket_write` delay become release times instead of sleeps;
// release = max(previous release, now + delay) keeps frames in order. The
// event loop flushes a frame with one gathered write once it is due and
// the socket can take it:
//   - a due frame behind an empty queue is written at once (fast path);
//   - otherwise one timer waits for the head frame's release, or write
//     interest waits for a full socket buffer to drain.
// Nothing here sleeps or polls, so a slow or wedged peer costs the loop
// nothing; the keep-alive loss rule drops a peer that stops reading.
//
// Payloads are shared, never copied: a retained frame (the server's
// in-flight assignment) can be queued again while an earlier copy waits.
// Send errors never throw: the first failed write (peer reset, EPIPE, an
// injected reset or partial) marks the outbox failed, discards what is
// queued, and posts the owner's `on_failed` to run after the current
// dispatch round, where the owner drops the connection.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace cwc::net {

class Outbox {
 public:
  using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// `conn` must be non-blocking and outlive the outbox. `on_failed` is
  /// posted once, on the first failed write. `on_drained`, when set, is
  /// posted each time the queue empties after it had to wait (the fast
  /// path posts nothing; check empty() after sending instead).
  Outbox(EventLoop& loop, TcpConnection& conn, EventLoop::Task on_failed,
         EventLoop::Task on_drained = {});
  ~Outbox();
  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Queues one length-prefixed frame. The link plane and the
  /// `socket_write` fault point decide its fate once: dropped, released
  /// later, or written torn and then reset. `extra_delay_ms` postpones its
  /// release further (an injected `assign_piece` delay).
  void send_frame(Payload payload, Millis extra_delay_ms = 0.0);
  /// Queues raw bytes with no length prefix, link plane or faults (the
  /// /metrics endpoint's HTTP responses).
  void send_bytes(Payload bytes);

  bool failed() const { return failed_; }
  bool empty() const { return queue_.empty(); }

  /// For a closing connection: writes what the socket takes of the queued
  /// frames now, release times ignored (the shutdown notice still goes
  /// out), then discards the rest and disarms. Call before closing the
  /// socket; the outbox stays inert afterwards.
  void close();

 private:
  struct Frame {
    std::array<std::uint8_t, 4> header{};
    std::size_t header_size = 0;  ///< 4 for a frame, 0 for raw bytes
    Payload payload;
    Millis release_ms = 0.0;
    std::size_t limit = 0;    ///< bytes to write (all of them unless torn)
    std::size_t written = 0;  ///< bytes the kernel has taken
    bool reset = false;       ///< an injected reset follows the last byte
  };

  void enqueue(Frame frame, Millis delay_ms);
  /// Writes every due frame the socket takes, then waits for the rest:
  /// write interest while due bytes are refused, else a release timer.
  void flush();
  /// Writes the head frame; false when the kernel refused part of it.
  bool write_head();
  void fail();
  void set_stalled(bool stalled);
  void disarm();

  EventLoop& loop_;
  TcpConnection& conn_;
  EventLoop::Task on_failed_;
  EventLoop::Task on_drained_;
  std::deque<Frame> queue_;
  Millis last_release_ms_ = 0.0;
  TimerId timer_ = kInvalidTimer;
  bool stalled_ = false;  ///< write interest on: due bytes were refused
  Millis stalled_since_ms_ = 0.0;
  bool waited_ = false;  ///< a timer or write interest held the queue
  bool failed_ = false;
  bool closed_ = false;
};

}  // namespace cwc::net
