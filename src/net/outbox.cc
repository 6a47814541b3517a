#include "net/outbox.h"

#include <algorithm>
#include <utility>

#include "net/framing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cwc::net {

Outbox::Outbox(EventLoop& loop, TcpConnection& conn, EventLoop::Task on_failed,
               EventLoop::Task on_drained)
    : loop_(loop),
      conn_(conn),
      on_failed_(std::move(on_failed)),
      on_drained_(std::move(on_drained)) {}

Outbox::~Outbox() { disarm(); }

void Outbox::send_frame(Payload payload, Millis extra_delay_ms) {
  if (failed_ || closed_) return;
  if (payload->size() > kMaxFrameBytes) {
    fail();  // the peer's decoder would reject it as a corrupted stream
    return;
  }
  Frame frame;
  frame.header = frame_header(payload->size());
  frame.header_size = frame.header.size();
  const SendDecision decision = conn_.decide_send(frame.header_size + payload->size());
  if (decision.drop) return;
  frame.payload = std::move(payload);
  frame.limit = decision.limit;
  frame.reset = decision.reset;
  enqueue(std::move(frame), decision.delay_ms + extra_delay_ms);
}

void Outbox::send_bytes(Payload bytes) {
  if (failed_ || closed_) return;
  Frame frame;
  frame.limit = bytes->size();
  frame.payload = std::move(bytes);
  enqueue(std::move(frame), 0.0);
}

void Outbox::enqueue(Frame frame, Millis delay_ms) {
  frame.release_ms = std::max(last_release_ms_, loop_.wall_now_ms() + delay_ms);
  last_release_ms_ = frame.release_ms;
  queue_.push_back(std::move(frame));
  // Behind other frames, the head's timer or write interest covers this one.
  if (queue_.size() == 1) flush();
}

void Outbox::flush() {
  const Millis now = loop_.wall_now_ms();
  while (!queue_.empty() && queue_.front().release_ms <= now) {
    if (!write_head()) {
      if (!failed_) set_stalled(true);
      return;
    }
    queue_.pop_front();
  }
  set_stalled(false);
  if (queue_.empty()) {
    if (waited_ && on_drained_) loop_.post(on_drained_);
    waited_ = false;
    return;
  }
  // The wheel may fire a tick early; flush() then simply re-arms.
  if (timer_ == kInvalidTimer) {
    waited_ = true;
    timer_ = loop_.schedule(queue_.front().release_ms - now, [this] {
      timer_ = kInvalidTimer;
      flush();
    });
  }
}

bool Outbox::write_head() {
  Frame& frame = queue_.front();
  if (frame.written < frame.limit) {
    try {
      frame.written += conn_.write_some({frame.header.data(), frame.header_size},
                                        *frame.payload, frame.written, frame.limit);
    } catch (const SocketError&) {
      fail();
      return false;
    }
    if (frame.written < frame.limit) return false;  // the socket buffer is full
  }
  if (frame.reset) {
    fail();
    return false;
  }
  return true;
}

void Outbox::fail() {
  if (failed_) return;
  failed_ = true;
  disarm();
  if (on_failed_) loop_.post(on_failed_);
}

void Outbox::set_stalled(bool stalled) {
  if (stalled == stalled_) return;
  stalled_ = stalled;
  const Millis now = loop_.wall_now_ms();
  if (stalled) {
    waited_ = true;
    stalled_since_ms_ = now;
    loop_.set_write_interest(conn_.fd(), [this] { flush(); });
    return;
  }
  loop_.set_write_interest(conn_.fd(), {});
  // How long due bytes sat refused by the kernel: a slow or wedged reader.
  const Millis held_ms = now - stalled_since_ms_;
  obs::counter("net.send_stall_ms").inc(held_ms);
  if (obs::trace_enabled()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kSendStalled;
    event.t = obs::trace_now();
    event.phone = conn_.link_peer();
    event.value = held_ms;
    obs::trace_record(event);
  }
}

void Outbox::close() {
  if (closed_) return;
  while (!failed_ && !queue_.empty() && write_head()) queue_.pop_front();
  disarm();
  closed_ = true;
}

void Outbox::disarm() {
  set_stalled(false);
  if (timer_ != kInvalidTimer) {
    loop_.cancel(timer_);
    timer_ = kInvalidTimer;
  }
  queue_.clear();
}

}  // namespace cwc::net
