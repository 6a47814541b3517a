// Outbox unit suite over a real loopback TCP pair: a due frame behind an
// empty queue is written at once, link latency becomes a release time
// (frames keep their order and the caller never waits), a full socket
// buffer becomes write interest that drains on the loop, an injected
// partial write tears the frame and fails the outbox, a failed write
// posts on_failed once, and close() still writes what is queued.
#include "net/outbox.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/link_fault.h"
#include "net/framing.h"
#include "obs/metrics.h"

namespace cwc::net {
namespace {

using Blob = std::vector<std::uint8_t>;
using Clock = std::chrono::steady_clock;

Outbox::Payload payload(Blob bytes) { return std::make_shared<const Blob>(std::move(bytes)); }

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// A loopback connection: the outbox writes on `server` (non-blocking, as
/// in CwcServer); the test reads on `client`.
struct Link {
  Link() : listener(0) {
    client = TcpConnection::connect_local(listener.port());
    server = std::move(*listener.accept());
    server.set_nonblocking(true);
    client.set_nonblocking(true);
  }

  /// Runs the loop and reads the client side until `count` frames arrived
  /// or `budget_ms` passed.
  std::vector<Blob> receive(EventLoop& loop, std::size_t count, Millis budget_ms = 2'000.0) {
    std::vector<Blob> frames;
    const auto start = Clock::now();
    while (frames.size() < count && ms_since(start) < budget_ms) {
      loop.run_once(1.0);
      while (const auto n = client.recv_into(buffer)) {
        if (*n == 0) return frames;
        decoder.feed({buffer.data(), *n});
      }
      while (auto frame = decoder.pop()) frames.push_back(std::move(*frame));
    }
    return frames;
  }

  TcpListener listener;
  TcpConnection client;
  TcpConnection server;
  FrameDecoder decoder;
  Blob buffer = Blob(kRecvBufferBytes);
};

TEST(Outbox, DueFrameBehindAnEmptyQueueIsWrittenAtOnce) {
  EventLoop loop;
  Link link;
  Outbox outbox(loop, link.server, [] {});
  outbox.send_frame(payload({1, 2, 3}));
  EXPECT_TRUE(outbox.empty());
  // The loop has not run: the frame is already on the wire.
  link.client.set_nonblocking(false);
  const auto frame = read_frame(link.client, link.decoder);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, (Blob{1, 2, 3}));
}

TEST(Outbox, LinkLatencyBecomesAReleaseTimeAndKeepsOrder) {
  auto& plane = fault::LinkFaultPlane::global();
  plane.reset();
  plane.add_rules("link:phone=7:slow@latency=40ms,dir=to");
  plane.arm(/*seed=*/1);
  EventLoop loop;
  Link link;
  link.server.bind_link(7, /*server_side=*/true);
  Outbox outbox(loop, link.server, [] {});

  const auto start = Clock::now();
  for (std::uint8_t i = 1; i <= 3; ++i) outbox.send_frame(payload({i}));
  // Queuing is immediate: the caller does not wait out the latency.
  EXPECT_LT(ms_since(start), 20.0);
  EXPECT_FALSE(outbox.empty());
  const auto frames = link.receive(loop, 3);
  const double arrived_ms = ms_since(start);
  plane.reset();

  EXPECT_EQ(frames, (std::vector<Blob>{{1}, {2}, {3}}));
  // Paid once per frame and in parallel, not once per syscall in series.
  EXPECT_GE(arrived_ms, 39.0);
  EXPECT_LT(arrived_ms, 40.0 * 3);
  EXPECT_TRUE(outbox.empty());
}

TEST(Outbox, FullSocketBufferBecomesWriteInterestAndDrains) {
  EventLoop loop;
  Link link;
  Outbox outbox(loop, link.server, [] {});
  const double stalled_before = obs::counter("net.send_stall_ms").value();
  // Far more than the kernel buffers hold while nobody reads.
  Blob big(16u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  outbox.send_frame(payload(big));
  outbox.send_frame(payload({42}));
  EXPECT_FALSE(outbox.empty());
  loop.run_once(10.0);
  EXPECT_FALSE(outbox.empty());  // still refused: the loop did not block on it

  const auto frames = link.receive(loop, 2, 10'000.0);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], big);
  EXPECT_EQ(frames[1], Blob{42});
  EXPECT_TRUE(outbox.empty());
  EXPECT_FALSE(outbox.failed());
  EXPECT_GT(obs::counter("net.send_stall_ms").value(), stalled_before);
}

TEST(Outbox, InjectedPartialWriteTearsTheFrameThenFails) {
  auto& injector = fault::FaultInjector::global();
  injector.reset();
  injector.add_rules(fault::parse_fault_spec("socket_write:partial@n=1"));
  injector.arm(/*seed=*/1);
  EventLoop loop;
  Link link;
  int failures = 0;
  Outbox outbox(loop, link.server, [&] { ++failures; });
  outbox.send_frame(payload(Blob(100, 7)));
  injector.reset();

  EXPECT_TRUE(outbox.failed());
  EXPECT_EQ(failures, 0);  // posted, not called from inside send_frame
  loop.run_once(0.0);
  EXPECT_EQ(failures, 1);
  // Frames after the failure are discarded, not queued.
  outbox.send_frame(payload({1}));
  EXPECT_TRUE(outbox.empty());
  // Half the frame left: a torn stream the peer cannot decode.
  EXPECT_TRUE(link.receive(loop, 1, 50.0).empty());
  EXPECT_EQ(link.decoder.buffered_bytes(), 52u);
}

TEST(Outbox, PeerResetPostsOnFailedOnce) {
  EventLoop loop;
  Link link;
  int failures = 0;
  Outbox outbox(loop, link.server, [&] { ++failures; });
  link.client.close();
  // The first writes may still land in the kernel; the peer's reset fails
  // a later one.
  for (int i = 0; i < 200 && !outbox.failed(); ++i) {
    outbox.send_frame(payload(Blob(1024, 1)));
    loop.run_once(1.0);
  }
  ASSERT_TRUE(outbox.failed());
  loop.run_once(0.0);
  loop.run_once(0.0);
  EXPECT_EQ(failures, 1);
}

TEST(Outbox, CloseWritesQueuedFramesWithoutWaitingForRelease) {
  auto& plane = fault::LinkFaultPlane::global();
  plane.reset();
  plane.add_rules("link:phone=7:slow@latency=10s,dir=to");
  plane.arm(/*seed=*/1);
  EventLoop loop;
  Link link;
  link.server.bind_link(7, /*server_side=*/true);
  Outbox outbox(loop, link.server, [] {});
  outbox.send_frame(payload({9, 9}));
  plane.reset();
  EXPECT_FALSE(outbox.empty());
  // A closing connection's last frames (the shutdown notice) go out now.
  outbox.close();
  EXPECT_TRUE(outbox.empty());
  link.client.set_nonblocking(false);
  const auto frame = read_frame(link.client, link.decoder);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, (Blob{9, 9}));
  // Closed for good: later frames are discarded.
  outbox.send_frame(payload({1}));
  EXPECT_TRUE(outbox.empty());
}

}  // namespace
}  // namespace cwc::net
