// Event loop unit suite, run against both backends: watcher dispatch over
// a socketpair, write interest (alone, beside read interest, and waiting
// out a full send buffer), timer fire/cancel, repeating timers (also
// after a stall), post() ordering, and the self-unwatch-during-dispatch
// case the server's teardown path relies on (a callback destroying its
// own registration must not crash the loop).
#include "net/event_loop.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cwc::net {
namespace {

/// A connected AF_UNIX socketpair with RAII close; writes on one end make
/// the other end readable.
struct SocketPair {
  SocketPair() {
    std::array<int, 2> fds{-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds.data()) != 0) {
      throw std::runtime_error("socketpair");
    }
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    ::close(a);
    ::close(b);
  }
  void poke(int fd) const {
    const char byte = 'x';
    ASSERT_EQ(::write(fd, &byte, 1), 1);
  }
  void drain(int fd) const {
    char buf[64];
    (void)::read(fd, buf, sizeof buf);
  }
  int a = -1;
  int b = -1;
};

class EventLoopTest : public ::testing::TestWithParam<EventLoop::Backend> {};

TEST_P(EventLoopTest, DispatchesReadableFd) {
  EventLoop loop(GetParam());
  SocketPair pair;
  int hits = 0;
  loop.watch_fd(pair.a, [&] {
    pair.drain(pair.a);
    ++hits;
  });
  pair.poke(pair.b);
  EXPECT_GE(loop.run_once(1'000.0), 1u);
  EXPECT_EQ(hits, 1);
  // Level-triggered: no data pending means no further dispatch.
  EXPECT_EQ(loop.run_once(5.0), 0u);
  EXPECT_EQ(hits, 1);
  loop.unwatch_fd(pair.a);
  EXPECT_EQ(loop.watched_fds(), 0u);
}

TEST_P(EventLoopTest, SelfUnwatchDuringDispatchIsSafe) {
  EventLoop loop(GetParam());
  SocketPair pair;
  int hits = 0;
  // The callback tears down its own watcher mid-dispatch — the pattern
  // teardown_connection() uses. The loop must copy the callback before
  // invoking it, or this destroys the std::function it is executing.
  loop.watch_fd(pair.a, [&] {
    pair.drain(pair.a);
    loop.unwatch_fd(pair.a);
    ++hits;
  });
  pair.poke(pair.b);
  loop.run_once(1'000.0);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(loop.watching(pair.a));
  // A second poke on the now-unwatched fd goes nowhere.
  pair.poke(pair.b);
  EXPECT_EQ(loop.run_once(5.0), 0u);
  EXPECT_EQ(hits, 1);
}

TEST_P(EventLoopTest, UnwatchSuppressesSameRoundDelivery) {
  EventLoop loop(GetParam());
  SocketPair one, two;
  std::vector<std::string> order;
  // Whichever of the two fds dispatches first unwatches the other; the
  // suppressed fd must not fire in the same round even though both were
  // readable when the backend polled.
  loop.watch_fd(one.a, [&] {
    one.drain(one.a);
    loop.unwatch_fd(two.a);
    order.push_back("one");
  });
  loop.watch_fd(two.a, [&] {
    two.drain(two.a);
    loop.unwatch_fd(one.a);
    order.push_back("two");
  });
  one.poke(one.b);
  two.poke(two.b);
  loop.run_once(1'000.0);
  ASSERT_EQ(order.size(), 1u);
  // Only the loser was unwatched; the winner's own watcher remains.
  EXPECT_EQ(loop.watched_fds(), 1u);
  EXPECT_EQ(loop.watching(one.a) ? "one" : "two", order[0]);
}

TEST_P(EventLoopTest, OneShotTimerFiresAndCancelHolds) {
  EventLoop loop(GetParam());
  int fired = 0;
  loop.schedule(5.0, [&] { ++fired; });
  const TimerId doomed = loop.schedule(5.0, [&] { ++fired; });
  EXPECT_TRUE(loop.cancel(doomed));
  EXPECT_FALSE(loop.cancel(doomed));
  // Spin the loop past the deadline; each run_once advances the wheel.
  for (int i = 0; i < 100 && fired == 0; ++i) loop.run_once(10.0);
  EXPECT_EQ(fired, 1);
}

TEST_P(EventLoopTest, RepeatingTimerFiresUntilCancelled) {
  EventLoop loop(GetParam());
  int ticks = 0;
  TimerId handle = kInvalidTimer;
  handle = loop.every(2.0, [&] {
    if (++ticks >= 3) loop.cancel(handle);
  });
  for (int i = 0; i < 200 && ticks < 3; ++i) loop.run_once(5.0);
  EXPECT_EQ(ticks, 3);
  // Cancelled: further iterations add no ticks.
  for (int i = 0; i < 10; ++i) loop.run_once(2.0);
  EXPECT_EQ(ticks, 3);
}

TEST_P(EventLoopTest, CancelledRepeatingTimerFreesItsCallback) {
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  {
    EventLoop loop(GetParam());
    const TimerId handle = loop.every(2.0, [token] { ++*token; });
    token.reset();
    for (int i = 0; i < 200 && *watch.lock() < 2; ++i) loop.run_once(5.0);
    EXPECT_GE(*watch.lock(), 2);
    EXPECT_TRUE(loop.cancel(handle));
  }
  EXPECT_TRUE(watch.expired());
}

TEST_P(EventLoopTest, RepeatFiresOnceAfterAStall) {
  // A loop that stalls for several periods (a long handler, a slow
  // scheduler build, hypervisor steal) must not replay the missed firings
  // in one burst: the server's keep-alive counts a miss per firing, so a
  // burst declares healthy phones lost before their acks are read.
  EventLoop loop(GetParam());
  std::vector<Millis> fired_at;
  loop.every(100.0, [&] { fired_at.push_back(loop.now_ms()); });
  loop.run_once(0.0);  // anchors the loop's clock
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  loop.run_once(0.0);
  ASSERT_EQ(fired_at.size(), 1u) << "a 450 ms stall replayed the 100 ms repeat";
  // The next firing is a full period after the late one, not a catch-up.
  for (int i = 0; i < 100 && fired_at.size() < 2; ++i) loop.run_once(200.0);
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_GE(fired_at[1] - fired_at[0], 99.0);  // whole-tick rounding
}

TEST_P(EventLoopTest, PostRunsAfterDispatchRound) {
  EventLoop loop(GetParam());
  SocketPair pair;
  std::vector<std::string> order;
  loop.watch_fd(pair.a, [&] {
    pair.drain(pair.a);
    order.push_back("fd");
    loop.post([&] { order.push_back("posted"); });
    order.push_back("fd-after-post");
  });
  pair.poke(pair.b);
  loop.run_once(1'000.0);
  EXPECT_EQ(order,
            (std::vector<std::string>{"fd", "fd-after-post", "posted"}));
}

TEST_P(EventLoopTest, StopFromTimerEndsRun) {
  EventLoop loop(GetParam());
  int fired = 0;
  loop.schedule(10.0, [&] {
    ++fired;
    loop.stop();
  });
  loop.run();  // must return once the timer stops the loop
  EXPECT_EQ(fired, 1);
  EXPECT_GT(loop.wakeups(), 0u);
}

TEST_P(EventLoopTest, SleepsUntilTimerDeadlineNotFixedTick) {
  EventLoop loop(GetParam());
  bool fired = false;
  loop.schedule(40.0, [&] {
    fired = true;
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(fired);
  // The whole 40 ms wait should take a handful of wakeups (timer cascade
  // plus dispatch), not the ~2000 a 20 us busy tick would show. Generous
  // bound: spurious wakes are fine, a fixed-tick regression is not.
  EXPECT_LT(loop.wakeups(), 20u);
}

/// Makes `fd` non-blocking and writes until its send buffer is full.
void fill_send_buffer(int fd) {
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
  const std::vector<char> chunk(64 * 1024, 'x');
  while (::write(fd, chunk.data(), chunk.size()) > 0) {
  }
  ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
}

TEST_P(EventLoopTest, WriteInterestFiresWhileWritableUntilCleared) {
  EventLoop loop(GetParam());
  SocketPair pair;
  int writable = 0;
  // Write interest alone registers the fd: no read watcher needed.
  loop.set_write_interest(pair.a, [&] { ++writable; });
  EXPECT_TRUE(loop.watching(pair.a));
  EXPECT_GE(loop.run_once(1'000.0), 1u);
  EXPECT_EQ(writable, 1);
  // Level-triggered: an idle socket is writable on every round.
  loop.run_once(1'000.0);
  EXPECT_EQ(writable, 2);
  // Clearing the only interest removes the fd.
  loop.set_write_interest(pair.a, {});
  EXPECT_FALSE(loop.watching(pair.a));
  EXPECT_EQ(loop.run_once(5.0), 0u);
  EXPECT_EQ(writable, 2);
}

TEST_P(EventLoopTest, WriteInterestWaitsForAFullBufferToDrain) {
  EventLoop loop(GetParam());
  SocketPair pair;
  fill_send_buffer(pair.a);
  int writable = 0;
  loop.set_write_interest(pair.a, [&] {
    ++writable;
    loop.set_write_interest(pair.a, {});  // one-shot, as an outbox does
  });
  EXPECT_EQ(loop.run_once(20.0), 0u);
  EXPECT_EQ(writable, 0);
  // The reader drains: the writer's callback runs once, then stays off.
  char sink[64 * 1024];
  while (::recv(pair.b, sink, sizeof sink, MSG_DONTWAIT) > 0) {
  }
  for (int i = 0; i < 100 && writable == 0; ++i) loop.run_once(10.0);
  EXPECT_EQ(writable, 1);
  EXPECT_EQ(loop.run_once(5.0), 0u);
  EXPECT_EQ(writable, 1);
}

TEST_P(EventLoopTest, ReadAndWriteInterestDispatchIndependently) {
  EventLoop loop(GetParam());
  SocketPair pair;
  std::vector<std::string> order;
  loop.watch_fd(pair.a, [&] {
    pair.drain(pair.a);
    order.push_back("read");
  });
  loop.set_write_interest(pair.a, [&] {
    order.push_back("write");
    loop.set_write_interest(pair.a, {});
  });
  pair.poke(pair.b);
  loop.run_once(1'000.0);
  // One readiness report delivers both, read first.
  EXPECT_EQ(order, (std::vector<std::string>{"read", "write"}));
  // Clearing write interest keeps the read watcher.
  EXPECT_TRUE(loop.watching(pair.a));
  pair.poke(pair.b);
  loop.run_once(1'000.0);
  EXPECT_EQ(order.back(), "read");
  EXPECT_EQ(order.size(), 3u);
  // unwatch_fd() drops both interests.
  loop.set_write_interest(pair.a, [&] { order.push_back("write"); });
  loop.unwatch_fd(pair.a);
  EXPECT_FALSE(loop.watching(pair.a));
  EXPECT_EQ(loop.run_once(5.0), 0u);
  EXPECT_EQ(order.size(), 3u);
}

TEST_P(EventLoopTest, ReadCallbackDroppingWriteInterestSuppressesIt) {
  EventLoop loop(GetParam());
  SocketPair pair;
  int writes = 0;
  loop.watch_fd(pair.a, [&] {
    pair.drain(pair.a);
    loop.set_write_interest(pair.a, {});
  });
  loop.set_write_interest(pair.a, [&] { ++writes; });
  pair.poke(pair.b);
  loop.run_once(1'000.0);
  // Readable and writable in the same round, but the read callback
  // cleared write interest first.
  EXPECT_EQ(writes, 0);
}

TEST_P(EventLoopTest, BackendNameMatchesRequest) {
  EventLoop loop(GetParam());
  const std::string name = loop.backend_name();
  if (GetParam() == EventLoop::Backend::kPoll) {
    EXPECT_EQ(name, "poll");
  } else {
    EXPECT_TRUE(name == "poll" || name == "epoll") << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopTest,
                         ::testing::Values(EventLoop::Backend::kPoll,
                                           EventLoop::Backend::kEpoll),
                         [](const auto& info) {
                           return info.param == EventLoop::Backend::kPoll ? "Poll" : "Epoll";
                         });

}  // namespace
}  // namespace cwc::net
