// Single-writer event loop: readiness-driven fd watchers plus a
// hierarchical timer wheel, replacing the server's fixed 20 ms poll tick.
// An fd may carry read interest, write interest, or both; write interest
// is how an outbox (net/outbox.h) waits for a full socket buffer to drain
// without blocking the loop.
//
// Ownership rules (see DESIGN.md "Event-driven core"):
//   - Exactly one thread runs the loop; every watcher and timer callback
//     executes on that thread. All scheduler/journal mutation happens in
//     those callbacks, so the single-writer invariant of the pre-loop
//     server carries over unchanged.
//   - Callbacks may watch/unwatch fds, schedule/cancel timers, and post()
//     deferred work freely, including against themselves. unwatch_fd()
//     during a dispatch round suppresses any not-yet-delivered readiness
//     for that fd in the same round.
//   - post() runs its task after the current dispatch round completes —
//     the loop's "do this when no callback is on the stack" primitive
//     (the server uses it to reap dropped connections outside iteration).
//
// Backends: epoll (level-triggered) where available, portable ::poll
// otherwise; kAuto picks epoll on Linux. Both sleep exactly until the
// wheel's next deadline or fd readiness — there is no fixed tick. EINTR
// is treated as a spurious wake; real poll/epoll errors throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/timer_wheel.h"

struct pollfd;  // <poll.h>, only needed by event_loop.cc

namespace cwc::net {

class EventLoop {
 public:
  enum class Backend { kAuto, kPoll, kEpoll };

  using FdCallback = std::function<void()>;
  using Task = std::function<void()>;

  explicit EventLoop(Backend backend = Backend::kAuto, Millis timer_tick_ms = 1.0);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `on_ready` to run whenever `fd` is readable. One watcher
  /// per fd; re-watching an fd replaces its callback.
  void watch_fd(int fd, FdCallback on_ready);
  /// Write interest: while set, `on_writable` runs whenever `fd` can take
  /// more bytes (or reports an error or hang-up). Independent of read
  /// interest; an empty callback clears it. Leave it off while nothing is
  /// waiting to be written: a writable socket is ready on every round.
  void set_write_interest(int fd, FdCallback on_writable);
  /// Drops both interests. Must be called before closing a watched fd.
  void unwatch_fd(int fd);
  bool watching(int fd) const { return watchers_.count(fd) > 0; }
  std::size_t watched_fds() const { return watchers_.size(); }

  /// One-shot timer `delay_ms` from now; cancel with cancel().
  TimerId schedule(Millis delay_ms, TimerWheel::Callback callback);
  /// Repeating timer. The callback's TimerId handle tracks the current
  /// arming, so cancel() stops the repetition. A repeat fires at most once
  /// per round: its next deadline is `period_ms` after the round that ran
  /// it, so a loop that stalled for several periods does not replay them.
  TimerId every(Millis period_ms, std::function<void()> callback);
  bool cancel(TimerId id);

  /// Runs `task` after the current dispatch round, outside any callback.
  void post(Task task);

  /// Runs until stop(). The monotonic clock anchors at first entry, so
  /// timers scheduled before run() measure their delay from run start.
  void run();
  /// One iteration — advance timers, wait at most `max_wait_ms`, dispatch.
  /// Returns the number of fd events dispatched (tests and tools).
  std::size_t run_once(Millis max_wait_ms);
  void stop() { stop_requested_ = true; }

  /// Timestamp shared by every callback of the current dispatch round, so
  /// one round's handlers see one coherent "now" (the pre-loop server's
  /// per-iteration now_ms_ behaved the same way).
  Millis now_ms() const { return cached_now_ms_; }
  /// Live monotonic milliseconds since the loop's anchor.
  Millis wall_now_ms() const;

  const char* backend_name() const;
  std::uint64_t wakeups() const { return wakeups_; }

 private:
  struct RepeatState;
  /// The interests registered on one fd; an fd with neither is removed.
  struct Watcher {
    FdCallback on_read;
    FdCallback on_write;
  };

  /// Schedules the next firing of the repeating timer `handle`.
  void arm_repeat(TimerId handle);
  void ensure_anchor();
  std::size_t wait_and_dispatch(int timeout_ms);
  std::size_t dispatch_poll(int timeout_ms);
  std::size_t dispatch_epoll(int timeout_ms);
  void drain_posted();
  /// Pushes `fd`'s interest set to the backend (add, modify or remove).
  void update_interest(int fd, bool existed);
  /// Runs `fd`'s callbacks for one readiness report, re-resolving the
  /// watcher between them (the read callback may drop either interest).
  bool dispatch_fd(int fd, bool readable, bool writable);

  Backend backend_;
  TimerWheel wheel_;
  std::unordered_map<int, Watcher> watchers_;
  // Repeating timers: handle -> state holding the live wheel arming.
  std::unordered_map<TimerId, std::shared_ptr<RepeatState>> repeats_;
  TimerId next_repeat_handle_;
  std::deque<Task> posted_;
  bool stop_requested_ = false;
  bool anchored_ = false;
  std::uint64_t anchor_ns_ = 0;
  Millis cached_now_ms_ = 0.0;
  std::uint64_t wakeups_ = 0;
  int epoll_fd_ = -1;
  // Scratch for the poll backend, rebuilt only when the watcher set
  // changes — per-iteration work stays O(ready) on the epoll path and
  // O(fds) only on the portable fallback.
  std::vector<::pollfd> pollfds_;
  bool pollfds_dirty_ = true;
};

}  // namespace cwc::net
