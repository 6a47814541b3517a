#include "net/event_loop.h"

#include <poll.h>
#include <time.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <cmath>
#include <memory>
#include <unistd.h>
#include <utility>

#include "net/socket.h"
#include "obs/metrics.h"

namespace cwc::net {

namespace {

std::uint64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Repeat handles live in their own range so they can never collide with
// wheel-issued one-shot ids.
constexpr TimerId kRepeatHandleBase = TimerId{1} << 62;

}  // namespace

struct EventLoop::RepeatState {
  Millis period_ms = 0.0;
  std::function<void()> callback;
  TimerId current = kInvalidTimer;  // the live wheel arming
};

EventLoop::EventLoop(Backend backend, Millis timer_tick_ms)
    : backend_(backend), wheel_(timer_tick_ms), next_repeat_handle_(kRepeatHandleBase) {
  if (backend_ == Backend::kAuto) {
#ifdef __linux__
    backend_ = Backend::kEpoll;
#else
    backend_ = Backend::kPoll;
#endif
  }
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) backend_ = Backend::kPoll;  // degraded environments
  }
#else
  backend_ = Backend::kPoll;
#endif
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::watch_fd(int fd, FdCallback on_ready) {
  const bool existed = watchers_.count(fd) > 0;
  watchers_[fd].on_read = std::move(on_ready);
  update_interest(fd, existed);
}

void EventLoop::set_write_interest(int fd, FdCallback on_writable) {
  const auto it = watchers_.find(fd);
  if (it == watchers_.end() && !on_writable) return;
  const bool existed = it != watchers_.end();
  watchers_[fd].on_write = std::move(on_writable);
  update_interest(fd, existed);
}

void EventLoop::unwatch_fd(int fd) {
  if (watchers_.erase(fd) == 0) return;
  update_interest(fd, /*existed=*/true);
}

void EventLoop::update_interest(int fd, bool existed) {
  const auto it = watchers_.find(fd);
  if (it != watchers_.end() && !it->second.on_read && !it->second.on_write) watchers_.erase(it);
  const bool present = watchers_.count(fd) > 0;
  pollfds_dirty_ = true;
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_event ev{};
    ev.data.fd = fd;
    if (!present) {
      if (existed) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);  // best-effort
    } else {
      const Watcher& watcher = watchers_.at(fd);
      ev.events = (watcher.on_read ? EPOLLIN : 0u) | (watcher.on_write ? EPOLLOUT : 0u);
      if (::epoll_ctl(epoll_fd_, existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev) < 0) {
        const int error = errno;
        watchers_.erase(fd);
        throw SocketError("epoll_ctl", error);
      }
    }
  }
#else
  (void)existed;
#endif
  obs::gauge("net.loop.watched_fds").set(static_cast<double>(watchers_.size()));
}

TimerId EventLoop::schedule(Millis delay_ms, TimerWheel::Callback callback) {
  return wheel_.schedule(delay_ms, std::move(callback));
}

TimerId EventLoop::every(Millis period_ms, std::function<void()> callback) {
  auto state = std::make_shared<RepeatState>();
  state->period_ms = period_ms;
  state->callback = std::move(callback);
  const TimerId handle = next_repeat_handle_++;
  repeats_[handle] = std::move(state);
  arm_repeat(handle);
  return handle;
}

void EventLoop::arm_repeat(TimerId handle) {
  // The wheel entry names the repeat by handle only, so cancel() — which
  // erases the handle's state — frees the callback and all it captured.
  RepeatState& state = *repeats_.at(handle);
  state.current = wheel_.schedule(state.period_ms, [this, handle] {
    const auto it = repeats_.find(handle);
    if (it == repeats_.end()) return;
    // Held across the call: the callback may cancel its own handle.
    const std::shared_ptr<RepeatState> repeat = it->second;
    repeat->callback();
    // Re-arm after the advance that fired it, from the loop's current
    // time, not from the tick the wheel stepped to. After a stall of N
    // periods the repeat then fires once, not N times in one advance (the
    // keep-alive counts one miss per firing, so a burst would declare
    // every healthy phone lost), and its next firing is a period later.
    post([this, handle] {
      if (repeats_.count(handle) != 0) arm_repeat(handle);
    });
  });
}

bool EventLoop::cancel(TimerId id) {
  if (id >= kRepeatHandleBase) {
    const auto it = repeats_.find(id);
    if (it == repeats_.end()) return false;
    wheel_.cancel(it->second->current);
    repeats_.erase(it);
    return true;
  }
  return wheel_.cancel(id);
}

void EventLoop::post(Task task) { posted_.push_back(std::move(task)); }

void EventLoop::drain_posted() {
  // Tasks posted by posted tasks run in the same drain, FIFO.
  while (!posted_.empty()) {
    Task task = std::move(posted_.front());
    posted_.pop_front();
    obs::counter("net.loop.posted_tasks").inc();
    task();
  }
}

void EventLoop::ensure_anchor() {
  if (anchored_) return;
  anchored_ = true;
  anchor_ns_ = monotonic_ns();
}

Millis EventLoop::wall_now_ms() const {
  if (!anchored_) return 0.0;
  return static_cast<Millis>(monotonic_ns() - anchor_ns_) / 1e6;
}

const char* EventLoop::backend_name() const {
  return backend_ == Backend::kEpoll ? "epoll" : "poll";
}

std::size_t EventLoop::wait_and_dispatch(int timeout_ms) {
#ifdef __linux__
  if (backend_ == Backend::kEpoll) return dispatch_epoll(timeout_ms);
#endif
  return dispatch_poll(timeout_ms);
}

std::size_t EventLoop::dispatch_epoll(int timeout_ms) {
#ifdef __linux__
  epoll_event events[256];
  const int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
  ++wakeups_;
  obs::counter("net.loop.wakeups").inc();
  if (n < 0) {
    if (errno == EINTR) return 0;  // signal — recompute deadlines and re-wait
    throw SocketError("epoll_wait", errno);
  }
  cached_now_ms_ = wall_now_ms();
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t flags = events[i].events;
    const bool failed = (flags & (EPOLLERR | EPOLLHUP)) != 0;
    if (dispatch_fd(events[i].data.fd, failed || (flags & EPOLLIN) != 0,
                    failed || (flags & EPOLLOUT) != 0)) {
      ++dispatched;
    }
  }
  if (dispatched) obs::counter("net.loop.fd_dispatches").inc(static_cast<double>(dispatched));
  return dispatched;
#else
  (void)timeout_ms;
  return 0;
#endif
}

std::size_t EventLoop::dispatch_poll(int timeout_ms) {
  if (pollfds_dirty_) {
    pollfds_.clear();
    pollfds_.reserve(watchers_.size());
    for (const auto& [fd, watcher] : watchers_) {
      const short events = static_cast<short>((watcher.on_read ? POLLIN : 0) |
                                              (watcher.on_write ? POLLOUT : 0));
      pollfds_.push_back(pollfd{fd, events, 0});
    }
    pollfds_dirty_ = false;
  }
  const int n = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
  ++wakeups_;
  obs::counter("net.loop.wakeups").inc();
  if (n < 0) {
    if (errno == EINTR) return 0;  // signal — recompute deadlines and re-wait
    throw SocketError("poll", errno);
  }
  cached_now_ms_ = wall_now_ms();
  if (n == 0) return 0;
  std::size_t dispatched = 0;
  // Iterate a stable index range: callbacks may flag pollfds_ dirty but
  // the vector itself is only rebuilt at the top of the next wait.
  for (std::size_t i = 0; i < pollfds_.size(); ++i) {
    const short revents = pollfds_[i].revents;
    const bool failed = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    if (dispatch_fd(pollfds_[i].fd, failed || (revents & POLLIN) != 0,
                    failed || (revents & POLLOUT) != 0)) {
      ++dispatched;
    }
  }
  if (dispatched) obs::counter("net.loop.fd_dispatches").inc(static_cast<double>(dispatched));
  return dispatched;
}

bool EventLoop::dispatch_fd(int fd, bool readable, bool writable) {
  // Re-resolve before each callback: an earlier callback this round may
  // have dropped an interest or unwatched (and closed) the fd. Invoke a
  // copy so a callback that drops its *own* interest does not destroy the
  // closure mid-execution.
  bool ran = false;
  if (readable) {
    const auto it = watchers_.find(fd);
    if (it != watchers_.end() && it->second.on_read) {
      FdCallback cb = it->second.on_read;
      cb();
      ran = true;
    }
  }
  if (writable) {
    const auto it = watchers_.find(fd);
    if (it != watchers_.end() && it->second.on_write) {
      FdCallback cb = it->second.on_write;
      cb();
      ran = true;
    }
  }
  return ran;
}

std::size_t EventLoop::run_once(Millis max_wait_ms) {
  ensure_anchor();
  cached_now_ms_ = wall_now_ms();
  const std::size_t fired = wheel_.advance(cached_now_ms_);
  if (fired) obs::counter("net.loop.timer_fires").inc(static_cast<double>(fired));
  drain_posted();
  Millis wait = max_wait_ms;
  if (const auto next = wheel_.next_deadline_ms(wall_now_ms())) {
    wait = std::min(wait, *next);
  }
  const int timeout_ms = wait <= 0.0 ? 0 : static_cast<int>(std::ceil(wait));
  const std::size_t dispatched = wait_and_dispatch(timeout_ms);
  drain_posted();
  return dispatched;
}

void EventLoop::run() {
  ensure_anchor();
  stop_requested_ = false;
  while (!stop_requested_) {
    cached_now_ms_ = wall_now_ms();
    const std::size_t fired = wheel_.advance(cached_now_ms_);
    if (fired) obs::counter("net.loop.timer_fires").inc(static_cast<double>(fired));
    drain_posted();
    if (stop_requested_) break;
    // Sleep exactly until the wheel's next deadline (or forever on a
    // timer-less loop — readiness is then the only wake source).
    int timeout_ms = -1;
    if (const auto next = wheel_.next_deadline_ms(wall_now_ms())) {
      timeout_ms = *next <= 0.0 ? 0 : static_cast<int>(std::ceil(*next));
    }
    wait_and_dispatch(timeout_ms);
    drain_posted();
  }
}

}  // namespace cwc::net
