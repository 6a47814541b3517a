// Live telemetry exposition: a minimal single-threaded HTTP GET server.
//
// `cwc_server --obs-port=P` (and anything else that wants a live view)
// starts one of these; it serves the process-wide metrics registries:
//
//   GET /metrics        Prometheus text format: counters, gauges, latency
//                       histograms (as _bucket/_count/_sum plus quantile
//                       gauges). `phone.<id>.field` gauges render as
//                       cwc_phone_field{phone="<id>"} label series.
//   GET /metrics.json   The obs/snapshot.h JSON document, plus a
//                       "latency" section with per-histogram quantiles.
//   GET /healthz        "ok\n", 200 — liveness for scripts and cwc_top.
//
// Deliberately not a web framework: one request per connection
// (Connection: close), GET only, no TLS, no keep-alive. Two serving
// modes, pick one:
//   start()        — classic dedicated accept/serve thread.
//   attach(loop)   — the listener and every in-flight scrape become
//                    watchers on the caller's EventLoop; scrapes are
//                    served on the loop thread between fleet events, so
//                    a process needs no second thread at all. Responses
//                    leave through an outbox (net/outbox.h), so a scraper
//                    that reads slowly never blocks the loop.
// cwc_top and the CI smoke leg are the intended clients, not the open
// internet — bind it to loopback (the default) unless you know better.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/outbox.h"
#include "net/socket.h"
#include "net/timer_wheel.h"

namespace cwc::net {

/// Renders the global registries (obs::MetricsRegistry + obs::LatencyRegistry)
/// in Prometheus text exposition format. Metric names are sanitized
/// (dots/dashes -> underscores, "cwc_" prefix); per-phone gauges named
/// `phone.<id>.<field>` become `cwc_phone_<field>{phone="<id>"}` series so
/// one fleet-wide metric carries every phone's row.
std::string render_prometheus();

/// The /metrics.json document: the snapshot JSON with a "latency" object
/// appended ({"name": {"count": N, "p50": .., "p95": .., "p99": ..}}).
std::string render_metrics_json();

class ObsHttpServer {
 public:
  /// Binds immediately (throws SocketError on failure); port() is valid
  /// after construction even with port 0 (kernel-assigned).
  explicit ObsHttpServer(std::uint16_t port, bool loopback_only = true);
  ~ObsHttpServer();
  ObsHttpServer(const ObsHttpServer&) = delete;
  ObsHttpServer& operator=(const ObsHttpServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Starts the accept/serve thread. No-op if already running.
  void start();
  /// Stops and joins the thread; safe to call repeatedly (the destructor
  /// calls it too).
  void stop();

  /// Serves scrapes as watchers on `loop` instead of a thread. Must be
  /// called (and the loop run) from one thread; mutually exclusive with
  /// start(). The server must outlive the loop's run or detach() first.
  void attach(EventLoop& loop);
  /// Unregisters the listener, in-flight scrapes, and the sweep timer
  /// from the attached loop. No-op when not attached.
  void detach();

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight attached-mode scrape, keyed by fd while its request
  /// head trickles in and its response drains.
  struct Pending {
    TcpConnection conn;
    std::string request;
    Millis accepted_ms = 0.0;
    std::unique_ptr<Outbox> response;  ///< set once the request is in
  };

  void serve_loop();
  void handle_connection(TcpConnection conn);
  void accept_attached();
  void service_attached(int fd);
  /// Posted by a scrape's outbox: closes the scrape once its response is
  /// out or its write failed.
  void finish_attached(int fd);
  void close_attached(int fd);
  /// The whole HTTP response to `request` (empty when the request line is
  /// incomplete: nothing is sent). Counts the request as served.
  std::vector<std::uint8_t> respond(const std::string& request);

  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  EventLoop* loop_ = nullptr;
  TimerId sweep_timer_ = kInvalidTimer;
  std::unordered_map<int, Pending> pending_;
};

}  // namespace cwc::net
