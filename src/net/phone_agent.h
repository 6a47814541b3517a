// The phone-side CWC service, as a thread speaking the wire protocol over
// loopback TCP.
//
// This is the C++ stand-in for the paper's Android service: it registers
// with the central server (reporting its CPU clock), answers the
// iperf-style bandwidth probe, receives task assignments, loads the task
// program by name from its TaskRegistry (the reflection step), executes it
// incrementally, and reports completion — or, when "unplugged", suspends
// the task, checkpoints it, and reports an online failure so the server
// can migrate the remainder.
//
// Phone heterogeneity is emulated:
//   - CPU speed: execution is paced so that processing costs
//     `emulated_compute_ms_per_kb` per KB of input (wall-clock), matching
//     how a slower phone would behave;
//   - link bandwidth: received bytes are paced at `emulated_link_kbps`
//     before being acknowledged/processed, so bandwidth probes measure the
//     emulated rate and large inputs genuinely take longer to arrive.
//
// Failure injection: `unplug(offline)` flips the agent into failure mode
// at the next step boundary. Online failures report and stay connected
// (the phone is unplugged but reachable); offline failures go silent —
// keep-alives are ignored until the server declares the phone lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/chunk.h"
#include "common/types.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/latency_hist.h"
#include "tasks/registry.h"

namespace cwc::net {

struct PhoneAgentConfig {
  PhoneId id = kInvalidPhone;
  /// IPv4 address of the central server (loopback for local deployments).
  std::string server_host = "127.0.0.1";
  /// Reconnect attempts after the server drops the connection (e.g. the
  /// phone was declared lost while "unplugged" and later replugged).
  /// 0 disables reconnection; the thread then exits on disconnect.
  int max_reconnects = 0;
  /// Reconnect backoff: bounded exponential with jitter. The delay starts
  /// at `reconnect_backoff`, doubles per consecutive failed session, is
  /// capped at `reconnect_backoff_max`, and each sleep is scaled by a
  /// uniform factor in [1 - jitter, 1 + jitter] (drawn from a seeded Rng,
  /// so runs are reproducible). A session that reaches registration resets
  /// the delay to the base value.
  Millis reconnect_backoff = 250.0;
  Millis reconnect_backoff_max = 5000.0;
  double reconnect_jitter = 0.2;
  /// Seed for the jitter stream (0 = derive from the phone id).
  std::uint64_t backoff_seed = 0;
  /// Deadline for the registration-ack RPC (0 = wait forever). On expiry
  /// the session counts as failed and the reconnect loop takes over.
  Millis rpc_timeout = 0.0;
  double cpu_mhz = 1000.0;
  Kilobytes ram_kb = megabytes(1024.0);
  /// Declared locality zone reported at registration (see PhoneSpec::zone).
  std::int32_t zone = 0;
  /// Wall-clock pacing target for execution; 0 = run at host speed.
  MsPerKb emulated_compute_ms_per_kb = 0.0;
  /// Link emulation; 0 = loopback speed.
  double emulated_link_kbps = 0.0;
  /// Bytes processed per execution step (checkpoint granularity).
  std::size_t step_bytes = 16 * 1024;
  /// Fraction of wall-clock the CPU may be busy while executing (1.0 =
  /// unthrottled). Models the MIMD throttler's duty cycle: the battery
  /// module decides the fraction; the agent enforces it by sleeping
  /// (1/duty - 1) x the busy time after each step.
  double duty_cycle = 1.0;
  /// Byte budget of the content-addressed chunk cache (common/chunk.h),
  /// kept across jobs and reconnects. 0 disables the cache: the agent
  /// registers without a budget and the server ships everything whole.
  std::uint64_t cache_bytes = 0;
};

class PhoneAgent {
 public:
  PhoneAgent(std::uint16_t server_port, PhoneAgentConfig config,
             const tasks::TaskRegistry* registry);
  ~PhoneAgent();
  PhoneAgent(const PhoneAgent&) = delete;
  PhoneAgent& operator=(const PhoneAgent&) = delete;

  /// Connects and starts the agent thread.
  void start();
  /// Waits for the agent thread to exit (it exits on kShutdown or error).
  void join();
  /// Asks the agent loop to exit at its next stop-check without waiting.
  /// A reconnecting agent can miss the server's orderly kShutdown frame
  /// (the batch may finish while it is mid-backoff); callers that only
  /// care that the work is done should stop() before join() rather than
  /// wait out the full reconnect budget.
  void stop() { stop_.store(true); }

  /// Simulates the owner unplugging the phone. With `offline` the agent
  /// goes silent (keep-alive loss); otherwise it reports the failure.
  void unplug(bool offline = false) {
    offline_.store(offline);
    unplugged_.store(true);
  }
  /// Plugs the phone back in (it resumes answering; the server re-admits
  /// it at the next scheduling instant). If the server already declared
  /// the phone lost and closed its connection, the agent reconnects and
  /// re-registers — the live analog of the simulator's replug event.
  void replug() {
    unplugged_.store(false);
    offline_.store(false);
  }

  /// Changes the emulated link rate at runtime (0 = full speed) — models
  /// the bandwidth drift that makes the server's periodic re-probing
  /// necessary on cellular links.
  void set_emulated_link_kbps(double kbps) { link_kbps_.store(kbps); }
  double emulated_link_kbps() const { return link_kbps_.load(); }

  std::size_t pieces_completed() const { return pieces_completed_.load(); }
  std::size_t pieces_failed() const { return pieces_failed_.load(); }
  std::size_t reports_replayed() const { return reports_replayed_.load(); }
  std::size_t pieces_cancelled() const { return pieces_cancelled_.load(); }
  std::size_t chunk_refetches() const { return chunk_refetches_.load(); }
  bool finished() const { return finished_.load(); }

 private:
  void run();
  /// One connection lifetime; returns true when the agent should
  /// reconnect (connection lost while the phone is plugged in).
  bool session();
  void handle_probe(TcpConnection& conn, FrameDecoder& decoder, const ProbeRequestMsg& request);
  void handle_assignment(TcpConnection& conn, FrameDecoder& decoder,
                         AssignPieceMsg assignment);
  /// Re-assembles a chunked assignment's executable and input in place from
  /// the shipped payloads plus the local cache (every cached chunk is
  /// CRC-verified at lookup — the kChunkCache fault point corrupts entries
  /// right before it). Returns false after sending a ChunkRequest when
  /// chunks the server believed cached are missing or corrupt; the re-sent
  /// assignment then arrives as a fresh frame with them shipped.
  bool reconstruct_chunks(TcpConnection& conn, AssignPieceMsg& msg);
  /// Next frame for the main protocol loop: stashed frames first, then a
  /// stop-aware poll/recv loop. Returns nullopt on disconnect, stop, or —
  /// when `deadline_ms` > 0 — after that much wall-clock with no frame.
  std::optional<Blob> next_frame(TcpConnection& conn, FrameDecoder& decoder,
                                 Millis deadline_ms = 0.0);
  /// Answers any keep-alives waiting on the socket without blocking and
  /// stashes other frames for the main loop; the real Android service
  /// handles keep-alives concurrently with task execution.
  void service_keepalives(TcpConnection& conn, FrameDecoder& decoder);
  /// Sleeps `ms` in short slices, answering keep-alives between slices.
  void responsive_sleep(double ms, TcpConnection& conn, FrameDecoder& decoder);
  /// Sleeps to pace `bytes` through the emulated link (keep-alive aware).
  void pace_link(std::size_t bytes, TcpConnection& conn, FrameDecoder& decoder);
  /// True when a stashed CancelPiece matches the in-flight assignment (the
  /// server's speculation twin won); stale cancels are consumed and counted.
  bool cancel_requested(const AssignPieceMsg& assignment);
  /// Sends the keep-alive ack with the agent's telemetry block attached —
  /// the single choke point for all three ack sites (session loop, probe
  /// loop, service_keepalives), so shipped stats never drift between them.
  void ack_keepalive(TcpConnection& conn, std::uint64_t seq);
  /// Phone-local facts the server cannot observe, shipped on every ack.
  AgentStats current_stats() const;

  std::uint16_t port_;
  PhoneAgentConfig config_;
  const tasks::TaskRegistry* registry_;
  std::thread thread_;
  std::atomic<bool> unplugged_{false};
  std::atomic<bool> offline_{false};
  std::atomic<bool> stop_{false};
  std::atomic<double> link_kbps_{0.0};
  std::atomic<std::size_t> pieces_completed_{0};
  std::atomic<std::size_t> pieces_failed_{0};
  std::atomic<std::size_t> reports_replayed_{0};
  std::atomic<std::size_t> pieces_cancelled_{0};
  std::atomic<std::size_t> chunk_refetches_{0};
  std::atomic<bool> finished_{false};
  /// Content-addressed payload cache, owned by the agent thread but kept on
  /// the object so it survives reconnects (its manifest re-registers).
  ChunkCache chunk_cache_;
  /// Cumulative chunk bytes served locally vs. shipped, reported in the
  /// keep-alive stats block (the server's cache.* counters aggregate the
  /// fleet; these are this phone's share).
  std::atomic<double> cache_hit_kb_{0.0};
  std::atomic<double> cache_miss_kb_{0.0};
  /// Local piece-turnaround distribution (assignment decoded -> report
  /// sent); its p50/p95/p99 ship with every keep-alive ack.
  obs::LatencyHistogram exec_hist_;
  std::deque<Blob> stash_;  ///< frames set aside by service_keepalives
  Blob recv_buffer_ = Blob(kRecvBufferBytes);  ///< every recv of the agent thread
  bool session_registered_ = false;  ///< last session reached registration

  /// Bounded cache of completed (piece, attempt) -> report, so a
  /// re-delivered assignment (the server's retry after a lost frame or
  /// lost report) is answered idempotently from the cache instead of
  /// being executed — and banked — twice.
  struct CachedReport {
    Blob partial_result;
    Millis local_exec_ms = 0.0;
  };
  std::map<std::pair<std::int32_t, std::int32_t>, CachedReport> completed_cache_;
  std::deque<std::pair<std::int32_t, std::int32_t>> completed_order_;
  static constexpr std::size_t kCompletedCacheCap = 32;
  void cache_completion(std::int32_t piece, std::int32_t attempt, CachedReport report);
  /// Server-run nonce from the last registration ack. Piece ids restart
  /// with the server process, so the cache above is only valid within one
  /// epoch; session() flushes it when the acked epoch changes.
  std::uint64_t server_epoch_ = 0;
};

}  // namespace cwc::net
