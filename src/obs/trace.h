// Causal runtime event tracing for the CWC stack.
//
// NOTE ON NAMING: this is the *runtime event* trace (what happened when, in
// the spirit of Chrome's trace-event/Perfetto model) — not to be confused
// with `src/charging/`, which models charging/availability *input* traces (the
// paper's Section 3 user-study logs). See DESIGN.md §"Event tracing".
//
// The PR-1 metrics layer exports aggregates — 14 pieces rescheduled, mean
// prediction error 3% — but cannot answer *which* piece bounced across
// *which* phones, or why the tail phone straggled. This module records the
// full causal story: every piece-lifecycle transition (scheduled, shipped,
// started, completed, failed online/offline, rescheduled), every scheduling
// instant with its chosen capacity, keep-alive traffic, and throttler state
// changes — each stamped with monotonic time plus the causal IDs
// (job, piece, attempt, phone, scheduling-instant sequence) needed to
// reconstruct a piece's migration chain end to end, Dapper-style.
//
// Consumers: obs/trace_export.h renders Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing), obs/trace_analysis.h computes makespan
// breakdowns and migration chains, sim/timeline_svg.cc draws Fig. 12, and
// `tools/cwc_trace` is the CLI over all of it. One stream, many views.
//
// Cost model: recording is OFF by default. The disabled path is a single
// relaxed atomic load per emit site (gated <2% on the scheduler bench in
// tools/run_benches.sh). When enabled, events go into a lock-sharded,
// bounded ring (drop-oldest per shard) so tracing never allocates on the
// hot path after enable() and never grows without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace cwc::obs {

/// Event taxonomy. Piece-lifecycle events carry (job, piece, attempt,
/// phone); scheduling-instant events carry `instant` and the chosen
/// capacity in `value`; the rest are annotated in-line.
enum class TraceEventType : std::uint8_t {
  kPieceScheduled = 0,   ///< packer placed a piece on a phone (value = KB)
  kPieceShipped,         ///< executable+input transfer (span; value = KB)
  kPieceStarted,         ///< local execution (span; dur = exec time)
  kPieceProgress,        ///< mid-execution progress (value = fraction/KB)
  kPieceCompleted,       ///< completion report (value = local exec ms)
  kPieceFailedOnline,    ///< online unplug report (value = processed KB)
  kPieceFailedOffline,   ///< keep-alive loss detected (value = lost KB)
  kPieceRescheduled,     ///< remainder re-entered F_A (value = remaining KB)
  kInstantBegin,         ///< scheduling instant began (value = batch size)
  kInstantEnd,           ///< instant done (value = chosen capacity C, ms)
  kCapacityProbe,        ///< one bisection packing attempt (value = C
                         ///< probed; flags bit kProbeFeasible)
  kRiskInflated,         ///< failure-aware cost inflation (value = factor)
  kKeepAliveSent,        ///< server pinged a phone (value = seq)
  kKeepAliveMissed,      ///< keep-alive budget expired (value = misses)
  kThrottleState,        ///< MIMD throttler sleep change (value = sleep ms)
  kPhoneRegistered,      ///< phone joined the pool
  kPhoneReplugged,       ///< phone re-entered the pool after a failure
  kFaultInjected,        ///< fault point fired (value = fault point index)
  kRetryBackoff,         ///< reconnect/retry backoff sleep (value = delay ms)
  kQuarantine,           ///< phone entered quarantine (value = health score)
  kSpeculativeLaunch,    ///< backup attempt launched (phone = backup phone,
                         ///< value = expected remaining ms of the original)
  kPieceCancelled,       ///< losing attempt cancelled (phone = loser)
  kPodPacked,            ///< one pod finished packing at the chosen capacity
                         ///< (piece = pod index, value = pod makespan ms)
  kPodRebalance,         ///< cross-pod rebalance re-homed leftovers
                         ///< (piece = piece count, value = KB moved)
  kChunkCacheHit,        ///< chunk-cache hits on one assignment
                         ///< (value = KB served from the phone's cache)
  kChunkRefetch,         ///< CRC-mismatched / missing chunks re-fetched
                         ///< (value = KB re-shipped)
  kLinkPartition,        ///< link fault plane: a link direction went dark
                         ///< (phone = affected link, t = plane time)
  kLinkHeal,             ///< link fault plane: a dark link came back
  kSendStalled,          ///< an outbox held due bytes the kernel refused
                         ///< (value = ms until they drained, phone = peer)
};

/// Number of distinct TraceEventType values (for tables and validation).
inline constexpr std::size_t kTraceEventTypeCount =
    static_cast<std::size_t>(TraceEventType::kSendStalled) + 1;

/// Stable machine name of an event type ("piece_scheduled", ...).
const char* trace_event_name(TraceEventType type);
/// Inverse of trace_event_name; false when `name` is unknown.
bool trace_event_from_name(std::string_view name, TraceEventType& out);

/// One recorded event. Fields that do not apply stay at their defaults
/// (kInvalidJob / kInvalidPhone / -1), which exporters omit.
struct TraceEvent {
  enum Flags : std::uint8_t {
    kNone = 0,
    /// The work belongs to a job that failed earlier (Fig. 12c shading).
    kRescheduledWork = 1,
    /// kCapacityProbe only: the probed capacity packed feasibly.
    kProbeFeasible = 2,
  };

  TraceEventType type = TraceEventType::kPieceScheduled;
  std::uint8_t flags = kNone;
  Millis t = 0.0;      ///< event (or span-begin) time on the run clock
  Millis dur = 0.0;    ///< span duration; 0 = instantaneous event
  double value = 0.0;  ///< type-specific payload (see taxonomy above)
  JobId job = kInvalidJob;
  std::int32_t piece = -1;    ///< controller-assigned piece id
  std::int32_t attempt = -1;  ///< job failure count when the piece was cut
  PhoneId phone = kInvalidPhone;
  std::int64_t instant = -1;  ///< scheduling-instant sequence number
  std::uint64_t seq = 0;      ///< recorder-assigned global order stamp

  bool operator==(const TraceEvent&) const = default;
};

/// Lock-sharded, bounded, drop-oldest event recorder.
///
/// Shards are chosen round-robin (not by thread), so single-threaded
/// producers — the simulator, the server's poll loop — still use the whole
/// capacity. Each shard is an independent mutex + fixed ring; concurrent
/// emitters contend only 1/kShards of the time. `seq` stamps give a total
/// order across shards for snapshot().
class TraceRecorder {
 public:
  static constexpr std::size_t kShards = 8;
  /// Default bound: ~64k events (~4 MB once enabled). A paper-scale sim
  /// run records a few thousand.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  TraceRecorder();

  /// Allocates the rings and turns recording on. Calling enable() again
  /// with a different capacity reallocates (existing events are kept up to
  /// the new per-shard bound). Thread-safe.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Turns recording off (buffered events remain readable).
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event (assigns event.seq). No-op when disabled; when the
  /// target shard is full the oldest event in that shard is overwritten
  /// and the drop counter advances.
  void record(TraceEvent event);

  /// Current time on the run clock (see set_clock). Emit sites that do not
  /// carry their own notion of time stamp events with this.
  Millis now() const;
  /// Installs the run clock — the simulator points this at its event-queue
  /// clock, the live server at its loop clock, so trace timestamps live in
  /// the same timeline as the substrate that produced them. Pass nullptr
  /// to restore the default (wall-clock ms since process start).
  void set_clock(std::function<Millis()> clock);

  /// Watermark for "events from here on": pass to snapshot() to read only
  /// events recorded after this call.
  std::uint64_t watermark() const { return next_seq_.load(std::memory_order_relaxed); }

  /// All buffered events with seq >= since, sorted by (t, seq). Also
  /// publishes the trace.* counters (see below). Non-destructive.
  std::vector<TraceEvent> snapshot(std::uint64_t since = 0) const;

  /// Drops buffered events (capacity and enabled state are kept).
  void clear();

  std::uint64_t events_recorded() const { return recorded_.load(std::memory_order_relaxed); }
  std::uint64_t events_dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Folds the recorder's internal tallies into the obs registry counters
  /// `trace.events_recorded` / `trace.events_dropped` (incremental, so
  /// repeated calls are idempotent). snapshot() calls this; call directly
  /// before capturing metrics without taking a trace snapshot.
  void publish_metrics() const;

  /// The process-wide recorder all CWC instrumentation writes to.
  static TraceRecorder& global();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<TraceEvent> ring;  ///< fixed size once enabled
    std::size_t head = 0;          ///< next write slot
    std::size_t count = 0;         ///< valid events in the ring
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Shard shards_[kShards];

  mutable std::mutex clock_mutex_;
  std::function<Millis()> clock_;  ///< empty = default wall clock

  mutable std::mutex publish_mutex_;
  mutable std::uint64_t published_recorded_ = 0;
  mutable std::uint64_t published_dropped_ = 0;
};

/// The disabled-path check every emit site performs first. One relaxed
/// atomic load; the TraceEvent is only constructed when this is true.
inline bool trace_enabled() { return TraceRecorder::global().enabled(); }

/// Shorthand for the global recorder.
inline void trace_record(const TraceEvent& event) { TraceRecorder::global().record(event); }
inline Millis trace_now() { return TraceRecorder::global().now(); }

}  // namespace cwc::obs
