// Deterministic fault injection for the live server<->agent path.
//
// The simulator can inject unplug failures at exact virtual times, but the
// real `src/net` stack — sockets, framing, the journal, keep-alives — had
// no equivalent: its failure handling was only ever exercised by tests
// calling PhoneAgent::unplug(). This module compiles *named fault points*
// into those layers so a seeded schedule can fire faults (drops, delays,
// connection resets, partial writes, corrupted bytes) at precise hit
// counts or Bernoulli rates, reproducibly.
//
// Usage at an instrumented site (the disabled path is one relaxed atomic
// load, same discipline as obs::trace_enabled()):
//
//   if (const fault::FaultAction a = fault::check(fault::FaultPoint::kSocketWrite)) {
//     if (a.kind == fault::FaultAction::Kind::kReset) throw SocketError("injected", ECONNRESET);
//     ...
//   }
//
// Arming (chaos harness, tests):
//
//   auto& injector = fault::FaultInjector::global();
//   injector.add_rules(fault::parse_fault_spec("socket_write:reset@p=0.02;"
//                                              "keepalive_send:drop@every=4"));
//   injector.arm(seed);
//
// Layering: this lives in cwc_common and depends on nothing above it, so
// every layer (core, net, tools) can host fault points. Telemetry is
// attached from above via set_observer() — see obs/fault_obs.h, which
// publishes fires as `fault.fired.*` counters and kFaultInjected trace
// events.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace cwc::fault {

/// Named fault points compiled into the stack. Names (for spec strings and
/// telemetry) come from fault_point_name().
enum class FaultPoint : std::uint8_t {
  kSocketConnect = 0,  ///< TcpConnection::connect_ipv4
  kSocketRead,         ///< TcpConnection::recv_into
  kSocketWrite,        ///< TcpConnection::send_all
  kFrameDecode,        ///< FrameDecoder::feed (corrupt = torn frame)
  kKeepAliveSend,      ///< CwcServer::send_keepalives, per ping
  kJournalAppend,      ///< Journal::append (partial = torn record)
  kAssignPiece,        ///< CwcServer::assign_next_piece, before the send
  kReportHandling,     ///< CwcServer::on_complete / on_failed, on entry
  kSchedulerPack,      ///< GreedyScheduler::pack_with_capacity, per probe
  kChunkCache,         ///< chunk-cache lookup (corrupt = bit-rotted entry)
};
inline constexpr std::size_t kFaultPointCount =
    static_cast<std::size_t>(FaultPoint::kChunkCache) + 1;

/// Stable machine name ("socket_write", ...).
const char* fault_point_name(FaultPoint point);
/// Inverse of fault_point_name; false when `name` is unknown.
bool fault_point_from_name(std::string_view name, FaultPoint& out);

/// What an armed fault point tells its site to do. The *site* interprets
/// the kind (a "drop" at kKeepAliveSend skips the ping; at kReportHandling
/// it discards the report), so one action vocabulary covers the stack.
struct FaultAction {
  enum class Kind : std::uint8_t {
    kNone = 0,
    kDrop,     ///< silently skip the operation
    kDelay,    ///< stall delay_ms, then proceed normally
    kReset,    ///< fail as a connection reset / IO error
    kPartial,  ///< perform only `fraction` of the write, then reset
    kCorrupt,  ///< flip a byte at `fraction` of the buffer, then proceed
  };
  Kind kind = Kind::kNone;
  double delay_ms = 0.0;   ///< kDelay only
  double fraction = 0.5;   ///< kPartial / kCorrupt position in [0, 1)

  explicit operator bool() const { return kind != Kind::kNone; }
};

/// One trigger: fire `action` at `point` on explicit hit indices, every
/// Nth hit, or per-hit with `probability` (exactly one trigger mode; a
/// rule with none fires on every hit). `max_fires` bounds total fires.
struct FaultRule {
  FaultPoint point = FaultPoint::kSocketConnect;
  FaultAction action;
  double probability = 0.0;          ///< Bernoulli per hit when > 0
  std::vector<std::uint64_t> hits;   ///< explicit 1-based hit indices
  std::uint64_t every = 0;           ///< fire when hit % every == 0
  std::uint64_t max_fires = UINT64_MAX;
};

/// Parses a fault schedule spec. Grammar (';'-separated rules):
///
///   rule    := point ':' action ('@' trigger)*
///   action  := 'drop' | 'reset' | 'corrupt' | 'partial' | 'delay(' ms ')'
///   trigger := 'p=' probability | 'n=' idx[,idx...] | 'every=' N | 'limit=' N
///
/// e.g. "socket_write:reset@p=0.02;keepalive_send:drop@every=4@limit=6;
///       socket_connect:drop@n=1,3;journal_append:partial@n=2".
/// Throws std::invalid_argument with a position hint on malformed input.
std::vector<FaultRule> parse_fault_spec(const std::string& spec);

/// The process-wide injector. check() is thread-safe; the disarmed fast
/// path is a single relaxed atomic load (no lock, no allocation).
class FaultInjector {
 public:
  /// Installs rules (cumulative until reset()).
  void add_rule(FaultRule rule);
  void add_rules(const std::vector<FaultRule>& rules);

  /// Seeds the Bernoulli stream and turns checking on.
  void arm(std::uint64_t seed);
  /// Turns checking off (rules and counters are kept).
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Counts the hit and returns the action to apply (kNone-kinded when no
  /// rule fires). Callers go through fault::check() for the fast path.
  FaultAction check(FaultPoint point);

  /// Observer invoked on every fire (telemetry glue; keep it cheap and
  /// thread-safe — it runs under the injector lock).
  using Observer = std::function<void(FaultPoint, const FaultAction&)>;
  void set_observer(Observer observer);

  std::uint64_t hits(FaultPoint point) const;
  std::uint64_t fires(FaultPoint point) const;
  std::uint64_t total_fires() const;

  /// Disarms and clears rules, counters, and the observer.
  void reset();

  static FaultInjector& global();

 private:
  struct ArmedRule {
    FaultRule rule;
    std::uint64_t fired = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::vector<ArmedRule> rules_;
  Rng rng_{1};
  Observer observer_;
  std::uint64_t hit_counts_[kFaultPointCount] = {};
  std::uint64_t fire_counts_[kFaultPointCount] = {};
};

/// The disabled-path check every fault site performs first.
inline bool enabled() { return FaultInjector::global().armed(); }

/// Site-side shorthand: no-op (kNone) unless armed and a rule fires.
inline FaultAction check(FaultPoint point) {
  if (!enabled()) return {};
  return FaultInjector::global().check(point);
}

}  // namespace cwc::fault
