// Link-level network fault plane: seeded, *scheduled* degradation of the
// server<->phone links, complementing the point faults in common/fault.h.
//
// Where a FaultRule fires per hit at a fixed code site, a LinkRule describes
// a condition of the link itself over a time window: an asymmetric partition
// (server->phone dropped while phone->server flows, or vice versa), a slow
// link (token-bucket throughput cap plus added latency), a flap (periodic
// up/down cycling), or a burst-loss window (per-frame Bernoulli drops).
//
// One grammar drives both substrates:
//
//   spec  := rule (';' rule)*
//   rule  := 'link' ':' target ':' kind ('@' params)*
//   target:= 'phone=' <id> | '*'
//   kind  := 'partition' | 'slow' | 'flap' | 'burst'
//   params:= key '=' value (',' key '=' value)*
//
//   keys: t=<time>        window start, relative to arm() (default 0)
//         dur=<time>      window length (default: until disarm)
//         dir=to|from|both  direction: 'to' = server->phone (default both)
//         rate=<rate>     slow: throughput cap, e.g. 50kbps (KB/s)
//         latency=<time>  slow: added delay per frame
//         period=<time>   flap: cycle length (default 2s)
//         duty=<frac>     flap: fraction of each cycle the link is UP (0.5)
//         p=<prob>        burst: per-send drop probability (default 0.5)
//   time values accept 'ms', 's', 'min' suffixes (bare number = ms);
//   rates accept 'kbps'/'mbps' (bare number = KB/s).
//
//   e.g. "link:phone=3:partition@t=10s,dur=5s,dir=to;link:*:slow@rate=50kbps"
//
// The live stack consults the plane once per frame (TcpConnection::
// decide_send in src/net/socket.cc) using wall-clock ms since arm(): the
// server's outboxes turn the delay into a release time, blocking senders
// (agents) sleep it. The simulator integrates the same windows over
// virtual time in its transfer model (transfer_ms). Partition/flap state is
// a pure function of time, so both substrates agree exactly; burst decisions
// hash (seed, link, per-link counter) so they are reproducible per link
// regardless of thread interleaving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace cwc::fault {

enum class LinkFaultKind : std::uint8_t { kPartition, kSlow, kFlap, kBurst };

/// Direction of the affected traffic, named from the phone's perspective:
/// kToPhone covers server->phone sends, kFromPhone covers phone->server.
enum class LinkDirection : std::uint8_t { kBoth, kToPhone, kFromPhone };

struct LinkRule {
  PhoneId phone = kInvalidPhone;  ///< kInvalidPhone means '*' (every link)
  LinkFaultKind kind = LinkFaultKind::kPartition;
  LinkDirection dir = LinkDirection::kBoth;
  Millis start = 0.0;      ///< window start, ms since arm()
  Millis duration = -1.0;  ///< window length; < 0 = until disarm
  double rate_kbps = 0.0;  ///< slow: cap in KB/s (0 = uncapped)
  Millis latency_ms = 0.0; ///< slow: added per-send delay
  Millis period = 2000.0;  ///< flap: cycle length
  double duty = 0.5;       ///< flap: fraction of each cycle the link is UP
  double loss_p = 0.5;     ///< burst: per-send drop probability
};

/// Parses the spec grammar above. Throws std::invalid_argument with a
/// message prefixed "link spec:" on malformed input.
std::vector<LinkRule> parse_link_spec(const std::string& spec);

/// Canonical textual form of one rule; parse_link_spec round-trips it.
/// Soak artifacts persist schedules in this form next to their seed.
std::string to_string(const LinkRule& rule);

/// Instantaneous condition of one direction of one link.
struct LinkState {
  bool up = true;
  double rate_kbps = 0.0;  ///< 0 = uncapped
  Millis latency_ms = 0.0;
  double loss_p = 0.0;
};

class LinkFaultPlane {
 public:
  /// What the send path should do with one outgoing buffer.
  struct Decision {
    bool drop = false;      ///< partition or burst loss: the bytes vanish
    Millis delay_ms = 0.0;  ///< pacing + latency before the frame may leave
  };

  /// Telemetry callouts, fired under the plane lock from on_send().
  /// kPartitionStart/kHeal are edge-triggered per link direction; `value`
  /// carries the delay in ms for kPaced and the plane time for the edges.
  enum class LinkEvent : std::uint8_t {
    kPartitionDrop,
    kBurstDrop,
    kPaced,
    kPartitionStart,
    kHeal,
  };
  using Observer = std::function<void(LinkEvent, PhoneId, double value)>;

  struct Stats {
    std::uint64_t partition_drops = 0;
    std::uint64_t burst_drops = 0;
    std::uint64_t paced_sends = 0;
    double paced_ms = 0.0;
  };

  void add_rules(const std::vector<LinkRule>& rules);
  void add_rules(const std::string& spec) { add_rules(parse_link_spec(spec)); }

  /// Starts the live clock (t = 0 is now) and enables enforcement.
  void arm(std::uint64_t seed);
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Disarms and clears rules, stats, buckets, and edge state.
  void reset();

  /// Live send-path hook, asked once per frame: decides drop/pacing for
  /// `bytes` queued in the given direction now, consuming token-bucket
  /// credit. Frames queued while earlier ones still wait run the bucket
  /// into debt, so each delay covers the frames ahead of it. Returns a
  /// no-op decision when disarmed or no rule matches.
  Decision on_send(PhoneId phone, bool toward_phone, std::size_t bytes);

  /// Pure time-indexed link condition — no bucket or counter side effects.
  /// This is the function both substrates share.
  LinkState state_at(PhoneId phone, bool toward_phone, Millis t) const;

  /// First instant strictly after `t` at which state_at can change
  /// (window edge or flap phase edge), or +infinity.
  Millis next_change(PhoneId phone, bool toward_phone, Millis t) const;

  /// Sim transfer model: virtual ms needed to move `kb` toward `phone`
  /// starting at virtual time `t` on a link whose healthy cost is
  /// `base_ms_per_kb`. Integrates partitions (zero throughput), slow caps
  /// (rate floor), flaps, and burst windows (expected-throughput inflation
  /// by 1/(1-p)). Returns kNeverMs if the link never recovers.
  Millis transfer_ms(PhoneId phone, Millis t, Kilobytes kb, double base_ms_per_kb) const;

  /// Added latency of the first active slow rule at time t (sim applies it
  /// once per transfer; the live path applies it once per frame).
  Millis latency_at(PhoneId phone, bool toward_phone, Millis t) const;

  void set_observer(Observer observer);
  Stats stats() const;
  bool has_rules() const;

  /// Sentinel returned by transfer_ms for a permanently dead link: far
  /// beyond any sim max_time, so the piece simply never finishes.
  static constexpr Millis kNeverMs = 1e15;

  /// Process-wide instance consulted by socket.cc and the simulator.
  static LinkFaultPlane& global();

 private:
  struct Bucket {
    double tokens_kb = 0.0;
    Millis last_ms = -1.0;
  };
  using LinkKey = std::pair<PhoneId, bool>;  // (phone, toward_phone)

  Millis now_ms() const;
  bool rule_applies(const LinkRule& rule, PhoneId phone, bool toward_phone) const;

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::vector<LinkRule> rules_;
  std::uint64_t seed_ = 0;
  std::chrono::steady_clock::time_point arm_time_{};
  std::map<LinkKey, Bucket> buckets_;
  std::map<LinkKey, std::uint64_t> send_counters_;
  std::map<LinkKey, bool> last_up_;
  Stats stats_;
  Observer observer_;
};

/// One-load fast path for the send-side hook, mirroring fault::enabled().
inline bool link_enabled() { return LinkFaultPlane::global().armed(); }

}  // namespace cwc::fault
