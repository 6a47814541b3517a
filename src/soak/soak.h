// Randomized, invariant-checked soak testing for the CWC stack.
//
// cwc_chaos replays one hand-written storm; the soak layer *generates*
// storms. A SoakSchedule is a seeded bundle of point-fault rules
// (common/fault.h grammar), link-fault rules (common/link_fault.h
// grammar), an optional mid-batch server kill, and phone churn. The same
// schedule drives both substrates:
//
//   - run_live(): a real CwcServer + in-process PhoneAgents over loopback,
//     chaos-harness style — fault-free reference first, then the storm,
//     byte-comparing every job result, then (kill_server) a journal
//     recovery leg;
//   - run_sim(): the discrete-event simulator with the link plane armed on
//     virtual time and churn injected as FailureEvents, run twice to prove
//     the storm replays bit-identically.
//
// Every run ends in a SoakVerdict naming the first violated invariant (or
// none). The invariant catalog and its process exit codes are shared with
// cwc_chaos so CI can tell *what* broke from the status alone:
//
//   0  all invariants held
//   10 kByteMismatch          a job result diverged from the fault-free
//                             reference (lost/duplicated banking)
//   11 kLostPiece             a run failed to complete: work was lost or
//                             never re-delivered within the deadline
//   12 kNonConvergence        journal replay (live) or same-seed re-run
//                             (sim) did not converge to the same results
//   13 kQuarantineStarvation  the run stalled with the whole fleet
//                             quarantined — parole/probe liveness is broken
//   14 kMakespanExceeded      the run completed but blew the makespan
//                             envelope relative to the fault-free reference
//   15 kHealthyPeerLost       live, under a schedule whose rules all target
//                             specific phones (link rules only, no '*', no
//                             kill, no churn): a phone no rule names was
//                             declared lost — a slow peer cost a healthy
//                             peer its liveness
//
// When a schedule fails, shrink() bisects its event list ddmin-style —
// re-running the schedule with chunks of events removed and keeping any
// smaller schedule that still trips the *same* invariant — until it is
// 1-minimal (removing any single event makes the failure vanish). The
// minimized schedule round-trips through to_text()/parse() so a CI
// artifact is a complete reproducer: seed, events, kill/churn knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"

namespace cwc::soak {

/// The machine-checked invariant catalog (see file comment for the
/// failure semantics and exit-code table).
enum class Invariant : std::uint8_t {
  kNone = 0,
  kByteMismatch,
  kLostPiece,
  kNonConvergence,
  kQuarantineStarvation,
  kMakespanExceeded,
  kHealthyPeerLost,
};

/// Stable machine name ("byte_mismatch", ...), for artifacts and logs.
const char* invariant_name(Invariant invariant);

/// Process exit code for a verdict: 0, or 10..15 per the catalog above.
constexpr int exit_code(Invariant invariant) {
  switch (invariant) {
    case Invariant::kNone: return 0;
    case Invariant::kByteMismatch: return 10;
    case Invariant::kLostPiece: return 11;
    case Invariant::kNonConvergence: return 12;
    case Invariant::kQuarantineStarvation: return 13;
    case Invariant::kMakespanExceeded: return 14;
    case Invariant::kHealthyPeerLost: return 15;
  }
  return 1;
}

/// One seeded fault + churn schedule. `events` holds rule strings in
/// either grammar — entries starting with "link:" parse as link rules
/// (common/link_fault.h), everything else as point-fault rules
/// (common/fault.h). Keeping them as strings makes the schedule trivially
/// shrinkable (drop entries) and artifact-serializable (one per line).
struct SoakSchedule {
  std::uint64_t seed = 0;            ///< arms injector, link plane, churn
  std::vector<std::string> events;   ///< point-fault and link rules
  bool kill_server = false;          ///< live: add the journal-recovery leg
  int churn = 0;                     ///< sim: unplug/replug cycles

  /// ';'-joined non-link events (fault::parse_fault_spec input).
  std::string point_spec() const;
  /// ';'-joined "link:" events (fault::parse_link_spec input).
  std::string link_spec() const;
  /// The phones the rules name when every rule targets a specific phone:
  /// link rules only, none on '*', no server kill and no churn. Every
  /// other phone is then healthy (kHealthyPeerLost). nullopt otherwise.
  std::optional<std::set<PhoneId>> named_phones() const;

  /// Line-oriented artifact form (seed=, kill_server=, churn=, event=
  /// lines; '#' comments ignored on parse). parse(to_text()) == *this.
  std::string to_text() const;
  static SoakSchedule parse(const std::string& text);
};

/// Bounds for generate_schedule(). Every generated rule is bounded (fault
/// rules carry @limit=/@n=, link windows carry dur=) so the tail of each
/// run is fault-free and completion stays reachable.
struct SoakProfile {
  int max_point_rules = 3;
  int max_link_rules = 3;
  int phones = 4;            ///< link rules target phones 1..phones (or *)
  double horizon_s = 12.0;   ///< fault windows fall inside [0, horizon)
  bool allow_kill = true;    ///< schedule may set kill_server
  int max_churn = 2;
};

/// Deterministically expands a seed into a schedule: same (seed, profile)
/// always yields the same rule strings, in the same order.
SoakSchedule generate_schedule(std::uint64_t seed, const SoakProfile& profile = {});

struct SoakVerdict {
  Invariant violated = Invariant::kNone;
  std::string detail;  ///< human-readable: which job/leg/phone and how

  /// True when every invariant held.
  explicit operator bool() const { return violated == Invariant::kNone; }
};

/// Knobs shared by both runners. Defaults are sized for a PR-gate leg:
/// small jobs, few phones, tight deadline.
struct RunOptions {
  int phones = 4;
  double timeout_s = 60.0;   ///< live per-leg completion deadline
  /// Storm wall/makespan must stay within envelope * reference (with a
  /// 1 s floor on the live reference so micro-runs don't flake).
  double makespan_envelope = 10.0;
  /// Live jobs, cwc_chaos --jobs grammar ("NAME:KB" comma-separated).
  std::string jobs = "prime-count:96,word-count:error:64";
  /// Sim workload scale factor over core::paper_workload.
  double sim_scale = 0.02;
  /// Live cadences. A slow-uplink schedule interacts with both: report
  /// latency above assign_retry_ms provokes re-delivery + replay, and ack
  /// latency must stay below keepalive_period_ms or the phone reads as
  /// lost (acks of stale pings never reset the miss count).
  double keepalive_period_ms = 150.0;
  double assign_retry_ms = 400.0;
  /// TESTING ONLY: forwards net::ServerConfig::bank_stale_reports, the
  /// planted stale-ack regression the soak gate must catch (see
  /// tests/soak). Never enable outside a regression test.
  bool bank_stale_reports = false;
  bool verbose = false;
};

/// Live substrate: reference -> storm (byte-compared; under a schedule
/// that targets specific phones, no other phone may be lost) -> optional
/// journal recovery leg. Resets and disarms the global injector and link
/// plane on entry and exit.
SoakVerdict run_live(const SoakSchedule& schedule, const RunOptions& options = {});

/// Sim substrate: reference -> storm (makespan envelope) -> same-seed
/// replay (bit-identical makespan). Point rules do not apply (the
/// injector instruments the net stack); link rules and churn do.
SoakVerdict run_sim(const SoakSchedule& schedule, const RunOptions& options = {});

/// A soak run under a fixed harness: schedule in, verdict out. shrink()
/// is substrate-agnostic through this.
using RunFn = std::function<SoakVerdict(const SoakSchedule&)>;

struct ShrinkResult {
  SoakSchedule schedule;  ///< 1-minimal (or best found within the budget)
  int probes = 0;         ///< run() invocations spent
};

/// ddmin over `failing.events` (then kill_server, then churn): repeatedly
/// re-runs the schedule with event chunks removed and keeps any reduction
/// that still violates `target`. Stops at 1-minimality or after
/// `max_probes` runs. `failing` itself is not re-run; callers pass the
/// invariant they already observed.
ShrinkResult shrink(const SoakSchedule& failing, Invariant target, const RunFn& run,
                    int max_probes = 64);

/// Writes `dir`/soak-seed<seed>.repro: the minimized schedule in
/// to_text() form plus commented verdict metadata. Returns the path.
std::string write_artifact(const SoakSchedule& schedule, const SoakVerdict& verdict,
                           const std::string& dir);

}  // namespace cwc::soak
