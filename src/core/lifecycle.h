// PieceLifecycle — the piece-attempt state machine both substrates run.
//
// The controller decides what each phone should work on; this engine
// tracks what each phone is working on and settles the races speculation
// creates. It owns each phone's in-flight attempt (substrates ask
// running() instead of keeping a busy flag), pairs each backup with its
// primary, settles first-valid-completion arbitration, and decides what a
// failure cancels: losing a backup aborts only that backup; losing a
// primary aborts its speculation and cancels the backup, because the
// failure path requeues the piece as a new attempt.
//
// The engine is clock-free: every call takes `now` (live server: event-
// loop milliseconds; simulator: virtual time). What it cannot do itself —
// put a backup on a wire or into virtual time, stop a cancelled attempt —
// it asks of the substrate through Hooks. It is the only emitter of the
// spec.* counters and the speculative_launch / piece_cancelled trace
// events, so both substrates speculate, arbitrate and count identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>

#include "core/controller.h"
#include "core/speculation.h"
#include "obs/metrics.h"

namespace cwc::core {

/// One attempt at a piece on one phone.
struct Attempt {
  JobId job = kInvalidJob;
  PieceIdentity identity;
  Kilobytes input_kb = 0.0;
  Millis started_ms = 0.0;    ///< when the attempt was shipped
  Millis predicted_ms = 0.0;  ///< visible-model ship + execute estimate
  /// Trace shading only (Fig. 12c): the attempt re-runs work of a job that
  /// failed earlier. Copied onto the piece_cancelled event.
  bool rescheduled = false;
  PhoneId primary = kInvalidPhone;  ///< on a backup: the phone whose queue owns the piece
  PhoneId backup = kInvalidPhone;   ///< on a primary: the backup racing it
  bool is_backup() const { return primary != kInvalidPhone; }
};

class PieceLifecycle {
 public:
  /// What the engine asks of its substrate. Hooks may call back into the
  /// engine (a cancelled backup restarting its own queue, a failed launch
  /// dropping the phone); the engine finishes its own bookkeeping first.
  struct Hooks {
    /// Whether `phone` can take a backup now (connected and probed, or
    /// alive). The engine checks plugged, healthy, idle and queue-empty.
    std::function<bool(PhoneId phone)> can_host_backup;
    /// Ship a backup of `primary`'s attempt to `backup`. Returns false when
    /// the substrate could not deliver it (and has dropped the phone).
    std::function<bool(PhoneId backup, PhoneId primary, const Attempt& attempt)> ship_backup;
    /// Stop `attempt` on `phone`; the engine has already cleared it.
    std::function<void(PhoneId phone, const Attempt& attempt)> cancel;
  };

  struct Stats {
    std::size_t launched = 0;
    std::size_t wins_backup = 0;
    std::size_t duplicates = 0;
  };

  PieceLifecycle(CwcController& controller, SpeculationOptions options, Hooks hooks);

  /// The attempt `phone` is running, or nullptr when it is idle.
  const Attempt* running(PhoneId phone) const;
  bool any_running() const;

  /// The phone shipped `work` (its controller queue front) at `now`.
  void start(PhoneId phone, const CwcController::Work& work, Millis now, bool rescheduled);

  /// A valid completion report for the phone's attempt. Settles any
  /// speculation on the piece, pops the owner's queue and returns the
  /// owner (the phone itself, or the primary a winning backup served).
  PhoneId complete(PhoneId phone, Millis now, Millis local_exec_ms);

  /// A valid online-failure report. Returns true for a primary: the caller
  /// reports the processed prefix (controller on_piece_failed). A failing
  /// backup is settled here (aborted, health noted, phone unplugged).
  bool fail(PhoneId phone, Millis now);

  /// The phone stopped executing without a report (it went silent and the
  /// server has not noticed yet). A backup's speculation aborts now; a
  /// primary's backup keeps racing until abandon() or its own completion.
  void halt(PhoneId phone);

  /// The substrate gave up on the phone's attempt: keep-alive loss, a
  /// dropped connection, or a replug that restarts the attempt from the
  /// queue. A primary's backup is cancelled; a backup's speculation aborts.
  void abandon(PhoneId phone, Millis now);

  /// A completion report that matched no running attempt. Counts it as a
  /// duplicate when it is the late report of an attempt the engine
  /// cancelled on that phone.
  void note_stale_completion(PhoneId phone, std::int32_t piece, std::int32_t attempt);

  /// Straggler check: launches backups that pieces_to_speculate() asks for
  /// onto idle phones, in phone-id order.
  void speculate(Millis now, double done_fraction);

  const Stats& stats() const { return stats_; }

 private:
  struct PhoneState {
    Attempt attempt;
    bool running = false;
    PieceIdentity cancelled;  ///< last attempt cancelled here (duplicate detection)
  };

  /// Stops a running twin: unpairs it, emits its piece_cancelled event and
  /// hands it to the substrate's cancel hook.
  void cancel(PhoneId phone, Millis now);
  /// Breaks the pairing the attempt takes part in, on both sides.
  void unpair(Attempt& attempt);
  Millis predict(PhoneId phone, JobId job, Kilobytes input_kb, bool ships_executable) const;

  CwcController& controller_;
  SpeculationOptions options_;
  Hooks hooks_;
  /// Created on a phone's first attempt; ordered by id so speculation
  /// walks phones deterministically.
  std::map<PhoneId, PhoneState> phones_;
  Stats stats_;
  obs::Counter& launched_;
  obs::Counter& wins_primary_;
  obs::Counter& wins_backup_;
  obs::Counter& cancels_sent_;
  obs::Counter& duplicate_completions_;
  obs::Counter& aborted_;
};

}  // namespace cwc::core
