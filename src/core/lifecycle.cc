#include "core/lifecycle.h"

#include <utility>
#include <vector>

#include "common/log.h"
#include "obs/trace.h"

namespace cwc::core {

namespace {

void emit(obs::TraceEventType type, Millis now, double value, PhoneId phone,
          const Attempt& attempt, std::uint8_t flags) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent event;
  event.type = type;
  event.flags = flags;
  event.t = now;
  event.value = value;
  event.job = attempt.job;
  event.piece = attempt.identity.piece;
  event.attempt = attempt.identity.attempt;
  event.instant = attempt.identity.instant;
  event.phone = phone;
  obs::trace_record(event);
}

}  // namespace

PieceLifecycle::PieceLifecycle(CwcController& controller, SpeculationOptions options,
                               Hooks hooks)
    : controller_(controller),
      options_(options),
      hooks_(std::move(hooks)),
      // Resolved once, which also pre-registers them: they export
      // zero-valued when speculation is off (the telemetry smoke check
      // asserts their presence).
      launched_(obs::counter("spec.launched")),
      wins_primary_(obs::counter("spec.wins_primary")),
      wins_backup_(obs::counter("spec.wins_backup")),
      cancels_sent_(obs::counter("spec.cancels_sent")),
      duplicate_completions_(obs::counter("spec.duplicate_completions")),
      aborted_(obs::counter("spec.aborted")) {}

const Attempt* PieceLifecycle::running(PhoneId phone) const {
  const auto it = phones_.find(phone);
  return it != phones_.end() && it->second.running ? &it->second.attempt : nullptr;
}

bool PieceLifecycle::any_running() const {
  for (const auto& [id, state] : phones_) {
    if (state.running) return true;
  }
  return false;
}

Millis PieceLifecycle::predict(PhoneId phone, JobId job, Kilobytes input_kb,
                               bool ships_executable) const {
  const JobSpec& spec = controller_.job(job);
  const PhoneSpec& device = controller_.phone(phone);
  return completion_time(spec, device, controller_.prediction().predict(spec.task_name, device),
                         input_kb, ships_executable);
}

void PieceLifecycle::start(PhoneId phone, const CwcController::Work& work, Millis now,
                           bool rescheduled) {
  PhoneState& state = phones_[phone];
  state.attempt = Attempt{};
  state.attempt.job = work.piece.job;
  state.attempt.identity = work.identity;
  state.attempt.input_kb = work.piece.input_kb;
  state.attempt.started_ms = now;
  // Straggler detection compares elapsed time against what the *visible*
  // model promised for this phone.
  state.attempt.predicted_ms =
      predict(phone, work.piece.job, work.piece.input_kb, !work.executable_cached);
  state.attempt.rescheduled = rescheduled;
  state.running = true;
  controller_.set_in_flight(phone, true);
}

void PieceLifecycle::unpair(Attempt& attempt) {
  if (attempt.is_backup()) {
    phones_.at(attempt.primary).attempt.backup = kInvalidPhone;
    attempt.primary = kInvalidPhone;
  } else if (attempt.backup != kInvalidPhone) {
    phones_.at(attempt.backup).attempt.primary = kInvalidPhone;
    attempt.backup = kInvalidPhone;
  }
}

void PieceLifecycle::cancel(PhoneId phone, Millis now) {
  PhoneState& state = phones_.at(phone);
  // The hook sees the attempt as it ran (still paired), so the substrate
  // can tell a cancelled backup, which is free to take new work now, from
  // a cancelled primary, whose queue front is popped by the caller.
  const Attempt attempt = state.attempt;
  unpair(state.attempt);
  state.running = false;
  state.cancelled = attempt.identity;
  emit(obs::TraceEventType::kPieceCancelled, now, 0.0, phone, attempt,
       attempt.rescheduled ? obs::TraceEvent::kRescheduledWork : obs::TraceEvent::kNone);
  cancels_sent_.inc();
  hooks_.cancel(phone, attempt);
}

PhoneId PieceLifecycle::complete(PhoneId phone, Millis now, Millis local_exec_ms) {
  PhoneState& state = phones_.at(phone);
  state.running = false;
  const PhoneId primary = state.attempt.primary;
  const PhoneId backup = state.attempt.backup;
  PhoneId owner = phone;
  if (primary != kInvalidPhone) {
    // The backup won: the piece lives on the primary's queue, and the
    // primary (unless it already went silent) is cancelled.
    owner = primary;
    if (phones_.at(primary).running) {
      cancel(primary, now);
    } else {
      unpair(state.attempt);
    }
    ++stats_.wins_backup;
    wins_backup_.inc();
    log_info("lifecycle") << "backup on phone " << phone << " won piece "
                          << state.attempt.identity.piece << " from phone " << primary;
  } else if (backup != kInvalidPhone) {
    cancel(backup, now);
    wins_primary_.inc();
  }
  // The queue pop is attributed to the owner; the measurement credits
  // whoever actually executed the piece.
  controller_.on_piece_complete(owner, local_exec_ms, phone);
  return owner;
}

bool PieceLifecycle::fail(PhoneId phone, Millis now) {
  const bool backup = phones_.at(phone).attempt.is_backup();
  abandon(phone, now);
  if (backup) {
    // A backup holds no queue entry (on_piece_failed would pop a piece it
    // never owned): the original keeps running, the phone goes unplugged.
    controller_.health().on_online_failure(phone);
    controller_.set_plugged(phone, false);
  }
  return !backup;
}

void PieceLifecycle::halt(PhoneId phone) {
  PhoneState& state = phones_.at(phone);
  state.running = false;
  if (state.attempt.is_backup()) {
    unpair(state.attempt);
    aborted_.inc();
  }
}

void PieceLifecycle::abandon(PhoneId phone, Millis now) {
  const auto it = phones_.find(phone);
  if (it == phones_.end()) return;
  PhoneState& state = it->second;
  state.running = false;
  if (state.attempt.is_backup()) {
    unpair(state.attempt);
    aborted_.inc();
  } else if (state.attempt.backup != kInvalidPhone) {
    // The failure path requeues the piece as a new attempt (or banks the
    // reported prefix), so the backup's racing result must never land.
    aborted_.inc();
    cancel(state.attempt.backup, now);
  }
}

void PieceLifecycle::note_stale_completion(PhoneId phone, std::int32_t piece,
                                           std::int32_t attempt) {
  const auto it = phones_.find(phone);
  if (piece < 0 || it == phones_.end()) return;
  const PieceIdentity& cancelled = it->second.cancelled;
  if (cancelled.piece == piece && cancelled.attempt == attempt) {
    ++stats_.duplicates;
    duplicate_completions_.inc();
  }
}

void PieceLifecycle::speculate(Millis now, double done_fraction) {
  if (!options_.enabled) return;
  std::vector<InFlightPiece> in_flight;
  for (const auto& [id, state] : phones_) {
    if (!state.running || state.attempt.is_backup()) continue;
    InFlightPiece piece;
    piece.phone = id;
    piece.piece = state.attempt.identity.piece;
    piece.attempt = state.attempt.identity.attempt;
    piece.elapsed_ms = now - state.attempt.started_ms;
    piece.predicted_ms = state.attempt.predicted_ms;
    piece.breakable = controller_.job(state.attempt.job).kind == JobKind::kBreakable;
    piece.has_backup = state.attempt.backup != kInvalidPhone;
    in_flight.push_back(piece);
  }
  if (in_flight.empty()) return;

  // Backup candidates, in phone-id order: reachable, idle, plugged,
  // queue-empty and fully healthy.
  std::vector<PhoneId> idle;
  for (const PhoneSpec& spec : controller_.plugged_phones()) {
    if (running(spec.id) || !hooks_.can_host_backup(spec.id)) continue;
    if (controller_.health().state(spec.id) != HealthState::kHealthy) continue;
    if (controller_.current_work(spec.id)) continue;
    idle.push_back(spec.id);
  }

  const auto decisions = pieces_to_speculate(options_, done_fraction, in_flight, idle.size());
  std::size_t next_idle = 0;
  for (const SpeculationDecision& decision : decisions) {
    if (next_idle >= idle.size()) break;
    const PhoneId primary = in_flight[decision.index].phone;
    const PhoneId backup = idle[next_idle++];
    PhoneState& owner = phones_.at(primary);
    if (!hooks_.ship_backup(backup, primary, owner.attempt)) continue;
    // The backup re-executes the primary's exact work from scratch under
    // the same (piece, attempt) identity, so either report settles it.
    PhoneState& state = phones_[backup];
    state.attempt = owner.attempt;
    state.attempt.started_ms = now;
    state.attempt.predicted_ms =
        predict(backup, owner.attempt.job, owner.attempt.input_kb,
                !controller_.executable_cached(backup, owner.attempt.job));
    state.attempt.primary = primary;
    state.running = true;
    owner.attempt.backup = backup;
    ++stats_.launched;
    launched_.inc();
    emit(obs::TraceEventType::kSpeculativeLaunch, now, decision.expected_remaining, backup,
         owner.attempt, obs::TraceEvent::kNone);
    log_info("lifecycle") << "speculative backup of piece " << owner.attempt.identity.piece
                          << " (phone " << primary << ", expected remaining "
                          << decision.expected_remaining << " ms) launched on phone "
                          << backup;
  }
}

}  // namespace cwc::core
