#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/link_fault.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/timeline_svg.h"
#include "tasks/registry.h"

namespace cwc::sim {

namespace {

/// One transfer/execution span on a phone's track. The simulator emits
/// these instead of appending timeline records directly; SimResult's
/// timeline is reconstructed from the trace at the end of run().
void emit_span(obs::TraceEventType type, PhoneId phone, JobId job,
               const core::PieceIdentity& id, bool rescheduled, Millis start, Millis end,
               double value) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent event;
  event.type = type;
  event.t = start;
  event.dur = end - start;
  event.value = value;
  event.job = job;
  event.piece = id.piece;
  event.attempt = id.attempt;
  event.phone = phone;
  event.instant = id.instant;
  if (rescheduled) event.flags = obs::TraceEvent::kRescheduledWork;
  obs::trace_record(event);
}

/// Ship time for `kb` to `phone` starting at virtual time `now`: the plain
/// kb * b_i of the paper when the link fault plane is disarmed, otherwise
/// the plane's integral over its partition/slow/flap/burst windows — the
/// sim-side mirror of the enforcement socket.cc applies to live sends.
Millis link_transfer_ms(PhoneId phone, Millis now, Kilobytes kb, MsPerKb b) {
  return fault::LinkFaultPlane::global().transfer_ms(phone, now, kb, b);
}

/// Synthetic content address in the live (crc32 << 32) | size format: the
/// simulator has no payload bytes to hash, so the "crc" half is a mix of a
/// content key (what the bytes *are*) and the grid index. Identical
/// content keys yield identical ids across batches — the property the
/// repeat-campaign dedup rests on.
ChunkId synthetic_chunk_id(std::uint64_t content_key, std::uint64_t index,
                           std::uint64_t size) {
  std::uint64_t h = content_key ^ (index * 0x9E3779B97F4A7C15ull);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return (h << 32) | (size & 0xFFFFFFFFull);
}

/// All simulated executables of the same size share content, mirroring the
/// live server's constant-padding executable blobs.
constexpr std::uint64_t kExecContentKey = 0xE0ECE0ECE0ECE0ECull;

}  // namespace

TestbedSimulation::TestbedSimulation(std::unique_ptr<core::Scheduler> scheduler,
                                     core::PredictionModel prediction,
                                     std::vector<core::PhoneSpec> phones, SimOptions options,
                                     std::uint64_t seed)
    : controller_(std::move(scheduler), std::move(prediction), options.health),
      lifecycle_(controller_, options.speculation,
                 {[this](PhoneId id) { return runtime_.at(id).alive; },
                  [this](PhoneId backup, PhoneId primary, const core::Attempt& attempt) {
                    return ship_backup(backup, primary, attempt);
                  },
                  [this](PhoneId id, const core::Attempt& attempt) { on_cancelled(id, attempt); }}),
      options_(options),
      rng_(seed) {
  for (const core::PhoneSpec& phone : phones) {
    controller_.register_phone(phone);
    runtime_[phone.id].spec = phone;
  }
  // Pre-register the chunk-cache counters so they export zero-valued even
  // in runs without chunking (the repeat-leg smoke asserts them).
  obs::counter("cache.hit_kb");
  obs::counter("cache.miss_kb");
  obs::counter("cache.evicted_kb");
  chunks_ = &owned_chunks_;
  if (chunking_enabled()) attach_fleet();
  // Default ground truth: the built-in tasks' reference measurements.
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  for (const std::string& name : registry.names()) {
    ground_truth_[name] = {registry.require(name).reference_ms_per_kb(), 806.0};
  }
}

void TestbedSimulation::set_ground_truth(const std::string& task, MsPerKb c_sj,
                                         double reference_mhz) {
  ground_truth_[task] = {c_sj, reference_mhz};
}

MsPerKb TestbedSimulation::true_cost(const std::string& task,
                                     const core::PhoneSpec& phone) const {
  const auto& [c_sj, ref_mhz] = ground_truth_.at(task);
  return c_sj * ref_mhz / phone.cpu_mhz / phone.hidden_efficiency;
}

void TestbedSimulation::share_chunk_state(FleetChunkState* state) {
  chunks_ = state != nullptr ? state : &owned_chunks_;
  if (chunking_enabled()) attach_fleet();
}

void TestbedSimulation::attach_fleet() {
  const auto budget =
      static_cast<std::uint64_t>(options_.cache_mb * 1024.0 * 1024.0);
  for (const auto& [id, phone] : runtime_) {
    ChunkDirectory& dir = chunks_->directories[id];
    if (dir.budget() == 0) dir.set_budget(budget);
    if (options_.locality_aware) locality_.attach_directory(id, &dir);
  }
  if (options_.locality_aware) controller_.bind_locality(&locality_);
}

void TestbedSimulation::register_job_chunks(JobId id) {
  if (!chunking_enabled()) return;
  const core::JobSpec& job = controller_.job(id);
  const auto chunk_bytes = static_cast<std::uint64_t>(options_.chunk_kb * 1024.0);
  JobChunks jc;
  jc.input_bytes = static_cast<std::uint64_t>(job.input_kb * 1024.0);
  const auto exec_bytes = static_cast<std::uint64_t>(job.exec_kb * 1024.0);
  for (std::uint64_t off = 0; off < exec_bytes; off += chunk_bytes) {
    const std::uint64_t size = std::min(chunk_bytes, exec_bytes - off);
    jc.exec.push_back(synthetic_chunk_id(kExecContentKey, off / chunk_bytes, size));
  }
  // Input content key: task name + per-task occurrence. A re-submitted
  // identical workload replays the same (task, occurrence) sequence and
  // lands on the same ids (warm batches); two same-task jobs within one
  // batch carry distinct inputs and stay distinct.
  const std::uint64_t occurrence = task_occurrence_[job.task_name]++;
  const std::uint64_t content_key =
      (static_cast<std::uint64_t>(
           crc32({reinterpret_cast<const std::uint8_t*>(job.task_name.data()),
                  job.task_name.size()}))
       << 20) ^
      (occurrence * 0xD1B54A32D192ED03ull);
  for (std::uint64_t off = 0; off < jc.input_bytes; off += chunk_bytes) {
    const std::uint64_t size = std::min(chunk_bytes, jc.input_bytes - off);
    jc.input.push_back(synthetic_chunk_id(content_key, off / chunk_bytes, size));
  }
  if (options_.locality_aware) {
    std::vector<ChunkId> manifest = jc.exec;
    manifest.insert(manifest.end(), jc.input.begin(), jc.input.end());
    locality_.set_manifest(id, std::move(manifest));
  }
  job_chunks_[id] = std::move(jc);
}

TestbedSimulation::ShipAccount TestbedSimulation::chunked_ship(
    PhoneId phone, JobId job, bool ship_exec, std::uint64_t begin, std::uint64_t end,
    const core::PieceIdentity& identity) {
  ShipAccount acct;
  ChunkDirectory& dir = chunks_->directories.at(phone);
  const JobChunks& jc = job_chunks_.at(job);
  const auto account = [&](ChunkId id, Kilobytes& ship_bucket) {
    const Kilobytes kb = static_cast<double>(chunk_size_of(id)) / 1024.0;
    if (dir.contains(id)) {
      dir.touch(id);
      acct.hit_kb += kb;
    } else {
      const std::uint64_t evicted = dir.insert(id);
      if (evicted > 0) {
        obs::counter("cache.evicted_kb").inc(static_cast<double>(evicted) / 1024.0);
      }
      ship_bucket += kb;
    }
  };
  if (ship_exec) {
    for (ChunkId id : jc.exec) account(id, acct.exec_kb);
  }
  if (end > begin && !jc.input.empty()) {
    const auto chunk_bytes = static_cast<std::uint64_t>(options_.chunk_kb * 1024.0);
    const std::uint64_t first = begin / chunk_bytes;
    const std::uint64_t last =
        std::min<std::uint64_t>((end - 1) / chunk_bytes, jc.input.size() - 1);
    for (std::uint64_t k = first; k <= last; ++k) account(jc.input[k], acct.input_kb);
  }
  if (acct.hit_kb > 0.0) obs::counter("cache.hit_kb").inc(acct.hit_kb);
  const Kilobytes miss_kb = acct.exec_kb + acct.input_kb;
  if (miss_kb > 0.0) obs::counter("cache.miss_kb").inc(miss_kb);
  cache_hit_kb_total_ += acct.hit_kb;
  shipped_kb_total_ += miss_kb;
  if (acct.hit_kb > 0.0 && obs::trace_enabled()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kChunkCacheHit;
    event.t = events_.now();
    event.value = acct.hit_kb;
    event.job = job;
    event.piece = identity.piece;
    event.attempt = identity.attempt;
    event.instant = identity.instant;
    event.phone = phone;
    obs::trace_record(event);
  }
  return acct;
}

void TestbedSimulation::schedule_instant() {
  if (!controller_.has_pending_work()) return;
  if (controller_.plugged_phones().empty()) return;
  const core::Schedule schedule = controller_.reschedule();
  if (result_.scheduling_rounds == 0) {
    result_.first_schedule = schedule;
    result_.predicted_makespan = schedule.predicted_makespan;
  }
  ++result_.scheduling_rounds;
  // Sampled on the virtual clock so campaign series line up with the live
  // server's wall-clock samples metric-for-metric.
  if (sampler_) sampler_->sample_now(events_.now());
  log_info("sim") << "scheduling instant at " << to_seconds(events_.now())
                  << " s (round " << result_.scheduling_rounds << ")";
  for (const auto& [id, phone] : runtime_) start_next_piece(id);
}

void TestbedSimulation::start_next_piece(PhoneId phone_id) {
  PhoneRuntime& phone = runtime_.at(phone_id);
  if (!phone.alive || lifecycle_.running(phone_id)) return;
  const auto work = controller_.current_work(phone_id);
  if (!work) return;

  const core::JobSpec& job = controller_.job(work->piece.job);
  phone.claimed = {0, 0};
  if (chunking_enabled()) {
    // Claim this piece's byte range on the job's input grid: sequentially
    // from the per-job cursor, so an identical re-submission claims the
    // same ranges (atomic pieces always cover the whole input). The cursor
    // wraps when failures push re-shipped work past the input size — the
    // re-claimed range approximates, never exceeds, the real re-ship.
    const JobChunks& jc = job_chunks_.at(work->piece.job);
    if (job.kind == JobKind::kAtomic) {
      phone.claimed = {0, jc.input_bytes};
    } else if (jc.input_bytes > 0) {
      const auto bytes =
          static_cast<std::uint64_t>(work->piece.input_kb * 1024.0 + 0.5);
      std::uint64_t& cursor = claim_cursor_[work->piece.job];
      const std::uint64_t begin = cursor % jc.input_bytes;
      phone.claimed = {begin, std::min(jc.input_bytes, begin + bytes)};
      cursor = begin + bytes;
    }
  }
  dispatch(phone_id, job, work->piece.input_kb, !work->executable_cached, work->identity);
  lifecycle_.start(phone_id, *work, events_.now(),
                   ever_failed_jobs_.count(work->piece.job) > 0);
}

void TestbedSimulation::dispatch(PhoneId phone_id, const core::JobSpec& job, Kilobytes input_kb,
                                 bool ship_exec, const core::PieceIdentity& identity) {
  PhoneRuntime& phone = runtime_.at(phone_id);
  const Millis now = events_.now();
  Kilobytes ship_exec_kb = ship_exec ? job.exec_kb : 0.0;
  Kilobytes ship_input_kb = input_kb;
  if (chunking_enabled()) {
    const ShipAccount acct = chunked_ship(phone_id, job.id, ship_exec, phone.claimed.first,
                                          phone.claimed.second, identity);
    ship_exec_kb = acct.exec_kb;
    ship_input_kb = acct.input_kb;
  } else {
    shipped_kb_total_ += ship_exec_kb + ship_input_kb;
  }
  phone.shipped_kb = ship_input_kb;
  const Millis transfer = link_transfer_ms(phone_id, now, ship_exec_kb + ship_input_kb,
                                           phone.spec.b);
  // Ground-truth execution time: hidden efficiency plus lognormal noise.
  const double noise =
      options_.exec_noise_sd > 0.0 ? rng_.lognormal(0.0, options_.exec_noise_sd) : 1.0;
  const Millis execute = input_kb * true_cost(job.task_name, phone.spec) * noise;

  phone.transfer_start = now;
  phone.transfer_end = now + transfer;
  phone.execute_end = now + transfer + execute;
  const std::uint64_t epoch = phone.epoch;
  events_.schedule_at(phone.execute_end, [this, phone_id, epoch] {
    finish_piece(phone_id, epoch);
  });
}

void TestbedSimulation::finish_piece(PhoneId phone_id, std::uint64_t epoch) {
  PhoneRuntime& phone = runtime_.at(phone_id);
  if (!phone.alive || phone.epoch != epoch) return;  // stale event

  const core::Attempt& attempt = *lifecycle_.running(phone_id);
  const Millis now = events_.now();
  if (phone.transfer_end > phone.transfer_start) {
    // Span value = KB that actually crossed the link (chunk misses only),
    // matching the live server; cwc_trace's hit-rate column divides
    // kChunkCacheHit KB by (hit + shipped).
    emit_span(obs::TraceEventType::kPieceShipped, phone_id, attempt.job, attempt.identity,
              attempt.rescheduled, phone.transfer_start, phone.transfer_end, phone.shipped_kb);
  }
  emit_span(obs::TraceEventType::kPieceStarted, phone_id, attempt.job, attempt.identity,
            attempt.rescheduled, phone.transfer_end, now, now - phone.transfer_end);
  result_.makespan = std::max(result_.makespan, now);
  if (!attempt.rescheduled) {
    result_.original_makespan = std::max(result_.original_makespan, now);
  }

  obs::counter("sim.pieces_completed").inc();
  phone.busy_ms += now - phone.transfer_start;
  completed_kb_ += attempt.input_kb;
  const PhoneId owner = lifecycle_.complete(phone_id, now, now - phone.transfer_end);
  start_next_piece(phone_id);
  if (owner != phone_id) start_next_piece(owner);
  maybe_finish();
}

void TestbedSimulation::on_cancelled(PhoneId phone_id, const core::Attempt& attempt) {
  PhoneRuntime& phone = runtime_.at(phone_id);
  ++phone.epoch;  // invalidate the cancelled attempt's completion event
  phone.busy_ms += events_.now() - phone.transfer_start;
  // A freed backup takes its own work right away; a cancelled primary
  // restarts once the winner's completion has popped its queue front.
  if (attempt.is_backup() && phone.alive) start_next_piece(phone_id);
}

bool TestbedSimulation::ship_backup(PhoneId backup_id, PhoneId primary_id,
                                    const core::Attempt& attempt) {
  // The backup re-ships the primary's claimed range to its own cache.
  runtime_.at(backup_id).claimed = runtime_.at(primary_id).claimed;
  dispatch(backup_id, controller_.job(attempt.job), attempt.input_kb,
           !controller_.executable_cached(backup_id, attempt.job), attempt.identity);
  return true;
}

void TestbedSimulation::chain_speculation_check() {
  const double done_fraction = total_kb_ > 0.0 ? std::min(1.0, completed_kb_ / total_kb_) : 1.0;
  lifecycle_.speculate(events_.now(), done_fraction);
  if (result_.completed) return;
  const Millis period = options_.speculation_check_period > 0.0
                            ? options_.speculation_check_period
                            : options_.scheduling_period;
  if (events_.now() + period > options_.max_time) return;
  events_.schedule_in(period, [this] { chain_speculation_check(); });
}

void TestbedSimulation::apply_failure(const FailureEvent& event) {
  PhoneRuntime& phone = runtime_.at(event.phone);
  const Millis now = events_.now();

  switch (event.kind) {
    case FailureKind::kReplug: {
      // Covers both a phone that failed earlier and a late joiner whose
      // controller state was set unplugged before the run started. The
      // epoch bump cancels any pending offline-loss detection: the phone
      // reconnected before the keep-alive budget expired.
      if (!phone.alive) {
        // A primary that went offline restarts its piece from the queue;
        // a backup still racing it would double-complete the same piece.
        lifecycle_.abandon(event.phone, now);
        phone.alive = true;
        ++phone.epoch;
      }
      if (!controller_.is_plugged(event.phone)) {
        controller_.set_plugged(event.phone, true);
        obs::counter("sim.replugs").inc();
        log_info("sim") << "phone " << event.phone << " plugged in at " << to_seconds(now)
                        << " s";
      }
      // Restart the phone's own queue right away. Waiting for the next
      // scheduling instant is not enough: a replug inside the keep-alive
      // detection window cancels the loss requeue, so the phone's pieces
      // are still *assigned* (not pending) — schedule_instant skips its
      // has_pending_work-gated restart and the queue would sit forever.
      start_next_piece(event.phone);
      return;
    }
    case FailureKind::kUnplugOnline: {
      if (!phone.alive) return;
      obs::counter("sim.failures.online").inc();
      ++phone.epoch;  // invalidate the in-flight completion event
      phone.alive = false;
      const core::Attempt* running = lifecycle_.running(event.phone);
      if (!running) {
        controller_.set_plugged(event.phone, false);
        return;
      }
      const core::Attempt attempt = *running;  // fail() clears it
      phone.busy_ms += now - phone.transfer_start;
      if (!lifecycle_.fail(event.phone, now)) return;  // a backup: settled
      Kilobytes processed = 0.0;
      Millis local_ms = 0.0;
      if (now > phone.transfer_end) {
        const Millis exec_total = phone.execute_end - phone.transfer_end;
        const double fraction =
            exec_total > 0.0 ? std::min(1.0, (now - phone.transfer_end) / exec_total) : 1.0;
        processed = attempt.input_kb * fraction;
        local_ms = now - phone.transfer_end;
        emit_span(obs::TraceEventType::kPieceShipped, event.phone, attempt.job,
                  attempt.identity, attempt.rescheduled, phone.transfer_start,
                  phone.transfer_end, phone.shipped_kb);
        emit_span(obs::TraceEventType::kPieceStarted, event.phone, attempt.job,
                  attempt.identity, attempt.rescheduled, phone.transfer_end, now, local_ms);
      } else {
        // Failed mid-transfer: nothing processed, partial transfer shown.
        emit_span(obs::TraceEventType::kPieceShipped, event.phone, attempt.job,
                  attempt.identity, attempt.rescheduled, phone.transfer_start, now,
                  phone.shipped_kb);
      }
      // Fabricate the checkpoint blob for atomic jobs (the wire deployment
      // carries real task state; the simulator only needs its presence so
      // the controller resumes rather than restarts).
      std::vector<std::uint8_t> checkpoint;
      if (controller_.job(attempt.job).kind == JobKind::kAtomic && processed > 0.0) {
        checkpoint = {1};
      }
      ever_failed_jobs_.insert(attempt.job);
      completed_kb_ += processed;  // banked progress counts toward done fraction
      controller_.on_piece_failed(event.phone, processed, std::move(checkpoint), local_ms);
      return;
    }
    case FailureKind::kUnplugOffline: {
      if (!phone.alive) return;
      obs::counter("sim.failures.offline").inc();
      ++phone.epoch;
      phone.alive = false;
      // Record what the phone was doing when it vanished (nothing, when it
      // was idle between pieces).
      if (const core::Attempt* attempt = lifecycle_.running(event.phone)) {
        if (now > phone.transfer_start) {
          emit_span(obs::TraceEventType::kPieceShipped, event.phone, attempt->job,
                    attempt->identity, attempt->rescheduled, phone.transfer_start,
                    std::min(now, phone.transfer_end), phone.shipped_kb);
          if (now > phone.transfer_end) {
            emit_span(obs::TraceEventType::kPieceStarted, event.phone, attempt->job,
                      attempt->identity, attempt->rescheduled, phone.transfer_end, now,
                      now - phone.transfer_end);
          }
          phone.busy_ms += now - phone.transfer_start;
        }
        lifecycle_.halt(event.phone);
      }
      // The server notices only after the keep-alive budget expires — and
      // only if the phone has not replugged in the meantime (the epoch
      // guard: a replug bumps it, cancelling this detection).
      const Millis detection =
          options_.keepalive_period * static_cast<double>(options_.keepalive_misses);
      const PhoneId id = event.phone;
      const std::uint64_t epoch_at_failure = phone.epoch;
      events_.schedule_in(detection, [this, id, epoch_at_failure] {
        PhoneRuntime& lost = runtime_.at(id);
        if (lost.alive || lost.epoch != epoch_at_failure) return;  // it came back
        // A backup racing the lost original may already have won in the
        // detection window; if not, requeueing creates a fresh attempt and
        // the stale one must not race it.
        lifecycle_.abandon(id, events_.now());
        // Everything the lost phone held becomes rescheduled work (the
        // shaded bars of Fig. 12c).
        obs::counter("sim.keepalive.misses").inc(static_cast<double>(options_.keepalive_misses));
        obs::counter("sim.failures.offline_detected").inc();
        if (obs::trace_enabled()) {
          obs::TraceEvent missed;
          missed.type = obs::TraceEventType::kKeepAliveMissed;
          missed.t = events_.now();
          missed.phone = id;
          missed.value = static_cast<double>(options_.keepalive_misses);
          obs::trace_record(missed);
        }
        for (JobId job : controller_.queued_jobs(id)) ever_failed_jobs_.insert(job);
        controller_.on_phone_lost(id);
        log_info("sim") << "server detected loss of phone " << id << " at "
                        << to_seconds(events_.now()) << " s";
      });
      return;
    }
  }
}

void TestbedSimulation::maybe_finish() {
  // Completion = controller drained and every phone idle.
  if (!controller_.all_done() || lifecycle_.any_running()) return;
  result_.completed = true;
}

void TestbedSimulation::chain_instant() {
  schedule_instant();
  if (result_.completed || events_.now() + options_.scheduling_period > options_.max_time) {
    return;
  }
  events_.schedule_in(options_.scheduling_period, [this] { chain_instant(); });
}

SimResult TestbedSimulation::run() {
  result_ = SimResult{};

  // The timeline is reconstructed from the event trace, so the recorder is
  // always on during a simulated run; the watermark scopes the snapshot to
  // this run's events. The recorder's clock follows simulated time while
  // the run is in flight (and is restored even if an event handler throws,
  // so a destroyed simulation can never leave a dangling clock behind).
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  if (!recorder.enabled()) recorder.enable();
  result_.trace_begin = recorder.watermark();
  recorder.set_clock([this] { return events_.now(); });
  struct ClockGuard {
    ~ClockGuard() { obs::TraceRecorder::global().set_clock(nullptr); }
  } clock_guard;

  // Failure events are armed once; run() may be called again for a later
  // batch (the controller and clock persist), in which case only events
  // still in the future remain relevant.
  if (!failures_armed_) {
    failures_armed_ = true;
    for (const FailureEvent& event : failures_) {
      if (event.time >= events_.now()) {
        events_.schedule_at(event.time, [this, event] { apply_failure(event); });
      }
    }
  }
  // Scheduling instants: now, then one per period while work remains.
  events_.schedule_at(events_.now(), [this] { chain_instant(); });
  // Straggler checks run on their own cadence, offset one period past the
  // first instant so pieces have elapsed time to compare against.
  if (options_.speculation.enabled && !spec_check_armed_) {
    spec_check_armed_ = true;
    const Millis period = options_.speculation_check_period > 0.0
                              ? options_.speculation_check_period
                              : options_.scheduling_period;
    events_.schedule_in(period, [this] { chain_speculation_check(); });
  }

  while (!result_.completed && !events_.empty() && events_.now() <= options_.max_time) {
    events_.run_one();
  }
  maybe_finish();

  // The run's ad-hoc timeline records are gone: the Fig. 12 segments are a
  // *view* of the trace stream, computed once at the end of the run.
  result_.timeline = segments_from_trace(recorder.snapshot(result_.trace_begin));

  // End-of-run telemetry: fleet utilization (Fig. 12a's idle tails) and
  // how far the round-0 prediction landed from reality.
  result_.shipped_kb = shipped_kb_total_;
  result_.cache_hit_kb = cache_hit_kb_total_;
  obs::gauge("sim.shipped_kb").set(shipped_kb_total_);
  obs::gauge("sim.makespan_ms").set(result_.makespan);
  obs::gauge("sim.predicted_makespan_ms").set(result_.predicted_makespan);
  if (result_.predicted_makespan > 0.0) {
    obs::gauge("sim.makespan_rel_error")
        .set(std::abs(result_.makespan - result_.predicted_makespan) /
             result_.predicted_makespan);
  }
  for (const auto& [id, phone] : runtime_) {
    const std::string prefix = "sim.phone." + std::to_string(id);
    obs::gauge(prefix + ".busy_ms").set(phone.busy_ms);
    obs::gauge(prefix + ".utilization")
        .set(result_.makespan > 0.0 ? phone.busy_ms / result_.makespan : 0.0);
  }
  return result_;
}

}  // namespace cwc::sim
