#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/fault.h"
#include "common/log.h"
#include "obs/latency_hist.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cwc::net {

namespace {
using Clock = std::chrono::steady_clock;

/// First record boundary at or after `pos` (one past the '\n'), or `end`.
std::size_t snap_forward(const Blob& data, std::size_t pos, std::size_t end) {
  while (pos < end && data[pos] != '\n') ++pos;
  return pos < end ? pos + 1 : end;
}

/// All server sends flow through here so frame/byte counters stay exact.
/// Never throws: a failed write drops the connection after the round.
void send_frame(Outbox& outbox, Outbox::Payload payload, Millis extra_delay_ms = 0.0) {
  obs::counter("net.server.frames_sent").inc();
  obs::counter("net.server.bytes_sent").inc(static_cast<double>(payload->size()));
  outbox.send_frame(std::move(payload), extra_delay_ms);
}

void send_frame(Outbox& outbox, Blob payload) {
  send_frame(outbox, std::make_shared<const Blob>(std::move(payload)));
}
}  // namespace

CwcServer::CwcServer(std::unique_ptr<core::Scheduler> scheduler,
                     core::PredictionModel prediction, const tasks::TaskRegistry* registry,
                     ServerConfig config)
    : controller_(std::move(scheduler), std::move(prediction), config.health),
      lifecycle_(controller_, config.speculation,
                 {[this](PhoneId id) {
                    const Connection* c = find_connection(id);
                    return c != nullptr && c->ready && !c->probing;
                  },
                  [this](PhoneId backup, PhoneId primary, const core::Attempt& attempt) {
                    return ship_backup(backup, primary, attempt);
                  },
                  [this](PhoneId id, const core::Attempt& attempt) { cancel_attempt(id, attempt); }}),
      registry_(registry),
      config_(config),
      listener_(config.port, !config.bind_all_interfaces),
      executables_(config.chunk_bytes) {
  if (!registry_) throw std::invalid_argument("CwcServer: null registry");
  // The epoch must differ across process restarts (it invalidates agent
  // replay caches keyed by process-local piece ids), so it cannot come
  // from a fixed seed; it feeds no scheduling or result path, keeping
  // seeded runs reproducible.
  std::random_device entropy;
  epoch_ = (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy() ^
           static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
  if (epoch_ == 0) epoch_ = 1;  // 0 is reserved for "epoch unknown"
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<Journal>(config_.journal_path);
  }
  // Pre-register the traffic counters so even a run where no phone ever
  // connects (the snapshot most worth reading) exports them zero-valued.
  obs::counter("net.server.frames_sent");
  obs::counter("net.server.frames_received");
  obs::counter("net.server.bytes_sent");
  obs::counter("net.server.bytes_received");
  obs::counter("net.server.keepalives_sent");
  obs::counter("net.server.keepalive.misses");
  obs::counter("net.server.keepalive.stale_acks");
  obs::counter("net.server.keepalive.drops");
  obs::counter("net.server.phones_lost");
  obs::counter("net.server.stale_reports");
  obs::counter("net.server.assign_retries");
  obs::counter("net.server.corrupt_streams");
  obs::counter("net.server.duplicate_registrations");
  obs::counter("net.server.rpc_timeouts");
  obs::counter("net.server.journal_errors");
  obs::counter("net.send_stall_ms");
  // Content-addressed shipping counters, pre-registered so cache-less runs
  // (legacy agents, --chunk-kb 0) export them zero-valued too.
  obs::counter("cache.hit_kb");
  obs::counter("cache.miss_kb");
  obs::counter("cache.evicted_kb");
  obs::counter("cache.refetch_kb");
  // Live latency histograms (lock-free; see obs/latency_hist.h), created
  // up front so /metrics exposes them with zero counts from the first
  // scrape onward.
  obs::latency("server.keepalive_rtt_ms");
  obs::latency("server.assign_report_ms");
  obs::latency("server.journal_append_ms");
  // Fleet roll-up gauges, refreshed every keep-alive tick.
  obs::gauge("fleet.phones_connected");
  obs::gauge("fleet.phones_charging");
  obs::gauge("fleet.pieces_in_flight");
  obs::gauge("fleet.cache_bytes");
  obs::gauge("fleet.replay_depth");
  obs::gauge("fleet.cache_hit_kb");
  obs::gauge("fleet.cache_miss_kb");
  controller_.bind_locality(&locality_);
  listener_.set_nonblocking(true);
}

JobId CwcServer::submit(const std::string& task_name, Blob input) {
  const tasks::TaskFactory& factory = registry_->require(task_name);
  core::JobSpec spec;
  spec.task_name = task_name;
  spec.kind = factory.kind();
  spec.exec_kb = factory.executable_kb();
  spec.input_kb = static_cast<double>(input.size()) / 1024.0;
  const JobId id = controller_.submit(spec);

  JobState state;
  state.spec = controller_.job(id);
  state.input = std::move(input);
  state.executable =
      &executables_.of_size(static_cast<std::size_t>(state.spec.exec_kb * 1024.0));
  if (state.spec.kind == JobKind::kBreakable) {
    state.pending_ranges.push_back({0, state.input.size()});
  }
  if (config_.chunk_bytes > 0) {
    // Hash the input's grid once: assignments index into it instead of
    // re-hashing, and its ids plus the shared executable grid's form the
    // locality manifest the scheduler matches against per-phone directories.
    state.input_chunks = chunk_blob(state.input, config_.chunk_bytes);
    std::vector<ChunkId> manifest;
    manifest.reserve(state.executable->chunks.size() + state.input_chunks.size());
    for (const ChunkRef& ref : state.executable->chunks) manifest.push_back(ref.id);
    for (const ChunkRef& ref : state.input_chunks) manifest.push_back(ref.id);
    locality_.set_manifest(id, std::move(manifest));
  }
  if (journal_) {
    try {
      journal_->record_submit(id, task_name, state.input);
    } catch (const std::exception& e) {
      on_journal_error(e);
    }
  }
  jobs_[id] = std::move(state);
  ++jobs_outstanding_;
  return id;
}

void CwcServer::on_journal_error(const std::exception& error) {
  // A failed append may leave a torn record at the file tail; anything
  // appended after it would be unreachable to replay (which stops at the
  // first invalid record). Disable journaling for the rest of the run
  // rather than banking unrecoverable state — the batch itself proceeds.
  log_warn("cwc-server") << "journal write failed, disabling journaling: " << error.what();
  obs::counter("net.server.journal_errors").inc();
  journal_.reset();
}

std::map<JobId, JobId> CwcServer::recover_from(const std::string& journal_path) {
  const auto recovered = Journal::replay(journal_path);
  std::map<JobId, JobId> mapping;
  for (const auto& [old_id, job] : recovered) {
    const tasks::TaskFactory& factory = registry_->require(job.task_name);
    const bool atomic = factory.kind() == JobKind::kAtomic;

    if (job.done(atomic)) {
      // Already finished: install the result without involving the
      // scheduler at all. Synthetic negative ids keep these out of the
      // controller's id space.
      const JobId done_id = -1000 - old_id;
      JobState state;
      state.spec.id = done_id;
      state.spec.task_name = job.task_name;
      state.spec.kind = factory.kind();
      state.done = true;
      state.final_result = atomic ? *job.atomic_result : factory.aggregate(job.partials);
      jobs_[done_id] = std::move(state);
      mapping[old_id] = done_id;
      continue;
    }

    if (atomic) {
      // Atomic jobs redo from scratch (in-flight checkpoints are not
      // journaled; this matches offline-failure semantics).
      mapping[old_id] = submit(job.task_name, job.input);
      continue;
    }

    // Breakable remainder: ship only the unprocessed bytes, keep the
    // banked partial results for the final aggregation.
    Blob remainder;
    for (const auto& [begin, end] : job.remaining_ranges()) {
      remainder.insert(remainder.end(),
                       job.input.begin() + static_cast<std::ptrdiff_t>(begin),
                       job.input.begin() + static_cast<std::ptrdiff_t>(end));
    }
    const JobId id = submit(job.task_name, std::move(remainder));
    JobState& state = jobs_.at(id);
    state.partials = job.partials;
    // Re-journal the banked progress under the new id so a second crash
    // still recovers it (ranges refer to the new, remainder-only input —
    // nothing of it is covered yet, so bank the partials as zero-length
    // progress markers).
    if (journal_) {
      try {
        for (const Blob& partial : job.partials) {
          journal_->record_progress(id, {}, partial);
        }
      } catch (const std::exception& e) {
        on_journal_error(e);
      }
    }
    mapping[old_id] = id;
  }
  return mapping;
}

void CwcServer::accept_new_connections() {
  while (auto conn = listener_.accept()) {
    conn->set_nonblocking(true);
    auto connection = std::make_unique<Connection>(loop_, std::move(*conn),
                                                   [this] { drop_failed_connections(); });
    connection->connected_ms = now_ms_;
    // unique_ptr gives the Connection a stable address, so the watcher and
    // timer closures may capture it raw; teardown_connection unregisters
    // them all before the reap frees the object.
    Connection* raw = connection.get();
    loop_.watch_fd(raw->conn.fd(), [this, raw] {
      now_ms_ = loop_.now_ms();
      service_connection(*raw);
    });
    arm_registration_deadline(*raw);
    connections_.push_back(std::move(connection));
  }
}

void CwcServer::teardown_connection(Connection& c) {
  c.outbox.close();
  if (c.conn.valid()) loop_.unwatch_fd(c.conn.fd());
  cancel_assign_retry(c);
  if (c.rpc_timer != kInvalidTimer) {
    loop_.cancel(c.rpc_timer);
    c.rpc_timer = kInvalidTimer;
  }
  if (c.reprobe_timer != kInvalidTimer) {
    loop_.cancel(c.reprobe_timer);
    c.reprobe_timer = kInvalidTimer;
  }
  c.reprobe_due = false;
  c.conn.close();
  request_reap();
}

void CwcServer::request_reap() {
  // Erasure is deferred to a posted task so no callback ever frees a
  // Connection that other code in the same dispatch round still touches.
  if (reap_pending_) return;
  reap_pending_ = true;
  loop_.post([this] {
    reap_pending_ = false;
    std::erase_if(connections_,
                  [](const std::unique_ptr<Connection>& c) { return !c->conn.valid(); });
  });
}

void CwcServer::service_connection(Connection& c) {
  // Nothing a single misbehaving connection does may take down the loop:
  // socket errors and corrupted streams (oversized frame length, torn
  // framing) cost that connection only. The phone's in-flight work goes
  // back to the pool and the agent reconnects with backoff.
  try {
    // Readiness is level-triggered, so a read that leaves the buffer short
    // has taken what this round offers: only a full buffer reads again,
    // and no call is spent collecting EAGAIN.
    while (true) {
      const auto n = c.conn.recv_into(recv_buffer_);
      if (!n) break;  // would block: drained
      if (*n == 0) {
        drop_connection(c, /*lost=*/true);
        return;
      }
      obs::counter("net.server.bytes_received").inc(static_cast<double>(*n));
      c.decoder.feed({recv_buffer_.data(), *n});
      if (*n < recv_buffer_.size()) break;
    }
    while (c.conn.valid() && !c.outbox.failed()) {
      const auto frame = c.decoder.pop();
      if (!frame) break;
      handle_frame(c, *frame);
    }
  } catch (const SocketError& e) {
    log_warn("cwc-server") << "socket error on phone " << c.phone << ": " << e.what();
    drop_connection(c, /*lost=*/true);
  } catch (const std::runtime_error& e) {
    obs::counter("net.server.corrupt_streams").inc();
    log_warn("cwc-server") << "corrupted stream from phone " << c.phone << ": " << e.what();
    drop_connection(c, /*lost=*/true);
  }
}

void CwcServer::handle_frame(Connection& c, const Blob& frame) {
  obs::counter("net.server.frames_received").inc();
  switch (peek_type(frame)) {
    case MsgType::kRegister: {
      const RegisterMsg msg = decode_register(frame);
      // A reconnecting agent may race its own half-dead previous
      // connection (the server has not yet missed enough keep-alives to
      // notice). The new connection wins: retire the stale one first so
      // its in-flight piece returns to the pool before re-registration.
      for (auto& other : connections_) {
        if (other.get() != &c && other->conn.valid() && other->registered &&
            other->phone == msg.phone) {
          obs::counter("net.server.duplicate_registrations").inc();
          log_warn("cwc-server") << "phone " << msg.phone
                                 << " re-registered; dropping stale connection";
          drop_connection(*other, /*lost=*/true);
        }
      }
      core::PhoneSpec spec;
      spec.id = msg.phone;
      spec.cpu_mhz = msg.cpu_mhz;
      spec.ram_kb = msg.ram_kb;
      spec.zone = msg.zone;
      spec.b = 1.0;  // placeholder until the probe reports
      controller_.register_phone(spec);
      c.phone = msg.phone;
      c.registered = true;
      // Server sends flow toward the phone: link faults with dir=to apply
      // to this connection from registration onward.
      c.conn.bind_link(msg.phone, /*server_side=*/true);
      if (config_.chunk_bytes > 0 && msg.cache_budget_bytes > 0) {
        // Resync the directory mirror wholesale from the agent's advertised
        // manifest: whatever survived on the phone across the reconnect is
        // the truth, and its LRU order is replayed oldest-first.
        ChunkDirectory& dir = chunk_dirs_[msg.phone];
        dir.set_budget(msg.cache_budget_bytes);
        dir.seed(msg.cache_manifest);
        locality_.attach_directory(msg.phone, &dir);
      } else {
        // Legacy or cache-less agent: full shipping, no locality credit.
        locality_.detach_directory(msg.phone);
        chunk_dirs_.erase(msg.phone);
      }
      send_frame(c.outbox, encode(RegisterAckMsg{true, epoch_}));
      start_probe(c);
      break;
    }
    case MsgType::kProbeReport: {
      const ProbeReportMsg msg = decode_probe_report(frame);
      if (c.registered && msg.measured_kbps > 0.0) {
        controller_.update_bandwidth(c.phone, ms_per_kb_from_rate(msg.measured_kbps));
      }
      c.probing = false;
      c.ready = true;
      if (c.rpc_timer != kInvalidTimer) {
        loop_.cancel(c.rpc_timer);  // probe deadline met
        c.rpc_timer = kInvalidTimer;
      }
      if (config_.reprobe_period > 0.0) {
        Connection* raw = &c;
        c.reprobe_timer =
            loop_.schedule(config_.reprobe_period, [this, raw] { on_reprobe_due(*raw); });
      }
      log_info("cwc-server") << "phone " << c.phone << " ready, measured "
                             << msg.measured_kbps << " KB/s";
      // A ready-count transition: this phone may complete the expected
      // fleet (first-schedule gate) and can take work immediately.
      maybe_schedule();
      assign_next_piece(c);
      break;
    }
    case MsgType::kPieceComplete:
      on_complete(c, decode_piece_complete(frame));
      break;
    case MsgType::kPieceFailed:
      on_failed(c, decode_piece_failed(frame));
      break;
    case MsgType::kChunkRequest:
      on_chunk_request(c, decode_chunk_request(frame));
      break;
    case MsgType::kKeepAliveAck: {
      // Only an ack of the *latest* ping proves current liveness and
      // resets the consecutive-miss count. A stale ack (an earlier ping's
      // reply finally surfacing) does not: the phone may have been
      // unreachable since.
      const KeepAliveAckMsg msg = decode_keepalive_ack_stats(frame);
      if (msg.seq == c.keepalive_seq) {
        c.keepalive_acked = msg.seq;
        c.keepalive_missed = 0;
        const double rtt_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - c.keepalive_sent_at)
                                  .count();
        obs::latency("server.keepalive_rtt_ms").record(rtt_ms);
        obs::gauge("phone." + std::to_string(c.phone) + ".keepalive_rtt_ms").set(rtt_ms);
      } else {
        obs::counter("net.server.keepalive.stale_acks").inc();
      }
      // Stats ride every ack — stale or not, the phone-local facts they
      // carry are current as of the send.
      if (msg.has_stats) {
        c.has_stats = true;
        c.last_stats = msg.stats;
        publish_phone_gauges(c);
      }
      break;
    }
    default:
      log_warn("cwc-server") << "unexpected frame from phone " << c.phone;
  }
}

void CwcServer::start_probe(Connection& c) {
  ProbeRequestMsg request;
  request.chunks = config_.probe_chunks;
  request.chunk_bytes = config_.probe_chunk_bytes;
  send_frame(c.outbox, encode(request));
  const auto chunk = std::make_shared<const Blob>(encode_probe_data(request.chunk_bytes));
  for (std::uint32_t i = 0; i < request.chunks; ++i) send_frame(c.outbox, chunk);
  c.probing = true;
  c.last_probe_ms = now_ms_;
  c.reprobe_due = false;
  if (c.reprobe_timer != kInvalidTimer) {
    loop_.cancel(c.reprobe_timer);
    c.reprobe_timer = kInvalidTimer;
  }
  // The probe-report deadline replaces any pending registration deadline.
  if (config_.rpc_timeout > 0.0) {
    if (c.rpc_timer != kInvalidTimer) loop_.cancel(c.rpc_timer);
    Connection* raw = &c;
    c.rpc_timer = loop_.schedule(config_.rpc_timeout, [this, raw] { on_probe_deadline(*raw); });
  }
  ++probes_sent_;
  obs::counter("net.server.probes_sent").inc();
}

void CwcServer::arm_registration_deadline(Connection& c) {
  if (config_.rpc_timeout <= 0.0) return;
  Connection* raw = &c;
  c.rpc_timer =
      loop_.schedule(config_.rpc_timeout, [this, raw] { on_registration_deadline(*raw); });
}

void CwcServer::on_registration_deadline(Connection& c) {
  c.rpc_timer = kInvalidTimer;
  if (!c.conn.valid() || c.registered) return;
  now_ms_ = loop_.now_ms();
  obs::counter("net.server.rpc_timeouts").inc();
  log_warn("cwc-server") << "connection never registered within deadline; closing";
  drop_connection(c, /*lost=*/false);
}

void CwcServer::on_probe_deadline(Connection& c) {
  c.rpc_timer = kInvalidTimer;
  if (!c.conn.valid() || !c.probing) return;
  now_ms_ = loop_.now_ms();
  obs::counter("net.server.rpc_timeouts").inc();
  if (c.registered) controller_.health().on_deadline_hit(c.phone);
  log_warn("cwc-server") << "phone " << c.phone << " probe timed out; dropping";
  drop_connection(c, /*lost=*/true);
}

void CwcServer::on_reprobe_due(Connection& c) {
  c.reprobe_timer = kInvalidTimer;
  if (!c.conn.valid() || !c.registered) return;
  now_ms_ = loop_.now_ms();
  if (c.ready && !busy(c) && !c.probing) {
    start_probe(c);
  } else {
    // Busy at the deadline: probe at the next idle transition instead.
    c.reprobe_due = true;
  }
}

void CwcServer::maybe_reprobe(Connection& c) {
  if (!c.reprobe_due || !c.conn.valid() || !c.ready || busy(c) || c.probing) return;
  c.reprobe_due = false;
  start_probe(c);
}

CwcServer::Fragments CwcServer::carve_slice(JobState& job, Kilobytes kb) {
  Fragments fragments;
  auto target = static_cast<std::size_t>(kb * 1024.0);
  while (target > 0 && !job.pending_ranges.empty()) {
    auto [begin, end] = job.pending_ranges.front();
    job.pending_ranges.pop_front();
    std::size_t cut = end;
    if (begin + target < end) {
      cut = snap_forward(job.input, begin + target, end);
      // Absorb a tiny tail rather than leaving an unschedulable sliver.
      if (end - cut < 2048) cut = end;
    }
    if (cut < end) job.pending_ranges.push_front({cut, end});
    fragments.push_back({begin, cut});
    const std::size_t taken = cut - begin;
    target = taken >= target ? 0 : target - taken;
  }
  return fragments;
}

void CwcServer::assign_next_piece(Connection& c) {
  if (!c.ready || busy(c) || c.probing || !c.conn.valid()) return;
  if (!controller_.is_plugged(c.phone)) return;
  const auto work = controller_.current_work(c.phone);
  if (!work) return;

  auto job_it = jobs_.find(work->piece.job);
  if (job_it == jobs_.end()) throw std::logic_error("assignment for unknown job");
  JobState& job = job_it->second;

  const bool atomic = job.spec.kind == JobKind::kAtomic;
  Fragments whole_input;
  if (atomic) {
    // Atomic jobs ship whole; a resume checkpoint tells the phone where to
    // continue, and its offset tells us what "processed" means later.
    std::size_t resume_offset = 0;
    if (!work->checkpoint.empty()) {
      BufferReader r(work->checkpoint);
      resume_offset = static_cast<std::size_t>(r.read_u64());
    }
    c.piece_fragments = {{resume_offset, job.input.size()}};
    whole_input = {{0, job.input.size()}};
  } else {
    c.piece_fragments = carve_slice(job, work->piece.input_kb);
  }
  Assignment assignment = new_assignment(c, job, work->identity, work->executable_cached,
                                         atomic ? whole_input : c.piece_fragments);
  assignment.payloads.checkpoint = work->checkpoint;
  lifecycle_.start(c.phone, *work, now_ms_, /*rescheduled=*/false);
  // Keep the encoded frame so the retry timer can re-deliver it verbatim
  // (same piece_seq and (piece, attempt) identity → idempotent on the
  // agent side).
  c.assign_frame = std::make_shared<const Blob>(encode(assignment.fields, assignment.payloads));
  c.assign_sent_ms = now_ms_;
  c.assign_retries = 0;
  bool deliver = true;
  Millis delay_ms = 0.0;
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kAssignPiece)) {
    if (action.kind == fault::FaultAction::Kind::kDrop) {
      deliver = false;  // frame lost in flight; the retry timer recovers
    } else if (action.kind == fault::FaultAction::Kind::kDelay) {
      delay_ms = action.delay_ms;  // the frame leaves late; the loop does not wait
    } else {
      drop_connection(c, /*lost=*/true);
      return;
    }
  }
  if (deliver) send_frame(c.outbox, c.assign_frame, delay_ms);
  // Armed even when the injected fault swallowed the frame: re-delivery is
  // exactly how a lost assignment recovers.
  arm_assign_retry(c);
  // Mark the moment the piece left the server (the phone agent records the
  // actual transfer/execution spans under the same causal IDs).
  if (obs::trace_enabled()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kPieceShipped;
    event.t = obs::trace_now();
    event.value = static_cast<double>(gathered_size(assignment.payloads.input)) / 1024.0;
    event.job = assignment.fields.job;
    event.piece = work->identity.piece;
    event.attempt = work->identity.attempt;
    event.instant = work->identity.instant;
    event.phone = c.phone;
    obs::trace_record(event);
  }
}

bool CwcServer::report_matches_inflight(const Connection& c, std::uint32_t piece_seq,
                                        std::int32_t piece, std::int32_t attempt) const {
  const core::Attempt* running = lifecycle_.running(c.phone);
  if (running == nullptr || piece_seq != c.piece_seq) return false;
  // When the report echoes the assignment identity, require an exact
  // (piece, attempt) match: a duplicate report for an attempt that was
  // already superseded (re-assignment after a retry) must not be banked
  // twice.
  return piece < 0 ||
         (piece == running->identity.piece && attempt == running->identity.attempt);
}

CwcServer::Connection* CwcServer::find_connection(PhoneId phone) {
  for (auto& connection : connections_) {
    if (connection->conn.valid() && connection->registered && connection->phone == phone) {
      return connection.get();
    }
  }
  return nullptr;
}

void CwcServer::cancel_attempt(PhoneId phone, const core::Attempt& attempt) {
  Connection* loser = find_connection(phone);
  if (loser == nullptr) return;
  // The engine has already cleared the attempt, so if the send fails
  // drop_connection's lost-handling cannot return fragments that the
  // winning report is about to bank; the agent's stale report, if any, is
  // arbitrated away by the engine.
  loser->assign_frame.reset();
  cancel_assign_retry(*loser);
  send_frame(loser->outbox, encode(CancelPieceMsg{loser->piece_seq, attempt.identity.piece,
                                                  attempt.identity.attempt}));
  maybe_reprobe(*loser);
}

void CwcServer::maybe_speculate() {
  if (jobs_.empty()) return;
  // Batch completion fraction over input bytes (recovered already-done
  // jobs live under synthetic negative ids and are excluded — they were
  // finished by a previous process, not this batch).
  double total_bytes = 0.0;
  double done_bytes = 0.0;
  for (const auto& [id, job] : jobs_) {
    if (id < 0) continue;
    const auto size = static_cast<double>(job.input.size());
    total_bytes += size;
    if (job.spec.kind == JobKind::kBreakable) {
      done_bytes += std::min(static_cast<double>(job.bytes_completed), size);
    } else if (job.done) {
      done_bytes += size;
    }
  }
  lifecycle_.speculate(now_ms_, total_bytes > 0.0 ? done_bytes / total_bytes : 1.0);
}

bool CwcServer::ship_backup(PhoneId backup_id, PhoneId primary_id,
                            const core::Attempt& attempt) {
  Connection& backup = *find_connection(backup_id);
  // The backup re-executes the primary's exact byte ranges from scratch
  // (breakable pieces carry no checkpoint).
  backup.piece_fragments = find_connection(primary_id)->piece_fragments;
  const Assignment assignment =
      new_assignment(backup, jobs_.at(attempt.job), attempt.identity,
                     controller_.executable_cached(backup_id, attempt.job), backup.piece_fragments);
  backup.assign_frame =
      std::make_shared<const Blob>(encode(assignment.fields, assignment.payloads));
  backup.assign_sent_ms = now_ms_;
  backup.assign_retries = 0;
  send_frame(backup.outbox, backup.assign_frame);
  // A write that failed at once drops the connection after this round:
  // launch nothing on it.
  if (backup.outbox.failed()) return false;
  arm_assign_retry(backup);
  return true;
}

CwcServer::Assignment CwcServer::new_assignment(Connection& c, const JobState& job,
                                                const core::PieceIdentity& identity,
                                                bool executable_cached,
                                                const Fragments& fragments) {
  Assignment assignment;
  AssignPieceMsg& fields = assignment.fields;
  fields.job = job.spec.id;
  fields.piece_seq = ++c.piece_seq;
  fields.task_name = job.spec.task_name;
  fields.kind = job.spec.kind;
  fields.trace_piece = identity.piece;
  fields.trace_attempt = identity.attempt;
  fields.trace_instant = identity.instant;
  if (chunking_enabled(c)) {
    chunk_assignment(c, assignment, job,
                     !executable_cached && !job.executable->bytes.empty(), fragments);
    return assignment;
  }
  if (!executable_cached) assignment.payloads.executable.push_back(job.executable->bytes);
  const std::span<const std::uint8_t> input(job.input);
  for (const auto& [begin, end] : fragments) {
    assignment.payloads.input.push_back(input.subspan(begin, end - begin));
  }
  return assignment;
}

namespace {
/// kReportHandling fault gate: true = discard the report (the retry timer
/// and agent-side replay recover it).
bool report_fault_drops() {
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kReportHandling)) {
    if (action.kind == fault::FaultAction::Kind::kDrop) return true;
    if (action.kind == fault::FaultAction::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(action.delay_ms));
    }
  }
  return false;
}
}  // namespace

void CwcServer::on_complete(Connection& c, const PieceCompleteMsg& msg) {
  if (report_fault_drops()) return;
  if (!report_matches_inflight(c, msg.piece_seq, msg.piece, msg.attempt)) {
    // A losing twin's report racing its CancelPiece lands here (its
    // attempt was cleared when the speculation settled): counted, never
    // banked — the (piece, attempt) identity arbitrates duplicates.
    lifecycle_.note_stale_completion(c.phone, msg.piece, msg.attempt);
    obs::counter("net.server.stale_reports").inc();
    if (config_.bank_stale_reports) {
      // Planted regression (see ServerConfig::bank_stale_reports): bank the
      // stale partial anyway, re-creating the double-aggregation bug the
      // soak harness's exactly-once invariant exists to catch.
      const auto it = jobs_.find(msg.job);
      if (it != jobs_.end() && !it->second.done) {
        it->second.partials.push_back(msg.partial_result);
      }
    }
    return;
  }
  // Full assignment round-trip (first send of this assignment -> valid
  // report), the live counterpart of the sim's ship+execute spans.
  obs::latency("server.assign_report_ms")
      .record(now_ms_ - lifecycle_.running(c.phone)->started_ms);
  c.assign_frame.reset();
  cancel_assign_retry(c);
  JobState& job = jobs_.at(msg.job);
  job.partials.push_back(msg.partial_result);
  if (job.spec.kind == JobKind::kBreakable) {
    for (const auto& [begin, end] : c.piece_fragments) job.bytes_completed += end - begin;
    if (journal_) {
      try {
        journal_->record_progress(msg.job,
                                  Journal::Ranges(c.piece_fragments.begin(),
                                                  c.piece_fragments.end()),
                                  msg.partial_result);
      } catch (const std::exception& e) {
        on_journal_error(e);
      }
    }
  } else if (journal_) {
    try {
      journal_->record_atomic_done(msg.job, msg.partial_result);
    } catch (const std::exception& e) {
      on_journal_error(e);
    }
  }
  // First valid completion wins: a speculated piece's twin is cancelled.
  lifecycle_.complete(c.phone, now_ms_, msg.local_exec_ms);
  maybe_finish_job(msg.job);
  assign_next_piece(c);
  maybe_reprobe(c);
  check_run_complete();
}

void CwcServer::on_failed(Connection& c, const PieceFailedMsg& msg) {
  if (report_fault_drops()) return;
  if (!report_matches_inflight(c, msg.piece_seq, msg.piece, msg.attempt)) {
    obs::counter("net.server.stale_reports").inc();
    return;
  }
  ++failures_received_;
  obs::counter("net.server.failures_received").inc();
  c.assign_frame.reset();
  cancel_assign_retry(c);
  if (!lifecycle_.fail(c.phone, now_ms_)) {
    // A backup failed: the original is still running, so nothing is
    // banked and no fragments return.
    log_info("cwc-server") << "online failure of speculative backup on phone " << c.phone
                           << ", job " << msg.job;
    return;
  }
  JobState& job = jobs_.at(msg.job);

  Kilobytes processed_kb = 0.0;
  Blob controller_checkpoint;
  if (job.spec.kind == JobKind::kAtomic) {
    // processed_bytes is an absolute offset into the whole input; the
    // piece covered [resume_offset, end), so the *new* progress is the
    // delta past that offset.
    const std::size_t resume_offset = c.piece_fragments.front().first;
    const std::size_t absolute = static_cast<std::size_t>(msg.processed_bytes);
    processed_kb =
        static_cast<double>(absolute > resume_offset ? absolute - resume_offset : 0) / 1024.0;
    controller_checkpoint = msg.checkpoint;
  } else {
    // processed_bytes is a prefix of the *concatenated* slice; walk the
    // fragments to bank what was processed and return the rest.
    std::size_t remaining_prefix = static_cast<std::size_t>(msg.processed_bytes);
    std::size_t processed_total = 0;
    std::deque<std::pair<std::size_t, std::size_t>> returned;
    for (const auto& [begin, end] : c.piece_fragments) {
      const std::size_t len = end - begin;
      const std::size_t covered = std::min(remaining_prefix, len);
      processed_total += covered;
      remaining_prefix -= covered;
      if (covered < len) returned.push_back({begin + covered, end});
    }
    processed_kb = static_cast<double>(processed_total) / 1024.0;
    if (processed_total > 0) {
      // The partial result over the processed prefix is banked; only the
      // unprocessed suffix returns to the pool.
      job.partials.push_back(msg.partial_result);
      job.bytes_completed += processed_total;
      if (journal_) {
        // The covered sub-ranges: everything in piece_fragments minus what
        // was returned.
        Journal::Ranges covered;
        std::size_t prefix = static_cast<std::size_t>(msg.processed_bytes);
        for (const auto& [begin, end] : c.piece_fragments) {
          const std::size_t len = end - begin;
          const std::size_t take = std::min(prefix, len);
          if (take > 0) covered.push_back({begin, begin + take});
          prefix -= take;
        }
        // Contained like every other journal write: if the append throws
        // here the exception would unwind before the unprocessed fragments
        // below return to pending_ranges (and the attempt is already
        // cleared, so drop_connection could not re-queue them either) — the
        // bytes would be lost and the job could never complete.
        try {
          journal_->record_progress(msg.job, covered, msg.partial_result);
        } catch (const std::exception& e) {
          on_journal_error(e);
        }
      }
    }
    // Preserve order: unprocessed fragments go back to the front.
    for (auto it = returned.rbegin(); it != returned.rend(); ++it) {
      job.pending_ranges.push_front(*it);
    }
  }
  controller_.on_piece_failed(c.phone, processed_kb, std::move(controller_checkpoint),
                              msg.local_exec_ms);
  log_info("cwc-server") << "online failure: phone " << c.phone << ", job " << msg.job
                         << ", processed " << processed_kb << " KB";
  maybe_finish_job(msg.job);
  maybe_reprobe(c);
  check_run_complete();
}

bool CwcServer::chunking_enabled(const Connection& c) const {
  return config_.chunk_bytes > 0 && chunk_dirs_.count(c.phone) != 0;
}

void CwcServer::chunk_assignment(Connection& c, Assignment& assignment, const JobState& job,
                                 bool ship_executable, const Fragments& wire_fragments) {
  ChunkDirectory& dir = chunk_dirs_.at(c.phone);
  AssignPieceMsg& msg = assignment.fields;
  msg.chunked = true;
  msg.input_fragments.assign(wire_fragments.begin(), wire_fragments.end());

  double hit_kb = 0.0;
  double miss_kb = 0.0;
  double evicted_bytes = 0.0;

  // Walks one chunk: records it in `out`, gathers its payload only when the
  // directory says the phone lacks it, and updates the LRU mirror either way.
  const auto place = [&](const ChunkRef& ref, std::span<const std::uint8_t> source,
                         std::vector<ChunkWire>& out, ByteSpans& payloads) {
    ChunkWire wire{ref.id, ref.offset, false};
    const double kb = static_cast<double>(chunk_size_of(ref.id)) / 1024.0;
    if (dir.contains(ref.id)) {
      dir.touch(ref.id);
      hit_kb += kb;
    } else {
      wire.shipped = true;
      evicted_bytes += static_cast<double>(dir.insert(ref.id));
      miss_kb += kb;
      payloads.push_back(source.subspan(ref.offset, chunk_size_of(ref.id)));
    }
    out.push_back(wire);
  };

  // Executable: the whole grid, unless the legacy per-job executable cache
  // already suppressed it (the agent holds a copy keyed by job id; no
  // chunks needed at all).
  if (ship_executable) {
    for (const ChunkRef& ref : job.executable->chunks) {
      place(ref, job.executable->bytes, msg.exec_chunks, assignment.payloads.executable);
    }
  }

  // Input: the grid chunks covering each wire fragment, indexed straight
  // into the job's pre-computed grid (no re-hashing). Adjacent fragments
  // can share a boundary chunk — list it once.
  std::set<std::uint64_t> listed;
  for (const auto& [begin, end] : wire_fragments) {
    if (end <= begin) continue;
    const std::size_t first = begin / config_.chunk_bytes;
    const std::size_t last = (end - 1) / config_.chunk_bytes;
    for (std::size_t k = first; k <= last && k < job.input_chunks.size(); ++k) {
      const ChunkRef& ref = job.input_chunks[k];
      if (!listed.insert(ref.offset).second) continue;
      place(ref, job.input, msg.input_chunks, assignment.payloads.input);
    }
  }

  obs::counter("cache.hit_kb").inc(hit_kb);
  obs::counter("cache.miss_kb").inc(miss_kb);
  obs::counter("cache.evicted_kb").inc(evicted_bytes / 1024.0);
  if (hit_kb > 0.0 && obs::trace_enabled()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kChunkCacheHit;
    event.t = obs::trace_now();
    event.value = hit_kb;
    event.job = msg.job;
    event.piece = msg.trace_piece;
    event.attempt = msg.trace_attempt;
    event.instant = msg.trace_instant;
    event.phone = c.phone;
    obs::trace_record(event);
  }
}

void CwcServer::on_chunk_request(Connection& c, const ChunkRequestMsg& msg) {
  if (!report_matches_inflight(c, msg.piece_seq, msg.piece, msg.attempt) || !c.assign_frame) {
    obs::counter("net.server.stale_reports").inc();
    return;
  }
  AssignPieceMsg assign = decode_assign_piece(*c.assign_frame);
  if (!assign.chunked) return;
  const std::set<ChunkId> missing(msg.missing.begin(), msg.missing.end());
  JobState& job = jobs_.at(assign.job);

  // Re-gather both payloads with the missing ids flipped to shipped.
  // Chunk offsets address the job's shared executable image and its
  // original input.
  double reshipped_kb = 0.0;
  AssignPayloads payloads;
  payloads.checkpoint = assign.checkpoint;
  const auto regather = [&](std::vector<ChunkWire>& chunks, std::span<const std::uint8_t> source,
                            ByteSpans& out) {
    for (ChunkWire& chunk : chunks) {
      if (!chunk.shipped && missing.count(chunk.id) != 0) {
        chunk.shipped = true;
        reshipped_kb += static_cast<double>(chunk_size_of(chunk.id)) / 1024.0;
      }
      if (chunk.shipped) out.push_back(source.subspan(chunk.offset, chunk_size_of(chunk.id)));
    }
  };
  regather(assign.exec_chunks, job.executable->bytes, payloads.executable);
  regather(assign.input_chunks, job.input, payloads.input);
  // Re-shipping restores the chunks on the phone, so the directory keeps
  // (refreshes) them; the agent re-inserts on receipt symmetrically.
  if (const auto dir = chunk_dirs_.find(c.phone); dir != chunk_dirs_.end()) {
    for (const ChunkId id : msg.missing) dir->second.insert(id);
  }

  c.assign_frame = std::make_shared<const Blob>(encode(assign, payloads));
  c.assign_sent_ms = now_ms_;
  obs::counter("cache.refetch_kb").inc(reshipped_kb);
  if (obs::trace_enabled()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kChunkRefetch;
    event.t = obs::trace_now();
    event.value = reshipped_kb;
    event.job = assign.job;
    event.piece = assign.trace_piece;
    event.attempt = assign.trace_attempt;
    event.instant = assign.trace_instant;
    event.phone = c.phone;
    obs::trace_record(event);
  }
  log_info("cwc-server") << "phone " << c.phone << " re-fetched " << msg.missing.size()
                         << " chunks (" << reshipped_kb << " KB) for piece "
                         << assign.trace_piece;
  send_frame(c.outbox, c.assign_frame);
  // The re-ship restarts the current re-delivery interval.
  arm_assign_retry(c);
}

void CwcServer::drop_connection(Connection& c, bool lost) {
  if (!c.conn.valid()) return;
  if (lost && c.registered) {
    phones_lost_.fetch_add(1, std::memory_order_relaxed);
    ++losses_by_phone_[c.phone];
    obs::counter("net.server.phones_lost").inc();
    if (const core::Attempt* attempt = lifecycle_.running(c.phone)) {
      // Nothing was reported: a primary's whole in-flight slice returns to
      // the pool. A backup holds a *copy* of its primary's fragments; the
      // primary still owns them.
      JobState& job = jobs_.at(attempt->job);
      if (!attempt->is_backup() && job.spec.kind == JobKind::kBreakable) {
        for (auto it = c.piece_fragments.rbegin(); it != c.piece_fragments.rend(); ++it) {
          job.pending_ranges.push_front(*it);
        }
      }
      lifecycle_.abandon(c.phone, now_ms_);
    }
    controller_.on_phone_lost(c.phone);
    log_warn("cwc-server") << "phone " << c.phone << " declared lost";
  }
  teardown_connection(c);
  c.ready = false;
  c.probing = false;
  c.assign_frame.reset();
  // Dropping the last outstanding phone can flip the controller to
  // all-done (e.g. a speculative backup dies after the primary reported).
  check_run_complete();
}

void CwcServer::drop_failed_connections() {
  now_ms_ = loop_.now_ms();
  for (auto& connection : connections_) {
    Connection& c = *connection;
    if (!c.conn.valid() || !c.outbox.failed()) continue;
    log_warn("cwc-server") << "send to phone " << c.phone << " failed; dropping the connection";
    drop_connection(c, /*lost=*/true);
  }
}

void CwcServer::send_keepalives(double) {
  for (auto& connection : connections_) {
    Connection& c = *connection;
    if (!c.conn.valid() || !c.registered) continue;
    // Quarantined phones are not pinged: their only expected traffic is
    // the reserved in-flight report, and a miss streak accumulated while
    // suspended must not count against the phone once paroled.
    if (controller_.health().quarantined(c.phone)) {
      c.keepalive_suspended = true;
      continue;
    }
    if (c.keepalive_suspended) {
      // Reinstatement: forgive the pre-quarantine streak and resynchronize
      // the ack horizon so the first post-parole tick starts clean.
      c.keepalive_suspended = false;
      c.keepalive_missed = 0;
      c.keepalive_acked = c.keepalive_seq;
    }
    // A miss is a tick where the latest ping is still unanswered. Acks of
    // that ping reset the count in handle_frame, so `keepalive_missed`
    // counts *consecutive* misses only, and a phone is declared lost
    // after `keepalive_misses` of them: worst-case detection latency is
    // period x (misses + 1) — the ping sent just after the phone died
    // plus the tolerated silent ticks.
    if (c.keepalive_seq > c.keepalive_acked) {
      ++c.keepalive_missed;
      obs::counter("net.server.keepalive.misses").inc();
      controller_.health().on_keepalive_miss(c.phone, c.keepalive_missed);
      if (obs::trace_enabled()) {
        obs::TraceEvent event;
        event.type = obs::TraceEventType::kKeepAliveMissed;
        event.t = obs::trace_now();
        event.phone = c.phone;
        event.value = static_cast<double>(c.keepalive_missed);
        obs::trace_record(event);
      }
      if (c.keepalive_missed >= config_.keepalive_misses) {
        obs::counter("net.server.keepalive.drops").inc();
        drop_connection(c, /*lost=*/true);
        continue;
      }
    }
    // The seq is consumed even when the injected fault swallows the ping:
    // the phone never sees it, cannot ack it, and the miss accounting
    // above runs exactly as it would for a ping lost on a real network.
    const std::uint64_t seq = ++c.keepalive_seq;
    if (const fault::FaultAction action = fault::check(fault::FaultPoint::kKeepAliveSend);
        action.kind == fault::FaultAction::Kind::kDrop) {
      continue;
    }
    send_frame(c.outbox, encode_keepalive(seq));
    c.keepalive_sent_at = Clock::now();
    obs::counter("net.server.keepalives_sent").inc();
    if (obs::trace_enabled()) {
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kKeepAliveSent;
      event.t = obs::trace_now();
      event.phone = c.phone;
      event.value = static_cast<double>(seq);
      obs::trace_record(event);
    }
  }
  // The keep-alive tick is the fleet's natural telemetry cadence: refresh
  // every connected phone's gauges (health can change without an ack
  // arriving) and roll them up fleet-wide.
  for (auto& connection : connections_) {
    if (connection->conn.valid() && connection->registered) {
      publish_phone_gauges(*connection);
    }
  }
  publish_fleet_gauges();
}

void CwcServer::publish_phone_gauges(const Connection& c) {
  if (c.phone == kInvalidPhone) return;
  const std::string prefix = "phone." + std::to_string(c.phone) + ".";
  obs::gauge(prefix + "health_state")
      .set(static_cast<double>(controller_.health().state(c.phone)));
  obs::gauge(prefix + "in_flight").set(busy(c) ? 1.0 : 0.0);
  if (!c.has_stats) return;
  const AgentStats& s = c.last_stats;
  const double cache_pct =
      s.cache_budget_bytes > 0 ? 100.0 * static_cast<double>(s.cache_bytes) /
                                     static_cast<double>(s.cache_budget_bytes)
                               : 0.0;
  obs::gauge(prefix + "cache_pct").set(cache_pct);
  obs::gauge(prefix + "cache_hit_kb").set(s.cache_hit_kb);
  obs::gauge(prefix + "cache_miss_kb").set(s.cache_miss_kb);
  obs::gauge(prefix + "replay_depth").set(static_cast<double>(s.replay_depth));
  obs::gauge(prefix + "charging").set(s.charging ? 1.0 : 0.0);
  obs::gauge(prefix + "exec_p50_ms").set(s.exec_p50_ms);
  obs::gauge(prefix + "exec_p95_ms").set(s.exec_p95_ms);
  obs::gauge(prefix + "exec_p99_ms").set(s.exec_p99_ms);
}

void CwcServer::publish_fleet_gauges() {
  double connected = 0, charging = 0, in_flight = 0;
  double cache_bytes = 0, replay_depth = 0, hit_kb = 0, miss_kb = 0;
  for (const auto& connection : connections_) {
    const Connection& c = *connection;
    if (!c.conn.valid() || !c.registered) continue;
    ++connected;
    if (busy(c)) ++in_flight;
    if (!c.has_stats) continue;
    if (c.last_stats.charging) ++charging;
    cache_bytes += static_cast<double>(c.last_stats.cache_bytes);
    replay_depth += static_cast<double>(c.last_stats.replay_depth);
    hit_kb += c.last_stats.cache_hit_kb;
    miss_kb += c.last_stats.cache_miss_kb;
  }
  obs::gauge("fleet.phones_connected").set(connected);
  obs::gauge("fleet.phones_charging").set(charging);
  obs::gauge("fleet.pieces_in_flight").set(in_flight);
  obs::gauge("fleet.cache_bytes").set(cache_bytes);
  obs::gauge("fleet.replay_depth").set(replay_depth);
  obs::gauge("fleet.cache_hit_kb").set(hit_kb);
  obs::gauge("fleet.cache_miss_kb").set(miss_kb);
}

void CwcServer::cancel_assign_retry(Connection& c) {
  if (c.retry_timer != kInvalidTimer) {
    loop_.cancel(c.retry_timer);
    c.retry_timer = kInvalidTimer;
  }
}

void CwcServer::arm_assign_retry(Connection& c) {
  if (config_.assign_retry_period <= 0.0) return;
  cancel_assign_retry(c);
  // Exponential re-delivery interval: period, 2x, 4x, ...
  const double interval =
      config_.assign_retry_period *
      static_cast<double>(std::uint64_t{1} << std::min(c.assign_retries, 20));
  Connection* raw = &c;
  c.retry_timer = loop_.schedule(interval, [this, raw] { on_assign_retry(*raw); });
}

void CwcServer::on_assign_retry(Connection& c) {
  c.retry_timer = kInvalidTimer;
  now_ms_ = loop_.now_ms();
  if (!c.conn.valid() || !busy(c) || !c.assign_frame) return;
  if (c.assign_retries >= config_.assign_max_retries) {
    log_warn("cwc-server") << "phone " << c.phone << " unresponsive after "
                           << c.assign_retries << " assignment retries; declaring lost";
    drop_connection(c, /*lost=*/true);
    return;
  }
  ++c.assign_retries;
  c.assign_sent_ms = now_ms_;
  obs::counter("net.server.assign_retries").inc();
  if (c.registered) controller_.health().on_deadline_hit(c.phone);
  log_info("cwc-server") << "re-delivering assignment to phone " << c.phone << " (retry "
                         << c.assign_retries << ")";
  send_frame(c.outbox, c.assign_frame);
  arm_assign_retry(c);  // next interval doubles
}

void CwcServer::maybe_schedule() {
  if (!first_schedule_done_) {
    int ready = 0;
    for (auto& connection : connections_) {
      if (connection->conn.valid() && connection->ready) ++ready;
    }
    if (ready >= expected_phones_ && controller_.has_pending_work()) {
      scheduling_instant();
      first_schedule_done_ = true;
      last_instant_ms_ = now_ms_;
    }
  } else if (controller_.has_pending_work() &&
             now_ms_ - last_instant_ms_ >= config_.scheduling_period) {
    scheduling_instant();
    last_instant_ms_ = now_ms_;
  }
}

void CwcServer::on_scheduling_tick() {
  now_ms_ = loop_.now_ms();
  maybe_schedule();
  // Nudge idle ready phones (e.g. after a replugged phone's queue fills).
  for (Connection* connection : connections_by_phone()) {
    if (connection->conn.valid() && connection->ready && !busy(*connection)) {
      assign_next_piece(*connection);
      maybe_reprobe(*connection);
    }
  }
  // Safety net: completion transitions that bypass the event handlers
  // (controller state flipped by a scheduler round, say) still finish.
  check_run_complete();
}

void CwcServer::check_run_complete() {
  if (run_complete_ || !first_schedule_done_) return;
  if (!all_jobs_done() || !controller_.all_done()) return;
  if (!shutdown_sent_) {
    // Teardown closes each outbox, which writes the notice at once.
    const auto shutdown = std::make_shared<const Blob>(encode_shutdown());
    for (auto& connection : connections_) {
      if (connection->conn.valid()) {
        send_frame(connection->outbox, shutdown);
        teardown_connection(*connection);
      }
    }
    shutdown_sent_ = true;
  }
  run_complete_ = true;
  loop_.stop();
}

void CwcServer::scheduling_instant() {
  if (!controller_.has_pending_work()) return;
  if (controller_.plugged_phones().empty()) return;
  controller_.reschedule();
  ++scheduling_rounds_;
  obs::counter("net.server.scheduling_rounds").inc();
  for (Connection* connection : connections_by_phone()) {
    if (connection->conn.valid()) assign_next_piece(*connection);
  }
}

std::vector<CwcServer::Connection*> CwcServer::connections_by_phone() {
  std::vector<Connection*> ordered;
  ordered.reserve(connections_.size());
  for (auto& connection : connections_) {
    if (connection->conn.valid()) ordered.push_back(connection.get());
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Connection* a, const Connection* b) { return a->phone < b->phone; });
  return ordered;
}

void CwcServer::maybe_finish_job(JobId id) {
  JobState& job = jobs_.at(id);
  if (job.done) return;
  const bool atomic = job.spec.kind == JobKind::kAtomic;
  // Atomic jobs bank no failure partials (the checkpoint carries their
  // state), so any entry in `partials` is a completion report.
  const bool complete = atomic ? !job.partials.empty()
                               : job.bytes_completed >= job.input.size() &&
                                     job.pending_ranges.empty();
  if (!complete) return;
  const tasks::TaskFactory& factory = registry_->require(job.spec.task_name);
  job.final_result = atomic ? factory.aggregate({job.partials.back()})
                            : factory.aggregate(job.partials);
  job.done = true;
  --jobs_outstanding_;
}

const Blob& CwcServer::result(JobId job) const {
  const JobState& state = jobs_.at(job);
  if (!state.done) throw std::logic_error("job not complete");
  return state.final_result;
}

bool CwcServer::job_done(JobId job) const { return jobs_.at(job).done; }

bool CwcServer::run(int expected_phones, Millis timeout) {
  expected_phones_ = expected_phones;
  run_complete_ = false;
  first_schedule_done_ = false;
  last_instant_ms_ = -1e18;

  // Trace timestamps follow the loop clock (ms since the loop anchored,
  // i.e. since run() entry); the guard restores the default on any exit.
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().set_clock([this] { return loop_.wall_now_ms(); });
  }
  struct ClockGuard {
    ~ClockGuard() { obs::TraceRecorder::global().set_clock(nullptr); }
  } clock_guard;

  // Readiness: one watcher for the listener; per-connection watchers are
  // registered on accept. Every deadline below lives on the timer wheel,
  // so the loop sleeps exactly until the next due event — there is no
  // fixed tick and no per-iteration fleet scan.
  loop_.watch_fd(listener_.fd(), [this] {
    now_ms_ = loop_.now_ms();
    accept_new_connections();
  });

  std::vector<TimerId> run_timers;
  run_timers.push_back(loop_.schedule(timeout, [this] { loop_.stop(); }));
  run_timers.push_back(loop_.every(config_.keepalive_period, [this] {
    now_ms_ = loop_.now_ms();
    send_keepalives(now_ms_);
  }));
  run_timers.push_back(
      loop_.every(config_.scheduling_period, [this] { on_scheduling_tick(); }));
  if (config_.speculation.enabled) {
    const Millis period = config_.speculation_check_period > 0.0
                              ? config_.speculation_check_period
                              : config_.scheduling_period;
    run_timers.push_back(loop_.every(period, [this] {
      if (!first_schedule_done_) return;
      now_ms_ = loop_.now_ms();
      maybe_speculate();
    }));
  }
  if (config_.stop) {
    // External stop flags are set from other threads, so they are the one
    // thing the loop still has to poll for.
    run_timers.push_back(loop_.every(20.0, [this] {
      if (config_.stop->load(std::memory_order_relaxed)) {
        log_info("cwc-server") << "stop requested; leaving run loop";
        loop_.stop();
      }
    }));
  }

  loop_.run();

  for (const TimerId id : run_timers) loop_.cancel(id);
  loop_.unwatch_fd(listener_.fd());
  return run_complete_ || all_jobs_done();
}

}  // namespace cwc::net
