#include "net/phone_agent.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cwc::net {

namespace {
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

void sleep_ms(double ms) {
  if (ms > 0.0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// All agent sends flow through here so frame/byte counters stay exact.
void send_frame(TcpConnection& conn, const Blob& payload) {
  write_frame(conn, payload);
  obs::counter("net.agent.frames_sent").inc();
  obs::counter("net.agent.bytes_sent").inc(static_cast<double>(payload.size()));
}
}  // namespace

PhoneAgent::PhoneAgent(std::uint16_t server_port, PhoneAgentConfig config,
                       const tasks::TaskRegistry* registry)
    : port_(server_port), config_(config), registry_(registry),
      chunk_cache_(config.cache_bytes) {
  if (!registry_) throw std::invalid_argument("PhoneAgent: null registry");
  link_kbps_.store(config.emulated_link_kbps);
}

PhoneAgent::~PhoneAgent() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void PhoneAgent::start() {
  thread_ = std::thread([this] {
    try {
      run();
    } catch (const std::exception& e) {
      log_warn("agent") << "phone " << config_.id << " terminated: " << e.what();
    }
    finished_.store(true);
  });
}

void PhoneAgent::join() {
  if (thread_.joinable()) thread_.join();
}

std::optional<Blob> PhoneAgent::next_frame(TcpConnection& conn, FrameDecoder& decoder,
                                           Millis deadline_ms) {
  if (!stash_.empty()) {
    Blob frame = std::move(stash_.front());
    stash_.pop_front();
    return frame;
  }
  const auto wait_start = Clock::now();
  while (!stop_.load()) {
    if (auto frame = decoder.pop()) {
      obs::counter("net.agent.frames_received").inc();
      return frame;
    }
    if (deadline_ms > 0.0 && elapsed_ms(wait_start) >= deadline_ms) {
      obs::counter("net.agent.rpc_timeouts").inc();
      return std::nullopt;  // RPC deadline expired
    }
    if (poll_one(conn.fd(), POLLIN, 100) == 0) continue;  // re-check stop_ every 100 ms
    const auto n = conn.recv_into(recv_buffer_);
    if (!n) continue;
    if (*n == 0) return std::nullopt;  // server closed the connection
    obs::counter("net.agent.bytes_received").inc(static_cast<double>(*n));
    decoder.feed({recv_buffer_.data(), *n});
  }
  return std::nullopt;
}

void PhoneAgent::service_keepalives(TcpConnection& conn, FrameDecoder& decoder) {
  if (offline_.load() && unplugged_.load()) return;  // radio is "gone"
  while (poll_one(conn.fd(), POLLIN, 0) & POLLIN) {
    const auto n = conn.recv_into(recv_buffer_);
    if (!n || *n == 0) return;  // drained or peer closed
    obs::counter("net.agent.bytes_received").inc(static_cast<double>(*n));
    decoder.feed({recv_buffer_.data(), *n});
  }
  // Answer keep-alives immediately; anything else (e.g. a probe chunk or
  // the shutdown notice) is stashed for the main protocol loop.
  while (auto frame = decoder.pop()) {
    obs::counter("net.agent.frames_received").inc();
    if (peek_type(*frame) == MsgType::kKeepAlive) {
      ack_keepalive(conn, decode_keepalive(*frame).seq);
    } else {
      stash_.push_back(std::move(*frame));
    }
  }
}

AgentStats PhoneAgent::current_stats() const {
  AgentStats stats;
  stats.cache_hit_kb = cache_hit_kb_.load(std::memory_order_relaxed);
  stats.cache_miss_kb = cache_miss_kb_.load(std::memory_order_relaxed);
  stats.cache_bytes = chunk_cache_.bytes();
  stats.cache_budget_bytes = chunk_cache_.enabled() ? chunk_cache_.budget() : 0;
  stats.replay_depth = static_cast<std::uint32_t>(completed_cache_.size());
  stats.charging = !unplugged_.load(std::memory_order_relaxed);
  if (exec_hist_.count() > 0) {
    const auto q = exec_hist_.quantiles();
    stats.exec_p50_ms = q.p50;
    stats.exec_p95_ms = q.p95;
    stats.exec_p99_ms = q.p99;
  }
  return stats;
}

void PhoneAgent::ack_keepalive(TcpConnection& conn, std::uint64_t seq) {
  send_frame(conn, encode_keepalive_ack(seq, current_stats()));
}

void PhoneAgent::responsive_sleep(double ms, TcpConnection& conn, FrameDecoder& decoder) {
  while (ms > 0.0 && !stop_.load()) {
    const double slice = std::min(ms, 20.0);
    sleep_ms(slice);
    ms -= slice;
    service_keepalives(conn, decoder);
  }
}

void PhoneAgent::pace_link(std::size_t bytes, TcpConnection& conn, FrameDecoder& decoder) {
  const double kbps = link_kbps_.load();
  if (kbps <= 0.0) return;
  responsive_sleep(static_cast<double>(bytes) / 1024.0 / kbps * 1000.0, conn, decoder);
}

void PhoneAgent::run() {
  int reconnects_left = config_.max_reconnects;
  // Bounded exponential backoff with seeded jitter. The jitter spreads a
  // herd of agents that lost the same server so their reconnects do not
  // arrive in lockstep; the seed keeps the schedule reproducible.
  Rng jitter_rng(config_.backoff_seed != 0
                     ? config_.backoff_seed
                     : 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(config_.id));
  double backoff = config_.reconnect_backoff;
  while (session()) {
    if (stop_.load() || reconnects_left-- <= 0) return;
    // Wait until the owner has replugged the phone before reconnecting
    // (the radio is off while unplugged-offline).
    while (unplugged_.load() && !stop_.load()) {
      sleep_ms(config_.reconnect_backoff);
    }
    if (stop_.load()) return;
    if (session_registered_) backoff = config_.reconnect_backoff;  // reset on success
    double delay = backoff;
    if (config_.reconnect_jitter > 0.0) {
      delay *= jitter_rng.uniform(1.0 - config_.reconnect_jitter,
                                  1.0 + config_.reconnect_jitter);
    }
    if (obs::trace_enabled()) {
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kRetryBackoff;
      event.t = obs::trace_now();
      event.phone = config_.id;
      event.value = delay;
      obs::trace_record(event);
    }
    obs::counter("net.agent.reconnects").inc();
    log_info("agent") << "phone " << config_.id << " reconnecting in " << delay << " ms ("
                      << reconnects_left << " attempts left)";
    sleep_ms(delay);
    backoff = std::min(backoff * 2.0, config_.reconnect_backoff_max);
  }
}

bool PhoneAgent::session() {
  session_registered_ = false;
  TcpConnection conn;
  try {
    conn = TcpConnection::connect_ipv4(config_.server_host, port_);
  } catch (const SocketError&) {
    return true;  // server not reachable yet; retry if budget remains
  }
  // Our sends flow phone->server: link faults with dir=from apply here.
  conn.bind_link(config_.id, /*server_side=*/false);
  FrameDecoder decoder;
  stash_.clear();

  // Socket errors anywhere in the session (including mid-assignment) end
  // this connection only; the reconnect loop decides whether to retry.
  try {
    RegisterMsg reg;
    reg.phone = config_.id;
    reg.cpu_mhz = config_.cpu_mhz;
    reg.ram_kb = config_.ram_kb;
    reg.zone = config_.zone;
    if (chunk_cache_.enabled()) {
      // Advertise what survived (this process's) previous sessions so the
      // server's directory mirror resyncs to reality, oldest first so its
      // LRU replay converges on the same eviction order.
      reg.cache_budget_bytes = chunk_cache_.budget();
      reg.cache_manifest = chunk_cache_.ids_oldest_first();
    }
    send_frame(conn, encode(reg));

    const auto ack_frame = next_frame(conn, decoder, config_.rpc_timeout);
    if (!ack_frame) return true;  // disconnect or ack deadline: retry
    if (ack_frame->empty() || peek_type(*ack_frame) != MsgType::kRegisterAck) {
      // Any other first frame (a keep-alive that overtook it, say) means
      // the ack was lost on the way: register afresh on a new connection.
      obs::counter("net.agent.lost_register_acks").inc();
      log_warn("agent") << "phone " << config_.id << " lost its registration ack; reconnecting";
      return true;
    }
    const RegisterAckMsg ack = decode_register_ack(*ack_frame);
    if (!ack.accepted) {
      throw std::runtime_error("registration rejected");
    }
    // Replay-cache entries are keyed by (piece, attempt) ids that are
    // process-local to one server run. A different epoch means a restarted
    // server whose fresh ids can collide with cached ones — a stale entry
    // would then answer a new assignment with the previous run's result
    // and bank wrong bytes. Flush across epochs, keep within one (the
    // reconnect-and-replay path the cache exists for).
    if (ack.server_epoch != server_epoch_) {
      completed_cache_.clear();
      completed_order_.clear();
      server_epoch_ = ack.server_epoch;
    }
    session_registered_ = true;

    while (!stop_.load()) {
      const auto frame = next_frame(conn, decoder);
      if (!frame) return true;  // connection lost: maybe reconnect

      if (offline_.load() && unplugged_.load()) {
        // Silent mode: the radio is gone; drop everything until replugged.
        continue;
      }

      switch (peek_type(*frame)) {
        case MsgType::kProbeRequest:
          handle_probe(conn, decoder, decode_probe_request(*frame));
          break;
        case MsgType::kAssignPiece:
          handle_assignment(conn, decoder, decode_assign_piece(*frame));
          break;
        case MsgType::kKeepAlive:
          ack_keepalive(conn, decode_keepalive(*frame).seq);
          break;
        case MsgType::kCancelPiece:
          // The in-flight piece it names already reported (our completion
          // raced the cancel); the server arbitrates such duplicates by
          // (piece, attempt) identity, so this is safely ignored.
          obs::counter("net.agent.cancels_stale").inc();
          break;
        case MsgType::kShutdown:
          return false;  // orderly end of the batch
        default:
          log_warn("agent") << "phone " << config_.id << " ignoring unexpected frame";
      }
    }
    return false;
  } catch (const SocketError& e) {
    log_warn("agent") << "phone " << config_.id << " connection error: " << e.what();
    obs::counter("net.agent.connection_errors").inc();
    return true;  // reconnect if budget remains
  }
}

bool PhoneAgent::cancel_requested(const AssignPieceMsg& assignment) {
  // service_keepalives stashes non-keepalive frames while we execute;
  // cancels targeting the current assignment abandon it, anything else
  // (a cancel for an attempt that already reported) is consumed here —
  // it must not surface later as an "unexpected frame".
  bool requested = false;
  for (auto it = stash_.begin(); it != stash_.end();) {
    if (peek_type(*it) != MsgType::kCancelPiece) {
      ++it;
      continue;
    }
    const CancelPieceMsg cancel = decode_cancel_piece(*it);
    it = stash_.erase(it);
    if (cancel.piece_seq == assignment.piece_seq &&
        (cancel.piece < 0 || (cancel.piece == assignment.trace_piece &&
                              cancel.attempt == assignment.trace_attempt))) {
      requested = true;
    } else {
      obs::counter("net.agent.cancels_stale").inc();
    }
  }
  return requested;
}

void PhoneAgent::cache_completion(std::int32_t piece, std::int32_t attempt,
                                  CachedReport report) {
  const auto key = std::make_pair(piece, attempt);
  if (completed_cache_.emplace(key, std::move(report)).second) {
    completed_order_.push_back(key);
    while (completed_order_.size() > kCompletedCacheCap) {
      completed_cache_.erase(completed_order_.front());
      completed_order_.pop_front();
    }
  }
}

void PhoneAgent::handle_probe(TcpConnection& conn, FrameDecoder& decoder,
                              const ProbeRequestMsg& request) {
  const auto start = Clock::now();
  std::size_t received = 0;
  for (std::uint32_t i = 0; i < request.chunks;) {
    const auto frame = next_frame(conn, decoder, config_.rpc_timeout);
    // An interrupted probe is a connection-level failure: end the session
    // (and reconnect) rather than killing the agent thread.
    if (!frame) throw SocketError("probe stream interrupted", ECONNRESET);
    // Keep-alives interleave freely with probe data; answer and move on.
    if (peek_type(*frame) == MsgType::kKeepAlive) {
      ack_keepalive(conn, decode_keepalive(*frame).seq);
      continue;
    }
    if (peek_type(*frame) != MsgType::kProbeData) {
      throw SocketError("probe stream interrupted", ECONNRESET);
    }
    pace_link(frame->size(), conn, decoder);
    received += frame->size();
    ++i;
  }
  const double ms = std::max(0.1, elapsed_ms(start));
  ProbeReportMsg report;
  report.measured_kbps = static_cast<double>(received) / 1024.0 / (ms / 1000.0);
  send_frame(conn, encode(report));
}

bool PhoneAgent::reconstruct_chunks(TcpConnection& conn, AssignPieceMsg& msg) {
  std::vector<ChunkId> missing;
  // Bind every referenced chunk to its payload, keyed by its byte offset in
  // the original blob. Payloads are copied out of the cache immediately:
  // cache inserts below may rehash/evict, so no pointer into it is held
  // across iterations.
  const auto gather = [&](const std::vector<ChunkWire>& chunks, const Blob& wire_payloads)
      -> std::map<std::uint64_t, Blob> {
    std::map<std::uint64_t, Blob> by_offset;
    std::size_t cursor = 0;
    for (const ChunkWire& chunk : chunks) {
      const std::size_t size = chunk_size_of(chunk.id);
      if (chunk.shipped) {
        if (cursor + size > wire_payloads.size()) {
          throw SocketError("chunked assignment payload truncated", EPROTO);
        }
        Blob payload(wire_payloads.begin() + static_cast<std::ptrdiff_t>(cursor),
                     wire_payloads.begin() + static_cast<std::ptrdiff_t>(cursor + size));
        cursor += size;
        if (!chunk_matches(chunk.id, payload)) {
          // Torn in transit; ask for it again rather than executing on
          // corrupt bytes.
          missing.push_back(chunk.id);
          continue;
        }
        chunk_cache_.insert(chunk.id, payload);
        cache_miss_kb_.store(cache_miss_kb_.load(std::memory_order_relaxed) +
                                 static_cast<double>(size) / 1024.0,
                             std::memory_order_relaxed);
        by_offset[chunk.offset] = std::move(payload);
      } else {
        // The fault point models a bit-rotted cache entry: the corruption
        // lands *before* the verifying lookup, so find() sees it, evicts,
        // and reports the chunk absent — the re-fetch path heals it.
        if (const fault::FaultAction action = fault::check(fault::FaultPoint::kChunkCache)) {
          if (action.kind == fault::FaultAction::Kind::kDelay) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(action.delay_ms));
          } else {
            chunk_cache_.corrupt_for_test(chunk.id);
          }
        }
        if (const std::vector<std::uint8_t>* payload = chunk_cache_.find(chunk.id)) {
          cache_hit_kb_.store(cache_hit_kb_.load(std::memory_order_relaxed) +
                                  static_cast<double>(size) / 1024.0,
                              std::memory_order_relaxed);
          by_offset[chunk.offset] = *payload;
        } else {
          missing.push_back(chunk.id);
        }
      }
    }
    return by_offset;
  };

  const auto exec_chunks = gather(msg.exec_chunks, msg.executable);
  const auto input_chunks = gather(msg.input_chunks, msg.input);

  if (!missing.empty()) {
    ChunkRequestMsg request;
    request.piece_seq = msg.piece_seq;
    request.piece = msg.trace_piece;
    request.attempt = msg.trace_attempt;
    request.missing = std::move(missing);
    ++chunk_refetches_;
    obs::counter("net.agent.chunk_refetches").inc();
    log_info("agent") << "phone " << config_.id << " missing " << request.missing.size()
                      << " chunks for piece " << msg.trace_piece << "; requesting re-ship";
    send_frame(conn, encode(request));
    return false;
  }

  // Splices a byte range of the original blob out of its covering chunks
  // (the map key at or below `pos` owns that position).
  const auto splice = [](const std::map<std::uint64_t, Blob>& by_offset, std::uint64_t begin,
                         std::uint64_t end, Blob& out) {
    std::uint64_t pos = begin;
    while (pos < end) {
      auto it = by_offset.upper_bound(pos);
      if (it == by_offset.begin()) throw SocketError("chunked assignment has a gap", EPROTO);
      --it;
      const std::uint64_t off = it->first;
      const Blob& payload = it->second;
      if (pos >= off + payload.size()) {
        throw SocketError("chunked assignment has a gap", EPROTO);
      }
      const std::uint64_t take_end = std::min<std::uint64_t>(end, off + payload.size());
      out.insert(out.end(), payload.begin() + static_cast<std::ptrdiff_t>(pos - off),
                 payload.begin() + static_cast<std::ptrdiff_t>(take_end - off));
      pos = take_end;
    }
  };

  if (!msg.exec_chunks.empty()) {
    Blob executable;
    for (const auto& [offset, payload] : exec_chunks) {
      executable.insert(executable.end(), payload.begin(), payload.end());
    }
    msg.executable = std::move(executable);
  }
  Blob input;
  for (const auto& [begin, end] : msg.input_fragments) {
    splice(input_chunks, begin, end, input);
  }
  msg.input = std::move(input);
  return true;
}

void PhoneAgent::handle_assignment(TcpConnection& conn, FrameDecoder& decoder,
                                   AssignPieceMsg assignment) {
  // Idempotent re-delivery: if this (piece, attempt) already completed —
  // the server retried because the assignment frame or our report was
  // lost — replay the cached report instead of executing twice.
  if (assignment.trace_piece >= 0) {
    const auto cached =
        completed_cache_.find({assignment.trace_piece, assignment.trace_attempt});
    if (cached != completed_cache_.end()) {
      PieceCompleteMsg completion;
      completion.job = assignment.job;
      completion.piece_seq = assignment.piece_seq;
      completion.piece = assignment.trace_piece;
      completion.attempt = assignment.trace_attempt;
      completion.partial_result = cached->second.partial_result;
      completion.local_exec_ms = cached->second.local_exec_ms;
      // Count before sending: the server may complete the batch (and a
      // test may read this counter) the instant the frame lands.
      ++reports_replayed_;
      obs::counter("net.agent.reports_replayed").inc();
      send_frame(conn, encode(completion));
      log_info("agent") << "phone " << config_.id << " replayed report for piece "
                        << assignment.trace_piece << " attempt " << assignment.trace_attempt;
      return;
    }
  }
  // Phone-side trace events carry the causal IDs the server put on the wire
  // (trace_piece/attempt/instant), so in-process loopback deployments —
  // where agent threads share the process-global recorder — produce one
  // stitched trace across both sides of the protocol.
  const auto emit = [this, &assignment](obs::TraceEventType type, Millis start, Millis end,
                                        double value) {
    if (!obs::trace_enabled()) return;
    obs::TraceEvent event;
    event.type = type;
    event.t = start;
    event.dur = end - start;
    event.value = value;
    event.job = assignment.job;
    event.piece = assignment.trace_piece;
    event.attempt = assignment.trace_attempt;
    event.instant = assignment.trace_instant;
    event.phone = config_.id;
    if (assignment.trace_attempt > 0) event.flags = obs::TraceEvent::kRescheduledWork;
    obs::trace_record(event);
  };

  // The framed payload already traversed loopback; emulate the time the
  // executable + input would have needed on the phone's real link.
  const Millis ship_start = obs::trace_now();
  pace_link(assignment.executable.size() + assignment.input.size(), conn, decoder);
  emit(obs::TraceEventType::kPieceShipped, ship_start, obs::trace_now(),
       static_cast<double>(assignment.input.size()) / 1024.0);

  // Chunked shipping: the blobs so far carry only the chunks the server's
  // directory said were missing (which is why the link pacing above sees
  // only the truly shipped bytes); everything else comes from the cache.
  if (assignment.chunked && !reconstruct_chunks(conn, assignment)) {
    return;  // ChunkRequest sent; the re-shipped assignment arrives fresh
  }

  const tasks::TaskFactory* factory = registry_->find(assignment.task_name);
  if (!factory) {
    // Unknown program: report an immediate failure with nothing processed.
    PieceFailedMsg failure;
    failure.job = assignment.job;
    failure.piece_seq = assignment.piece_seq;
    failure.piece = assignment.trace_piece;
    failure.attempt = assignment.trace_attempt;
    send_frame(conn, encode(failure));
    ++pieces_failed_;
    obs::counter("net.agent.pieces_failed").inc();
    return;
  }

  auto task = factory->create();
  if (!assignment.checkpoint.empty()) {
    tasks::Checkpoint checkpoint;
    BufferReader r(assignment.checkpoint);
    checkpoint.bytes_processed = r.read_u64();
    checkpoint.state = r.read_bytes();
    task->restore(checkpoint);
  }

  const auto exec_start = Clock::now();
  const Millis exec_trace_start = obs::trace_now();
  const tasks::ByteView input(assignment.input);
  std::size_t budget = config_.step_bytes;
  std::size_t stepped_bytes = 0;
  while (!task->done(input)) {
    if (cancel_requested(assignment)) {
      // The speculation twin won; abandon without reporting — the winner's
      // result already settled this (piece, attempt) on the server.
      ++pieces_cancelled_;
      obs::counter("net.agent.cancels_honored").inc();
      log_info("agent") << "phone " << config_.id << " abandoning cancelled piece "
                        << assignment.trace_piece << " attempt " << assignment.trace_attempt;
      return;
    }
    if (unplugged_.load()) {
      // Owner unplugged mid-execution: suspend, checkpoint, migrate.
      ++pieces_failed_;
      obs::counter("net.agent.pieces_failed").inc();
      if (offline_.load()) return;  // silent death: nothing is reported
      const tasks::Checkpoint checkpoint = task->checkpoint();
      PieceFailedMsg failure;
      failure.job = assignment.job;
      failure.piece_seq = assignment.piece_seq;
      failure.piece = assignment.trace_piece;
      failure.attempt = assignment.trace_attempt;
      failure.processed_bytes = checkpoint.bytes_processed;
      failure.partial_result = task->partial_result();
      BufferWriter w;
      w.write_u64(checkpoint.bytes_processed);
      w.write_bytes(checkpoint.state);
      failure.checkpoint = w.take();
      failure.local_exec_ms = elapsed_ms(exec_start);
      exec_hist_.record(failure.local_exec_ms);
      emit(obs::TraceEventType::kPieceStarted, exec_trace_start, obs::trace_now(),
           failure.local_exec_ms);
      send_frame(conn, encode(failure));
      return;
    }
    const auto step_start = Clock::now();
    const std::size_t consumed = task->step(input, budget);
    if (consumed == 0 && !task->done(input)) {
      budget *= 2;
      continue;
    }
    stepped_bytes += consumed;
    if (obs::trace_enabled()) {
      const Millis now = obs::trace_now();
      emit(obs::TraceEventType::kPieceProgress, now, now,
           static_cast<double>(stepped_bytes) / 1024.0);
    }
    // CPU emulation: stretch this step to the phone's pace, answering
    // keep-alives during the stretch (the Android service is concurrent).
    if (config_.emulated_compute_ms_per_kb > 0.0) {
      const double target_ms =
          static_cast<double>(consumed) / 1024.0 * config_.emulated_compute_ms_per_kb;
      responsive_sleep(target_ms - elapsed_ms(step_start), conn, decoder);
    } else {
      service_keepalives(conn, decoder);
    }
    // MIMD-style duty cycling: idle the CPU between busy slices so the
    // battery keeps its charging profile (Section 4.3).
    if (config_.duty_cycle > 0.0 && config_.duty_cycle < 1.0) {
      const double busy_ms = elapsed_ms(step_start);
      responsive_sleep(busy_ms * (1.0 / config_.duty_cycle - 1.0), conn, decoder);
    }
  }

  PieceCompleteMsg completion;
  completion.job = assignment.job;
  completion.piece_seq = assignment.piece_seq;
  completion.piece = assignment.trace_piece;
  completion.attempt = assignment.trace_attempt;
  completion.partial_result = task->partial_result();
  completion.local_exec_ms = elapsed_ms(exec_start);
  exec_hist_.record(completion.local_exec_ms);
  emit(obs::TraceEventType::kPieceStarted, exec_trace_start, obs::trace_now(),
       completion.local_exec_ms);
  if (assignment.trace_piece >= 0) {
    cache_completion(assignment.trace_piece, assignment.trace_attempt,
                     {completion.partial_result, completion.local_exec_ms});
  }
  // Cache before sending: if this send fails, the re-delivered assignment
  // after reconnect is answered from the cache instead of re-executed.
  send_frame(conn, encode(completion));
  ++pieces_completed_;
  obs::counter("net.agent.pieces_completed").inc();
}

}  // namespace cwc::net
