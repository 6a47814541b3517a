// The CWC central server over real TCP — the live counterpart of the
// paper's EC2-hosted prototype.
//
// A single-writer event loop (net/event_loop.h; the paper used Java NIO —
// same idea, readiness-driven) multiplexes: phone registrations, bandwidth
// probes, piece assignment, completion/failure reports, application-level
// keep-alives, and scheduling instants. Every deadline — keep-alive ticks,
// assignment re-delivery, RPC timeouts, re-probe alarms — lives on the
// loop's timer wheel, so the server sleeps exactly until the next event
// and per-iteration work is O(ready), not O(fleet). Every send goes
// through the connection's outbox (net/outbox.h): link latency and pacing
// become release times and a full socket buffer becomes write interest,
// so the loop never sleeps or blocks on one phone while the others wait.
// A failed write drops its connection after the dispatch round. All
// policy lives in the embedded CwcController and PieceLifecycle — the
// identical brain the discrete-event simulator drives — so the wire
// deployment validates the protocol and the simulator scales the policy.
//
// Byte-level input management: the controller schedules pieces in KB; the
// server carves each job's actual input into record-aligned slices as
// pieces ship, tracks unprocessed byte ranges when pieces fail, and
// aggregates partial results with the job's TaskFactory once the whole
// input is covered. Atomic jobs ship whole (with the migration checkpoint
// after a failure).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/chunk.h"
#include "core/controller.h"
#include "core/lifecycle.h"
#include "core/locality.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/journal.h"
#include "net/outbox.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tasks/registry.h"

namespace cwc::net {

struct ServerConfig {
  /// Keep-alive cadence; the prototype used 30 s x 3 misses. Tests and the
  /// loopback examples shrink this drastically.
  Millis keepalive_period = seconds(30.0);
  int keepalive_misses = 3;
  /// How often pending work (new jobs, failed backlog) is rescheduled.
  Millis scheduling_period = seconds(1.0);
  /// Bandwidth probe shape.
  std::uint32_t probe_chunks = 4;
  std::uint32_t probe_chunk_bytes = 32 * 1024;
  /// Re-probe idle phones this often (0 = probe only at registration).
  /// The paper: WiFi needs only infrequent probes, but cellular links
  /// "require more frequent bandwidth measurements".
  Millis reprobe_period = 0.0;
  /// Re-send a still-unreported assignment after this long, doubling the
  /// interval on each retry (0 = never re-send). Assignments carry stable
  /// (piece, attempt) IDs, and agents replay completed work idempotently,
  /// so re-delivery is safe when the original frame or its report was
  /// lost. After `assign_max_retries` re-sends the phone is declared lost.
  Millis assign_retry_period = 0.0;
  int assign_max_retries = 5;
  /// Deadline for in-flight RPC exchanges (0 = none): a connection that
  /// does not register, or a probe that never reports, within this window
  /// is dropped instead of wedging a server slot forever.
  Millis rpc_timeout = 0.0;
  /// Listening port (0 = kernel-assigned) and interface scope.
  std::uint16_t port = 0;
  bool bind_all_interfaces = false;
  /// Batch journal for crash recovery (empty = journaling disabled).
  std::string journal_path;
  /// Speculative re-execution of straggler pieces (core/speculation.h).
  core::SpeculationOptions speculation;
  /// Straggler-check cadence (0 = once per scheduling_period).
  Millis speculation_check_period = 0.0;
  /// Phone-health scoring and quarantine thresholds (core/health.h).
  core::HealthOptions health;
  /// Grid size for content-addressed shipping (common/chunk.h). Executables
  /// and inputs are chunked on this grid and only chunks missing from a
  /// phone's cache are shipped; 0 disables chunking (full shipping for
  /// every phone, as do agents that register without a cache budget).
  std::size_t chunk_bytes = 64 * 1024;
  /// Optional external stop request (e.g. set from a SIGINT/SIGTERM
  /// handler): run() returns at the next loop iteration when the pointed-to
  /// flag becomes true, so callers can flush metrics and traces cleanly.
  const std::atomic<bool>* stop = nullptr;
  /// TESTING ONLY — re-enables the pre-PR-4 stale-ack bug: completion
  /// reports that fail the (piece, attempt) in-flight match are banked
  /// anyway, double-aggregating replayed results. Exists so the soak
  /// harness can prove its exactly-once invariant catches the regression
  /// and shrinks the schedule that provokes it. Never enable in service.
  bool bank_stale_reports = false;
};

class CwcServer {
 public:
  CwcServer(std::unique_ptr<core::Scheduler> scheduler, core::PredictionModel prediction,
            const tasks::TaskRegistry* registry, ServerConfig config = {});

  std::uint16_t port() const { return listener_.port(); }

  /// Submits a job; its executable size is taken from the task factory.
  JobId submit(const std::string& task_name, Blob input);

  /// Restores a previous run's journal into this server: completed jobs
  /// become immediately-done results; partially-completed jobs resubmit
  /// only their unprocessed bytes with the banked partials attached.
  /// Returns old-journal-id -> new-id (completed jobs map too).
  std::map<JobId, JobId> recover_from(const std::string& journal_path);

  /// Runs the event loop until every submitted job has an aggregated
  /// result (and the controller is drained) or `timeout` elapses. Waits
  /// for `expected_phones` registrations before the first scheduling
  /// instant. Returns true when all jobs completed.
  bool run(int expected_phones, Millis timeout);

  /// The server's event loop. Tools may attach additional watchers and
  /// timers (the obs HTTP endpoint, metrics/timeseries ticks) before
  /// calling run(); their callbacks then share the single writer thread.
  EventLoop& loop() { return loop_; }

  /// Aggregated final result of a completed job.
  const Blob& result(JobId job) const;
  bool job_done(JobId job) const;

  const core::CwcController& controller() const { return controller_; }

  /// Random nonce identifying this server run, echoed in registration
  /// acks so agents can invalidate replay caches across server restarts
  /// (piece ids restart at 0 with the process).
  std::uint64_t epoch() const { return epoch_; }

  /// Diagnostics.
  std::size_t probes_sent() const { return probes_sent_; }
  /// Times any phone was declared lost; safe to poll from another thread
  /// while run() is live.
  std::size_t phones_lost() const { return phones_lost_.load(std::memory_order_relaxed); }
  /// The same per phone (phones never lost are absent). Read it on the
  /// loop thread or after run() returns.
  const std::map<PhoneId, std::size_t>& losses_by_phone() const { return losses_by_phone_; }
  std::size_t failures_received() const { return failures_received_; }
  std::size_t scheduling_rounds() const { return scheduling_rounds_; }
  std::size_t speculative_launches() const { return lifecycle_.stats().launched; }
  std::size_t speculative_wins_backup() const { return lifecycle_.stats().wins_backup; }
  std::size_t duplicate_completions() const { return lifecycle_.stats().duplicates; }

 private:
  /// Byte ranges [begin, end) of a job's input.
  using Fragments = std::vector<std::pair<std::size_t, std::size_t>>;

  struct JobState {
    core::JobSpec spec;
    Blob input;
    /// The executable this job ships, shared by every job of its size
    /// (null for jobs a previous process finished).
    const ExecutableImage* executable = nullptr;
    /// Content-addressed shipping: the grid chunks of the original input
    /// (empty when chunking is off). Chunk offsets are positions in
    /// `input`, so any slice can be re-assembled from cached chunks plus
    /// its fragment ranges.
    std::vector<ChunkRef> input_chunks;
    /// Unshipped byte ranges (breakable jobs). Atomic jobs ship whole.
    std::deque<std::pair<std::size_t, std::size_t>> pending_ranges;
    std::vector<Blob> partials;
    std::size_t bytes_completed = 0;
    bool done = false;
    Blob final_result;
  };

  struct Connection {
    Connection(EventLoop& loop, TcpConnection accepted, EventLoop::Task on_send_failed)
        : conn(std::move(accepted)), outbox(loop, conn, std::move(on_send_failed)) {}

    TcpConnection conn;
    Outbox outbox;  ///< every send to this phone; closed by teardown
    FrameDecoder decoder;
    PhoneId phone = kInvalidPhone;
    bool registered = false;
    bool probing = false;
    bool ready = false;       ///< registered + probed: schedulable
    std::uint32_t piece_seq = 0;
    /// Byte ranges of the in-flight slice. Breakable pieces may span
    /// several non-contiguous ranges (failures fragment the pending pool;
    /// record-aligned fragments concatenate into a valid input). Atomic
    /// pieces have a single range whose begin is the resume offset.
    Fragments piece_fragments;
    /// Keep-alive liveness: a miss is one keep-alive tick where the most
    /// recently sent ping is still unacknowledged; any ack of the latest
    /// ping resets the count, so only *consecutive* misses accumulate.
    /// The phone is declared lost at `keepalive_misses` consecutive
    /// misses — worst-case detection latency period x (misses + 1).
    std::uint64_t keepalive_seq = 0;    ///< seq of the last ping sent
    std::uint64_t keepalive_acked = 0;  ///< highest latest-ping ack seen
    int keepalive_missed = 0;           ///< consecutive unanswered ticks
    /// Wall-clock send time of the latest ping (the run clock ticks at
    /// poll granularity — too coarse for a loopback RTT histogram).
    std::chrono::steady_clock::time_point keepalive_sent_at{};
    /// Latest telemetry block shipped on a keep-alive ack; stays false for
    /// legacy agents, whose acks carry the seq alone.
    bool has_stats = false;
    AgentStats last_stats;
    /// In-flight assignment for idempotent re-delivery: the encoded frame
    /// is kept until its report arrives so a retry timer can re-send it
    /// verbatim (same piece_seq, same (piece, attempt) identity). Shared
    /// with the outbox, so a re-send queues no copy.
    Outbox::Payload assign_frame;
    double assign_sent_ms = 0.0;  ///< run-clock time of the last (re)send
    int assign_retries = 0;
    double connected_ms = 0.0;    ///< run-clock time the socket was accepted
    double last_probe_ms = 0.0;   ///< run-clock time of the last probe
    /// Liveness reset on parole: true while the phone sat quarantined with
    /// keep-alives suppressed, so reinstatement forgives the stale streak.
    bool keepalive_suspended = false;
    /// Event-loop deadlines owned by this connection: the in-flight
    /// assignment's re-delivery timer, the registration/probe RPC
    /// deadline, and the idle re-probe alarm. All cancelled on teardown.
    TimerId retry_timer = kInvalidTimer;
    TimerId rpc_timer = kInvalidTimer;
    TimerId reprobe_timer = kInvalidTimer;
    /// The re-probe alarm fired while the phone was busy: probe at the
    /// next idle transition instead.
    bool reprobe_due = false;
  };

  /// A piece is in flight on this connection's phone (the lifecycle
  /// engine owns that state).
  bool busy(const Connection& c) const { return lifecycle_.running(c.phone) != nullptr; }
  void accept_new_connections();
  void service_connection(Connection& c);
  void handle_frame(Connection& c, const Blob& frame);
  void start_probe(Connection& c);
  void assign_next_piece(Connection& c);
  /// True when the report matches the in-flight piece on this connection
  /// (piece_seq and, when echoed, the (piece, attempt) identity).
  bool report_matches_inflight(const Connection& c, std::uint32_t piece_seq,
                               std::int32_t piece, std::int32_t attempt) const;
  void on_complete(Connection& c, const PieceCompleteMsg& msg);
  void on_failed(Connection& c, const PieceFailedMsg& msg);
  /// True when assignments to this phone should use chunked shipping (the
  /// server chunks and the phone registered a cache budget).
  bool chunking_enabled(const Connection& c) const;
  /// An assignment's fields plus its payloads, borrowed from the job's
  /// input and executable image: encode(fields, payloads) copies each
  /// payload byte once, straight into the frame.
  struct Assignment {
    AssignPieceMsg fields;  ///< its blobs stay empty; `payloads` carries them
    AssignPayloads payloads;
  };
  /// Chunked form of an assignment for a cache-enabled phone: consults the
  /// phone's directory, lists every chunk of the executable (when
  /// `ship_executable`) and of the input `wire_fragments`, gathers only the
  /// missing chunks' payloads, and updates the directory and cache
  /// counters.
  void chunk_assignment(Connection& c, Assignment& assignment, const JobState& job,
                        bool ship_executable, const Fragments& wire_fragments);
  /// An assignment for `c` that ships the job's executable (unless the
  /// phone caches it) and the concatenated `fragments` of its input,
  /// chunked when the phone has a cache.
  Assignment new_assignment(Connection& c, const JobState& job,
                            const core::PieceIdentity& identity, bool executable_cached,
                            const Fragments& fragments);
  /// The phone reported cached chunks missing/corrupt: evict them from the
  /// directory mirror and re-send the in-flight assignment with those
  /// chunks force-shipped.
  void on_chunk_request(Connection& c, const ChunkRequestMsg& msg);
  void drop_connection(Connection& c, bool lost);
  /// Posted by an outbox whose write failed: drops every connection whose
  /// outbox has failed, now that no handler of the round is using it.
  void drop_failed_connections();
  /// Straggler check: measures batch progress over input bytes and lets
  /// the lifecycle engine launch backups.
  void maybe_speculate();
  /// Lifecycle hooks: ship a backup of `attempt` (the primary's exact byte
  /// ranges) to `backup_id`, and send CancelPiece for a cancelled attempt
  /// (the connection is then free for new work).
  bool ship_backup(PhoneId backup_id, PhoneId primary_id, const core::Attempt& attempt);
  void cancel_attempt(PhoneId phone, const core::Attempt& attempt);
  Connection* find_connection(PhoneId phone);
  void send_keepalives(double now_ms);
  /// Publishes this phone's gauges (health state, cache%, in-flight,
  /// shipped stats) under `phone.<id>.*` — the per-phone rows /metrics and
  /// cwc_top render.
  void publish_phone_gauges(const Connection& c);
  /// Rolls the per-connection stats blocks up into `fleet.*` gauges.
  void publish_fleet_gauges();
  /// Closes the outbox, unwatches, cancels this connection's timers,
  /// closes the socket, and posts a reap of invalid connections for after
  /// the dispatch round.
  void teardown_connection(Connection& c);
  void request_reap();
  /// Assignment re-delivery timer (see assign_retry_period): armed on
  /// every (re)send, cancelled when the report lands; each firing doubles
  /// the interval until assign_max_retries declares the phone lost.
  void arm_assign_retry(Connection& c);
  void cancel_assign_retry(Connection& c);
  void on_assign_retry(Connection& c);
  /// RPC deadlines as one-shot timers: a connection that never registers,
  /// or a probe that never reports, within rpc_timeout is dropped.
  void arm_registration_deadline(Connection& c);
  void on_registration_deadline(Connection& c);
  void on_probe_deadline(Connection& c);
  /// Idle re-probe alarm (see reprobe_period); fires on the timer, or at
  /// the next idle transition when the phone was busy at the deadline.
  void on_reprobe_due(Connection& c);
  void maybe_reprobe(Connection& c);
  /// First-schedule gate + periodic rescheduling, event-driven: called on
  /// the scheduling timer and on ready-count transitions (probe reports).
  void maybe_schedule();
  void on_scheduling_tick();
  /// Batch-complete check: when every job has aggregated and the
  /// controller drained, send shutdowns and stop the loop.
  void check_run_complete();
  /// Journal write failed: log, count, and disable journaling (the file
  /// tail may be torn; replay recovers the longest valid prefix).
  void on_journal_error(const std::exception& error);
  void scheduling_instant();
  /// Live connections in phone-id order. Slices are carved off the pending
  /// pool in the order phones are served, so serving them in accept order
  /// would let an agent-connect race decide which bytes each phone gets.
  std::vector<Connection*> connections_by_phone();
  /// Aggregates the job once its last input byte (atomic: its one report)
  /// is banked.
  void maybe_finish_job(JobId job);
  bool all_jobs_done() const { return jobs_outstanding_ == 0; }
  /// Cuts the next ~`kb` of record-aligned bytes from the job's pending
  /// ranges, spanning multiple ranges if the pool is fragmented.
  Fragments carve_slice(JobState& job, Kilobytes kb);

  core::CwcController controller_;
  core::PieceLifecycle lifecycle_;
  const tasks::TaskRegistry* registry_;
  ServerConfig config_;
  TcpListener listener_;
  /// Single-writer event loop: all mutation of controller_, jobs_ and
  /// journal_ happens in its callbacks on the thread that calls run().
  EventLoop loop_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<JobId, JobState> jobs_;
  /// Jobs submitted and not yet aggregated: submit counts up,
  /// maybe_finish_job counts down.
  std::size_t jobs_outstanding_ = 0;
  ExecutableImages executables_;
  /// One receive buffer for every connection: the loop is single-threaded
  /// and each read is fed to that connection's decoder before the next.
  Blob recv_buffer_ = Blob(kRecvBufferBytes);
  /// Per-phone chunk directory mirrors (only phones that registered a
  /// cache budget have one) and the locality index the scheduler reads
  /// them through. std::map node stability keeps the attached pointers
  /// valid as phones come and go.
  std::map<PhoneId, ChunkDirectory> chunk_dirs_;
  core::ChunkLocalityIndex locality_;
  std::unique_ptr<Journal> journal_;
  std::uint64_t epoch_ = 0;  ///< per-run nonce (see epoch())
  std::size_t probes_sent_ = 0;
  std::atomic<std::size_t> phones_lost_{0};
  std::map<PhoneId, std::size_t> losses_by_phone_;
  std::size_t failures_received_ = 0;
  std::size_t scheduling_rounds_ = 0;
  double now_ms_ = 0.0;  ///< run-clock time of the current loop iteration
  bool shutdown_sent_ = false;
  /// run() state, event-driven: the first scheduling instant waits for
  /// `expected_phones_` ready phones; completion stops the loop.
  int expected_phones_ = 0;
  bool first_schedule_done_ = false;
  double last_instant_ms_ = -1e18;
  bool run_complete_ = false;
  bool reap_pending_ = false;
};

}  // namespace cwc::net
