// Discrete-event simulation of the CWC testbed (Section 6).
//
// The simulator is the stand-in for the paper's 18 physical Android
// phones: it executes a CwcController's decisions over simulated time,
// with ground-truth execution costs the *scheduler cannot see* — each
// phone has a hidden efficiency factor and per-piece execution noise, so
// the prediction model has real error to correct (Fig. 6) and fast phones
// genuinely finish early (Fig. 12a).
//
// Per-phone execution cycle, as in the prototype: the server copies the
// executable (once per job per phone) and the piece's input; the phone
// executes locally; the completion report carries the actual local
// execution time, which refines the prediction model. Failures are
// injected as timed events:
//   - online unplug: the phone reports processed KB + checkpoint, and the
//     remainder joins F_A immediately;
//   - offline loss: the phone goes silent; the server only notices after
//     `keepalive_misses` missed keep-alives (30 s period, 3 misses in the
//     prototype) and then requeues everything the phone held;
//   - replug: the phone re-enters the pool at the next scheduling instant.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/chunk.h"
#include "common/rng.h"
#include "core/controller.h"
#include "core/lifecycle.h"
#include "core/locality.h"
#include "core/model.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"

namespace cwc::sim {

/// Per-phone chunk directories that outlive one simulated batch. A repeat
/// campaign constructs a fresh TestbedSimulation per batch and shares one
/// of these across them (share_chunk_state), mirroring real agents whose
/// caches persist between nightly batches.
struct FleetChunkState {
  std::map<PhoneId, ChunkDirectory> directories;
};

struct SimOptions {
  /// Multiplicative lognormal noise sd on per-piece execution time.
  double exec_noise_sd = 0.03;
  /// Scheduling instants occur this often (when work is pending).
  Millis scheduling_period = seconds(120.0);
  /// Keep-alive probing (offline-failure detection = period * misses).
  Millis keepalive_period = seconds(30.0);
  int keepalive_misses = 3;
  /// Hard stop for runaway scenarios.
  Millis max_time = hours(24.0);
  /// Phone-health scoring and quarantine thresholds (core/health.h).
  core::HealthOptions health;
  /// Speculative re-execution of straggler pieces (core/speculation.h).
  core::SpeculationOptions speculation;
  /// Straggler-check cadence (0 = once per scheduling_period).
  Millis speculation_check_period = 0.0;
  /// Content-addressed shipping mirror (common/chunk.h): grid size and
  /// per-phone cache budget. Both > 0 enables chunk-level transfer
  /// accounting — only chunks missing from a phone's directory pay
  /// transfer time. Chunk ids are synthetic but stable across identical
  /// re-submissions, so repeat campaigns hit.
  Kilobytes chunk_kb = 0.0;
  double cache_mb = 0.0;
  /// When chunking is on, also bind the locality index to the scheduler so
  /// assignment *routes* toward warm phones; off = locality-blind baseline
  /// (same caching, no routing credit) for A/B comparisons.
  bool locality_aware = true;
};

enum class FailureKind { kUnplugOnline, kUnplugOffline, kReplug };

struct FailureEvent {
  Millis time = 0.0;
  PhoneId phone = kInvalidPhone;
  FailureKind kind = FailureKind::kUnplugOnline;
};

/// One stretch of a phone's timeline (the bars of Fig. 12a/12c).
struct TimelineSegment {
  PhoneId phone = kInvalidPhone;
  Millis start = 0.0;
  Millis end = 0.0;
  enum class Kind { kTransfer, kExecute } kind = Kind::kExecute;
  JobId job = kInvalidJob;
  /// True when this execution belongs to work re-scheduled after a failure
  /// (the shaded bars of Fig. 12c).
  bool rescheduled = false;
};

struct SimResult {
  bool completed = false;      ///< all work finished before max_time
  Millis makespan = 0.0;       ///< completion time of the last piece
  Millis predicted_makespan = 0.0;  ///< scheduler's round-0 prediction
  std::size_t scheduling_rounds = 0;
  /// Derived from the run's event trace at the end of run() (see
  /// sim/timeline_svg.h segments_from_trace): one segment per transfer /
  /// execution span the phones actually performed, sorted by start time.
  std::vector<TimelineSegment> timeline;
  core::Schedule first_schedule;

  /// Completion time of the last piece that was *not* rescheduled work —
  /// Fig. 12c reports recovery cost as (makespan - original makespan).
  Millis original_makespan = 0.0;

  /// Trace watermark taken as the run began: pass to
  /// obs::TraceRecorder::snapshot() / write_trace_file() to export exactly
  /// this run's events from the global recorder.
  std::uint64_t trace_begin = 0;

  /// Bytes that actually crossed the links this run (executables + input
  /// pieces, minus chunk-cache hits). Without chunking this equals the
  /// full shipped volume, so warm-vs-cold and aware-vs-blind comparisons
  /// read straight off this field.
  Kilobytes shipped_kb = 0.0;
  /// Bytes served from per-phone chunk caches instead of the link.
  Kilobytes cache_hit_kb = 0.0;
};

/// Simulates one CWC batch run end to end.
class TestbedSimulation {
 public:
  TestbedSimulation(std::unique_ptr<core::Scheduler> scheduler,
                    core::PredictionModel prediction, std::vector<core::PhoneSpec> phones,
                    SimOptions options, std::uint64_t seed);

  /// Ground truth c_sj for a task (reference cost on the 806 MHz phone).
  /// Defaults to the built-in registry's reference costs; override to
  /// model prediction error beyond hidden efficiencies.
  void set_ground_truth(const std::string& task, MsPerKb c_sj, double reference_mhz = 806.0);

  JobId submit(core::JobSpec job) {
    total_kb_ += job.input_kb;
    const JobId id = controller_.submit(std::move(job));
    register_job_chunks(id);
    return id;
  }
  void inject(FailureEvent event) { failures_.push_back(event); }

  /// Points this simulation at externally-owned per-phone chunk
  /// directories (repeat campaigns: caches persist across batches). Call
  /// right after construction, before submit()/run(). Directories for
  /// this fleet's phones are created on demand with the configured budget;
  /// existing ones keep their contents.
  void share_chunk_state(FleetChunkState* state);

  SimResult run();

  /// Mirrors the live server's time-series sampling on the *virtual*
  /// clock: when set, the sampler captures the registries at every
  /// scheduling instant, stamped with simulated time — so campaign plots
  /// line up with live /metrics series. Not owned; must outlive run().
  void set_sampler(obs::TimeSeriesSampler* sampler) { sampler_ = sampler; }

  const core::CwcController& controller() const { return controller_; }
  core::CwcController& controller() { return controller_; }

  /// True execution cost (ms/KB) of `task` on `phone` before noise:
  /// c_sj * S / A / hidden_efficiency.
  MsPerKb true_cost(const std::string& task, const core::PhoneSpec& phone) const;

 private:
  /// Virtual-time state of one phone; which attempt it runs, and any
  /// speculation pairing, live in the lifecycle engine.
  struct PhoneRuntime {
    core::PhoneSpec spec;
    std::uint64_t epoch = 0;   ///< invalidates in-flight events
    bool alive = true;         ///< false while unplugged/offline
    Millis transfer_start = 0.0;
    Millis transfer_end = 0.0;
    Millis execute_end = 0.0;
    /// Total transfer+execute time spent on pieces (including the partial
    /// work of failed pieces) — the numerator of per-phone utilization.
    Millis busy_ms = 0.0;
    /// Input KB that crossed the link for the in-flight piece (misses
    /// only under chunking) — the kPieceShipped span value.
    Kilobytes shipped_kb = 0.0;
    /// Input byte range [first, second) the in-flight piece claimed from
    /// the job's chunk grid; a backup re-ships the primary's range.
    std::pair<std::uint64_t, std::uint64_t> claimed{0, 0};
  };

  void schedule_instant();
  void chain_instant();
  void start_next_piece(PhoneId phone);
  /// Ships a piece to the phone at now (chunk accounting, link time) and
  /// schedules its completion after a ground-truth execution time.
  void dispatch(PhoneId phone, const core::JobSpec& job, Kilobytes input_kb, bool ship_exec,
                const core::PieceIdentity& identity);
  void finish_piece(PhoneId phone, std::uint64_t epoch);
  void apply_failure(const FailureEvent& event);
  void maybe_finish();
  void chain_speculation_check();
  /// Lifecycle hooks: put a backup of `attempt` into virtual time on
  /// `backup_id`, and stop a cancelled attempt (its completion event is
  /// invalidated by the epoch bump).
  bool ship_backup(PhoneId backup_id, PhoneId primary_id, const core::Attempt& attempt);
  void on_cancelled(PhoneId phone, const core::Attempt& attempt);

  bool chunking_enabled() const {
    return options_.chunk_kb > 0.0 && options_.cache_mb > 0.0;
  }
  /// Creates/adopts this fleet's directories in *chunks_ and (re)attaches
  /// them to the locality index when locality_aware.
  void attach_fleet();
  /// Builds the job's synthetic chunk grids and publishes its manifest to
  /// the locality index. No-op when chunking is off.
  void register_job_chunks(JobId id);
  /// Chunk-level transfer accounting for one assignment against `phone`'s
  /// directory: misses are inserted (LRU-evicting) and returned as the KB
  /// to ship; hits are touched and counted. Emits the hit trace event.
  struct ShipAccount {
    Kilobytes exec_kb = 0.0;   ///< executable KB that must ship
    Kilobytes input_kb = 0.0;  ///< input KB that must ship
    Kilobytes hit_kb = 0.0;    ///< KB served from the phone's cache
  };
  ShipAccount chunked_ship(PhoneId phone, JobId job, bool ship_exec,
                           std::uint64_t begin, std::uint64_t end,
                           const core::PieceIdentity& identity);

  core::CwcController controller_;
  core::PieceLifecycle lifecycle_;
  SimOptions options_;
  EventQueue events_;
  Rng rng_;
  std::map<PhoneId, PhoneRuntime> runtime_;
  std::map<std::string, std::pair<MsPerKb, double>> ground_truth_;
  std::vector<FailureEvent> failures_;
  bool failures_armed_ = false;
  std::set<JobId> ever_failed_jobs_;
  SimResult result_;
  Kilobytes total_kb_ = 0.0;      ///< submitted input volume
  Kilobytes completed_kb_ = 0.0;  ///< input volume of completed pieces
  bool spec_check_armed_ = false;

  /// Content-addressed shipping mirror (chunking_enabled()). Directories
  /// live in *chunks_ — by default the owned state, or an external
  /// FleetChunkState after share_chunk_state().
  struct JobChunks {
    std::vector<ChunkId> exec;   ///< grid over the synthetic executable
    std::vector<ChunkId> input;  ///< grid over the job input
    std::uint64_t input_bytes = 0;
  };
  FleetChunkState owned_chunks_;
  FleetChunkState* chunks_ = nullptr;
  core::ChunkLocalityIndex locality_;
  std::map<JobId, JobChunks> job_chunks_;
  /// Next unclaimed input-grid offset per job: each shipped piece claims
  /// the next input_kb bytes, so identical re-submissions claim identical
  /// ranges (stable ids -> repeat batches hit).
  std::map<JobId, std::uint64_t> claim_cursor_;
  /// Per-task submission counter feeding the synthetic input content key:
  /// same task+occurrence -> same content across batches, distinct jobs of
  /// one task within a batch stay distinct.
  std::map<std::string, std::uint64_t> task_occurrence_;
  Kilobytes shipped_kb_total_ = 0.0;
  Kilobytes cache_hit_kb_total_ = 0.0;
  obs::TimeSeriesSampler* sampler_ = nullptr;  ///< see set_sampler()
};

}  // namespace cwc::sim
