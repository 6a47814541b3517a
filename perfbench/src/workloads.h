// The benchmark's workloads: live loopback batches against the real
// net::CwcServer, and fleet-scale nights in the real sim::TestbedSimulation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies the workload's job count (and fleet, for the sims); the
  /// self-test runs every workload at a tiny size.
  double size = 1.0;
  /// Self-test hook: perturb the reference so the check must fail.
  bool corrupt_reference = false;
  /// Scratch directory for journals and trace files (inside the checkout).
  std::string work_dir = ".";
};

/// One batch, start to finish.
struct Iteration {
  bool traced = false;
  bool completed = false;
  double setup_s = 0.0;
  double batch_s = 0.0;
  double makespan_s = 0.0;
  double pieces = 0.0;
  double input_mb = 0.0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_failed = 0;
  std::size_t phones_lost = 0;
  /// Live agents whose connection the server closed before its shutdown
  /// frame (a keep-alive ack racing the end of the batch, or a real drop).
  std::size_t agent_disconnects = 0;
  double assign_retries = 0.0;
  double stale_reports = 0.0;
  /// Per-layer scalars, keyed by their BENCHMARK.json names.
  std::map<std::string, double> layer;
  /// Latency samples taken during the batch, keyed by metric prefix
  /// ("net.server.piece_rtt_ms", "net.server.keepalive_rtt_ms").
  std::map<std::string, HistogramSnapshot> latency;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one batch; `batch` is its span id, `traced` whether spans record.
  virtual Iteration run(std::int64_t batch, bool traced) = 0;
};

/// Null when `options.workload` names no workload of that substrate.
std::unique_ptr<Workload> make_live_workload(const Options& options);
std::unique_ptr<Workload> make_sim_workload(const Options& options);

/// The obs counters every workload reads deltas of.
const std::vector<std::string>& observed_counters();

/// Fills the per-layer metrics that both substrates read from obs deltas.
void fill_obs_layers(const CounterSnapshot& before, const CounterSnapshot& after, Iteration& it);

}  // namespace perfbench
