// Simulated workloads: fleet-scale nights in the real sim::TestbedSimulation,
// the whole batch submitted at t=0, with seeded online and offline unplugs,
// replugs, and speculation on.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/pod_packing.h"
#include "core/testbed.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cwc;

struct SimSpec {
  std::size_t phones = 0;
  std::size_t jobs = 0;     ///< the paper's 150-job batch, cycled to this count
  double input_scale = 1.0; ///< paper_workload's size_scale
  bool pods = false;        ///< PodPackingScheduler with automatic pod count
  /// Each seed draws this many online and as many offline unplugs inside
  /// the window; every unplugged phone replugs later.
  int unplugs_per_kind = 0;
  Millis failure_window_ms = 0.0;
};

/// The fleet and the batch are the same for every seed, so a seed varies
/// only the failures and the execution noise, not the amount of work.
constexpr std::uint64_t kFleetSeed = 2012;
/// A simulator sets up in about a millisecond, so each batch times this
/// many setups and reports their median.
constexpr int kSetups = 10;

class SimWorkload final : public Workload {
 public:
  SimWorkload(const Options& options, SimSpec spec) : options_(options), spec_(spec) {
    Rng rng(kFleetSeed);
    Rng fleet_rng = rng.fork();
    Rng workload_rng = rng.fork();
    Rng failure_rng(options.seed);
    phones_ = sim::scaled_fleet(fleet_rng, spec_.phones);
    const std::vector<core::JobSpec> batch = core::paper_workload(workload_rng, spec_.input_scale);
    for (std::size_t i = 0; i < spec_.jobs; ++i) {
      core::JobSpec job = batch[i % batch.size()];
      job.id = static_cast<JobId>(i);
      input_mb_ += job.input_kb / 1024.0;
      jobs_.push_back(job);
    }
    // Stratified draws: failure k falls in the k-th slice of the window and
    // on a phone of the k-th block of the fleet, alternating online and
    // offline, so every seed spreads its failures over the night and over
    // the phone types and seeds differ only within those strata.
    const int failures = 2 * spec_.unplugs_per_kind;
    const Millis first = seconds(30.0);
    const std::size_t block = std::max<std::size_t>(1, phones_.size() / failures);
    for (int k = 0; k < failures; ++k) {
      const std::size_t index =
          (static_cast<std::size_t>(k) * block +
           static_cast<std::size_t>(failure_rng.uniform_int(0, static_cast<std::int64_t>(block) - 1))) %
          phones_.size();
      const PhoneId phone = phones_[index].id;
      const Millis when = first + (spec_.failure_window_ms - first) *
                                      (static_cast<double>(k) + failure_rng.uniform()) / failures;
      failures_.push_back({when, phone,
                           k % 2 == 0 ? sim::FailureKind::kUnplugOnline
                                      : sim::FailureKind::kUnplugOffline});
      failures_.push_back({when + failure_rng.uniform(seconds(60.0), seconds(300.0)), phone,
                           sim::FailureKind::kReplug});
    }
  }

  Iteration run(std::int64_t batch, bool traced) override {
    Iteration it;
    it.traced = traced;
    it.jobs_submitted = jobs_.size();
    it.input_mb = input_mb_;
    sim::SimOptions sim_options;
    sim_options.speculation.enabled = true;

    BuildLog builds;
    builds.batch = batch;
    const CounterSnapshot counters_before = CounterSnapshot::take(observed_counters());
    SpanRecorder::global().set_enabled(traced);
    // The simulated night's first scheduling instant is run()'s t=0, so
    // setup is construction plus submits; the last of the setups is run.
    std::vector<double> setups;
    std::unique_ptr<sim::TestbedSimulation> simulation;
    for (int k = 0; k < kSetups; ++k) {
      ScopedSpan setup("sim", "setup", batch);
      const Clock::time_point start = Clock::now();
      std::unique_ptr<core::Scheduler> inner;
      if (spec_.pods) {
        inner = std::make_unique<core::PodPackingScheduler>(core::PodPackingScheduler::Options{});
      } else {
        inner = std::make_unique<core::GreedyScheduler>();
      }
      simulation = std::make_unique<sim::TestbedSimulation>(
          std::make_unique<TimingScheduler>(std::move(inner), &builds), core::paper_prediction(),
          phones_, sim_options, options_.seed);
      for (const core::JobSpec& job : jobs_) simulation->submit(job);
      for (const sim::FailureEvent& event : failures_) simulation->inject(event);
      setups.push_back(seconds_between(start, Clock::now()));
    }
    sim::SimResult result;
    const Clock::time_point run_start = Clock::now();
    {
      ScopedSpan span("sim", "run", batch);
      result = simulation->run();
    }
    const Clock::time_point end = Clock::now();
    SpanRecorder::global().set_enabled(false);
    simulation.reset();
    const CounterSnapshot counters_after = CounterSnapshot::take(observed_counters());

    it.completed = result.completed && builds.started;
    it.makespan_s = result.makespan / 1e3;
    if (!reference_makespan_ms_) {
      // The first batch of a run is the reference every later same-seed
      // batch must reproduce exactly.
      reference_makespan_ms_ = result.makespan + (options_.corrupt_reference ? 1.0 : 0.0);
    }
    if (!it.completed || result.makespan != *reference_makespan_ms_) {
      std::fprintf(stderr, "perfbench: simulated batch %s (makespan %.3f s, reference %.3f s)\n",
                   result.completed ? "diverged from its reference" : "did not complete",
                   result.makespan / 1e3, *reference_makespan_ms_ / 1e3);
      it.jobs_failed = jobs_.size();
    }
    it.setup_s = median(setups);
    it.batch_s = seconds_between(run_start, end);
    fill_obs_layers(counters_before, counters_after, it);
    it.pieces = static_cast<double>(builds.first_pieces);
    auto& layer = it.layer;
    layer["core.scheduler.builds"] = static_cast<double>(builds.builds);
    layer["core.scheduler.build_ms"] = builds.build_ms;
    layer["core.scheduler.first_build_ms"] = builds.first_build_ms;
    layer["sim.run_self_ms"] = seconds_between(run_start, end) * 1e3 - builds.build_ms;
    return it;
  }

 private:
  Options options_;
  SimSpec spec_;
  std::vector<core::PhoneSpec> phones_;
  std::vector<core::JobSpec> jobs_;
  std::vector<sim::FailureEvent> failures_;
  double input_mb_ = 0.0;
  std::optional<Millis> reference_makespan_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_workload(const Options& options) {
  SimSpec spec;
  if (options.workload == "sim-flat") {
    spec.phones = 576;
    spec.jobs = 2304;
    spec.input_scale = 1.0;
    spec.unplugs_per_kind = 16;
    spec.failure_window_ms = seconds(400.0);
  } else if (options.workload == "sim-pods") {
    spec.phones = 576;
    spec.jobs = 150;
    spec.input_scale = 32.0;
    spec.pods = true;
    spec.unplugs_per_kind = 4;
    spec.failure_window_ms = seconds(800.0);
  } else {
    return nullptr;
  }
  if (options.size < 1.0) {
    spec.phones = std::max<std::size_t>(
        18, static_cast<std::size_t>(static_cast<double>(spec.phones) * options.size));
    spec.jobs = std::max<std::size_t>(
        24, static_cast<std::size_t>(static_cast<double>(spec.jobs) * options.size));
  }
  return std::make_unique<SimWorkload>(options, spec);
}

}  // namespace perfbench
