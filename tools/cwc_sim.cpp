// cwc_sim — run the discrete-event testbed simulator from the command line.
//
// Reproduce the paper's experiments at any scale without writing code:
//
//   # the Fig. 12 batch, with 3 random unplugs, timeline SVG out
//   cwc_sim --scale=1.0 --unplugs=3 --svg=timeline.svg
//
//   # baseline comparison at a custom scale and fleet size
//   cwc_sim --scale=0.5 --phones=12 --scheduler=equal-split
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/flags.h"
#include "common/link_fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/link_obs.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "core/failure_aware.h"
#include "core/greedy.h"
#include "core/pod_packing.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "sim/churn.h"
#include "sim/energy.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "sim/timeline_svg.h"

using namespace cwc;

namespace {
constexpr const char* kUsage = R"(cwc_sim: CWC testbed simulator
  --scheduler=NAME     cwc-greedy (default) | cwc-pods | equal-split |
                       round-robin | lpt
  --pods=auto|N        hierarchical pod packing: partition the fleet into N
                       pods (auto = one pod per 128 schedulable phones) and
                       pack them concurrently. Implies --scheduler=cwc-pods.
  --phones=N           fleet size, cycling the 18-phone testbed (default 18)
  --scale=X            workload scale; 1.0 = the paper's 150-task batch (default 1.0)
  --unplugs=N          unplug N random phones mid-run (online failures)
  --offline            make injected unplugs silent (keep-alive loss)
  --churn=SPEC         phone-churn profiles, e.g. "0:slow:10,3:flaky,5:flapping"
                       (slow:F divides the phone's hidden efficiency by F;
                       flaky = online unplug/replug cycles; flapping =
                       offline cycles; seeded from --seed)
  --speculation=on|off speculative re-execution of straggler pieces
                       (default off)
  --straggler-factor=X back up a piece when its expected remaining time
                       exceeds X times the median of the others (default 2)
  --spec-fraction=X    only speculate past this done fraction (default 0.75)
  --health-alpha=X     EWMA weight of the phone-health score (default 0.3)
  --health-quarantine=X  quarantine threshold of the health score (default 0.8)
  --health-parole-ticks=N  instants quarantined before parole (default 3)
  --chunk-kb=N         content-addressed shipping: chunk grid size in KB
                       (0 = off, ship everything whole; default 0)
  --cache-mb=X         per-phone chunk-cache budget in MB (required with
                       --chunk-kb; both > 0 enable chunking)
  --locality=on|off    route assignments toward phones already holding a
                       job's chunks (default on; off = blind baseline that
                       still caches but never routes for it)
  --batches=N          run the identical batch N times with phone caches
                       persisting in between (repeat-campaign model;
                       default 1). Prints per-batch shipped KB.
  --link-spec=SPEC     arm the link fault plane on virtual time, e.g.
                       "link:phone=3:partition@t=10s,dur=5s" (grammar in
                       src/common/link_fault.h; seeded from --seed)
  --seed=N             RNG seed (default 42)
  --svg=FILE           write the execution timeline as SVG
  --metrics-out=FILE   write a telemetry snapshot (.csv = CSV, else JSON)
  --timeseries-out=FILE  sample every metric at each scheduling instant
                       (virtual-clock timestamps) and write the series JSON
  --trace-out=FILE     write the run's event trace as Chrome trace-event JSON
                       (open in https://ui.perfetto.dev, or feed to cwc_trace)
  --verbose            info-level logging
)";

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name,
                                                const std::string& pods) {
  if (!pods.empty() || name == "cwc-pods") {
    if (!pods.empty() && name != "cwc-greedy" && name != "cwc-pods") {
      throw std::invalid_argument("--pods only applies to the cwc scheduler, not " + name);
    }
    core::PodPackingScheduler::Options options;
    if (!pods.empty() && pods != "auto") {
      const int n = std::stoi(pods);
      if (n <= 0) throw std::invalid_argument("--pods must be 'auto' or a positive count");
      options.pods = static_cast<std::size_t>(n);
    }
    return std::make_unique<core::PodPackingScheduler>(options);
  }
  if (name == "cwc-greedy") return std::make_unique<core::GreedyScheduler>();
  if (name == "equal-split") return std::make_unique<core::EqualSplitScheduler>();
  if (name == "round-robin") return std::make_unique<core::RoundRobinScheduler>();
  if (name == "lpt") return std::make_unique<core::LptScheduler>();
  throw std::invalid_argument("unknown scheduler: " + name);
}
}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown({"scheduler", "pods", "phones", "scale", "unplugs", "offline",
                                      "churn", "speculation", "straggler-factor",
                                      "spec-fraction", "health-alpha", "health-quarantine",
                                      "health-parole-ticks", "chunk-kb", "cache-mb", "locality",
                                      "batches", "seed", "link-spec", "svg", "metrics-out",
                                      "timeseries-out", "trace-out", "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  Rng rng(seed);
  if (flags.has("link-spec")) {
    try {
      fault::LinkFaultPlane& plane = fault::LinkFaultPlane::global();
      plane.add_rules(flags.get("link-spec"));
      obs::arm_link_telemetry();
      plane.arm(seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --link-spec: %s\n", e.what());
      return 2;
    }
    std::printf("link fault plane armed: %s (seed %llu)\n", flags.get("link-spec").c_str(),
                static_cast<unsigned long long>(seed));
  }
  const auto fleet = static_cast<std::size_t>(flags.get_int("phones", 18));
  auto phones = sim::scaled_fleet(rng, std::max<std::size_t>(fleet, 1));

  std::vector<sim::ChurnSpec> churn;
  try {
    churn = sim::parse_churn(flags.get("churn"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cwc_sim: %s\n", e.what());
    return 2;
  }
  sim::apply_slow_profiles(churn, phones);

  sim::SimOptions options;
  options.scheduling_period = seconds(120.0);
  options.speculation.enabled = flags.get("speculation", "off") == "on";
  options.speculation.straggler_factor = flags.get_double("straggler-factor", 2.0);
  options.speculation.completion_fraction = flags.get_double("spec-fraction", 0.75);
  options.health.alpha = flags.get_double("health-alpha", 0.3);
  options.health.quarantine_threshold = flags.get_double("health-quarantine", 0.8);
  options.health.parole_after_ticks = static_cast<int>(flags.get_int("health-parole-ticks", 3));
  options.chunk_kb = flags.get_double("chunk-kb", 0.0);
  options.cache_mb = flags.get_double("cache-mb", 0.0);
  options.locality_aware = flags.get("locality", "on") == "on";
  const std::string scheduler_name =
      make_scheduler(flags.get("scheduler", "cwc-greedy"), flags.get("pods"))->name();

  // The same workload, churn, and unplug events replay in every batch (all
  // are derived once, ahead of the batch loop): with --batches > 1 only
  // the chunk caches carry over, so the shipped-KB delta between batch 1
  // and batch N is purely the cache effect.
  const std::uint64_t workload_seed = rng.fork().next_u64();
  const double scale = flags.get_double("scale", 1.0);
  {
    Rng preview(workload_seed);
    std::printf("workload: %zu jobs (scale %.2f)\n",
                core::paper_workload(preview, scale).size(), scale);
  }

  sim::ChurnOptions churn_options;
  std::vector<sim::FailureEvent> injected = sim::churn_events(churn, churn_options, seed);

  const auto unplugs = static_cast<int>(flags.get_int("unplugs", 0));
  for (int k = 0; k < unplugs; ++k) {
    const auto phone = static_cast<PhoneId>(rng.uniform_int(0, static_cast<std::int64_t>(fleet) - 1));
    const Millis when = seconds(rng.uniform(30.0, 600.0 * scale + 60.0));
    injected.push_back({when, phone,
                        flags.get_bool("offline") ? sim::FailureKind::kUnplugOffline
                                                  : sim::FailureKind::kUnplugOnline});
    std::printf("injecting %s unplug: phone %d at %.0f s\n",
                flags.get_bool("offline") ? "offline" : "online", phone, to_seconds(when));
  }

  const int batches = std::max(1, static_cast<int>(flags.get_int("batches", 1)));
  // Virtual-clock sampling: the simulator calls sample_now(now) at every
  // scheduling instant; the background thread is never started here.
  obs::TimeSeriesSampler sampler;
  sim::FleetChunkState fleet_chunks;
  sim::SimResult result;
  std::size_t job_count = 0;
  for (int batch = 0; batch < batches; ++batch) {
    sim::TestbedSimulation simulation(
        make_scheduler(flags.get("scheduler", "cwc-greedy"), flags.get("pods")),
        core::paper_prediction(), phones, options, seed);
    if (flags.has("timeseries-out")) simulation.set_sampler(&sampler);
    simulation.share_chunk_state(&fleet_chunks);
    Rng workload_rng(workload_seed);
    const auto jobs = core::paper_workload(workload_rng, scale);
    job_count = jobs.size();
    for (const auto& job : jobs) simulation.submit(job);
    for (const sim::FailureEvent& event : injected) simulation.inject(event);
    result = simulation.run();
    if (batches > 1) {
      std::printf("batch %d: makespan %.1f s, shipped %.0f KB, cache hits %.0f KB\n",
                  batch + 1, to_seconds(result.makespan), result.shipped_kb,
                  result.cache_hit_kb);
    }
  }

  std::printf("\nscheduler: %s | %zu phones | %zu jobs (scale %.2f)\n", scheduler_name.c_str(),
              phones.size(), job_count, scale);
  std::printf("completed: %s\n", result.completed ? "yes" : "NO (max sim time reached)");
  std::printf("makespan:  %.1f s (predicted %.1f s)\n", to_seconds(result.makespan),
              to_seconds(result.predicted_makespan));
  std::printf("rounds:    %zu scheduling instants\n", result.scheduling_rounds);
  if (options.chunk_kb > 0.0 && options.cache_mb > 0.0) {
    std::printf("shipped:   %.0f KB over the links, %.0f KB served from caches (%s)\n",
                result.shipped_kb, result.cache_hit_kb,
                options.locality_aware ? "locality-aware" : "locality-blind");
  }
  std::printf("health:    %.0f quarantines, %.0f paroles, %.0f reinstatements\n",
              obs::counter("health.quarantines").value(),
              obs::counter("health.paroles").value(),
              obs::counter("health.reinstatements").value());
  std::printf("spec:      %.0f launched, %.0f backup wins, %.0f primary wins, %.0f aborted\n",
              obs::counter("spec.launched").value(), obs::counter("spec.wins_backup").value(),
              obs::counter("spec.wins_primary").value(), obs::counter("spec.aborted").value());

  const sim::EnergyReport energy = sim::energy_of(result);
  std::printf("energy:    %.1f kJ fleet total (%.0fx less than a served+cooled Core 2 Duo\n"
              "           powered for the same wall-clock)\n",
              energy.fleet_joules / 1000.0, energy.savings_factor);

  if (flags.has("svg")) {
    sim::SvgOptions svg;
    svg.title = "cwc_sim: " + flags.get("scheduler", "cwc-greedy") + ", " +
                std::to_string(job_count) + " jobs";
    sim::write_timeline_svg(result, flags.get("svg"), svg);
    std::printf("timeline:  wrote %s\n", flags.get("svg").c_str());
  }
  if (flags.has("metrics-out")) {
    obs::write_snapshot_file(flags.get("metrics-out"));
    std::printf("metrics:   wrote %s\n", flags.get("metrics-out").c_str());
  }
  if (flags.has("timeseries-out")) {
    if (obs::write_timeseries_file(flags.get("timeseries-out"), sampler)) {
      std::printf("series:    wrote %s (%zu samples on the virtual clock)\n",
                  flags.get("timeseries-out").c_str(), sampler.sample_count());
    } else {
      std::fprintf(stderr, "cwc_sim: failed to write %s\n",
                   flags.get("timeseries-out").c_str());
    }
  }
  if (flags.has("trace-out")) {
    // The simulator enables the recorder itself; trace_begin scopes the
    // export to this run's events.
    obs::write_trace_file(flags.get("trace-out"), obs::TraceRecorder::global(),
                          result.trace_begin);
    std::printf("trace:     wrote %s (analyze with cwc_trace, or load in Perfetto)\n",
                flags.get("trace-out").c_str());
  }
  return result.completed ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_sim", e.what());
  return 2;
}
