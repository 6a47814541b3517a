// Soak runners: one SoakSchedule executed end-to-end on the live stack or
// the simulator, ending in a SoakVerdict. The live runner reuses the
// cwc_chaos harness shape (loopback server + in-process agents, fault-free
// reference first); the sim runner arms the same link plane on virtual
// time and proves same-seed determinism by running the storm twice.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/link_fault.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "obs/fault_obs.h"
#include "obs/link_obs.h"
#include "sim/simulator.h"
#include "soak/soak.h"
#include "tasks/generators.h"
#include "tasks/registry.h"

namespace cwc::soak {
namespace {

/// Job inputs are seeded independently of the fault schedule so every leg
/// of a run (and every schedule at the same --jobs) sees identical bytes.
constexpr std::uint64_t kInputSeed = 0x5eedf00dULL;

struct LiveJob {
  std::string task;
  double kb = 64.0;
};

/// cwc_chaos --jobs grammar: comma-separated NAME[:ARG...]:KB where the KB
/// suffix is the part after the last colon iff it parses as a number.
std::vector<LiveJob> parse_jobs(const std::string& spec) {
  std::vector<LiveJob> jobs;
  for (const auto& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    LiveJob job;
    job.task = entry;
    const auto colon = entry.rfind(':');
    if (colon != std::string::npos) {
      try {
        std::size_t used = 0;
        const double kb = std::stod(entry.substr(colon + 1), &used);
        if (used == entry.size() - colon - 1) {
          job.task = entry.substr(0, colon);
          job.kb = kb;
        }
      } catch (const std::exception&) {
        // no numeric suffix: the whole entry is the task name
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

tasks::Bytes generate_input(const std::string& name, double kb, Rng& rng) {
  if (name == "prime-count") return tasks::make_integer_input(rng, kb);
  if (name.rfind("word-count", 0) == 0) return tasks::make_text_input(rng, kb);
  if (name.rfind("log-scan", 0) == 0) return tasks::make_log_input(rng, kb);
  throw std::invalid_argument("soak: no input generator for task " + name);
}

struct LiveRun {
  bool completed = false;
  std::vector<JobId> ids;          ///< submitted job ids, submission order
  std::vector<net::Blob> results;  ///< one per job, submission order
  double wall_s = 0.0;
  std::size_t quarantined = 0;  ///< phones quarantined when the run ended
  std::map<PhoneId, std::size_t> losses;  ///< phone -> times declared lost
};

net::ServerConfig live_config(const RunOptions& options, const std::string& journal) {
  net::ServerConfig config;
  config.port = 0;  // kernel-assigned: parallel soaks never collide
  config.keepalive_period = options.keepalive_period_ms;
  config.keepalive_misses = 3;
  config.scheduling_period = 100.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 8 * 1024;
  config.assign_retry_period = options.assign_retry_ms;
  config.assign_max_retries = 8;
  config.rpc_timeout = 3000.0;
  config.journal_path = journal;
  config.bank_stale_reports = options.bank_stale_reports;
  return config;
}

std::vector<std::unique_ptr<net::PhoneAgent>> start_agents(
    std::uint16_t port, const RunOptions& options, double compute_ms_per_kb,
    const tasks::TaskRegistry& registry) {
  std::vector<std::unique_ptr<net::PhoneAgent>> agents;
  agents.reserve(static_cast<std::size_t>(options.phones));
  for (int i = 0; i < options.phones; ++i) {
    net::PhoneAgentConfig pc;
    pc.id = static_cast<PhoneId>(i + 1);
    // Storms drop connections on purpose; agents must always find their
    // way back, on fast seeded backoff.
    pc.max_reconnects = 200;
    pc.reconnect_backoff = 50.0;
    pc.reconnect_backoff_max = 400.0;
    pc.reconnect_jitter = 0.2;
    pc.backoff_seed = 0x9e3779b9u + static_cast<std::uint64_t>(i);
    pc.rpc_timeout = 2000.0;
    pc.cpu_mhz = 600.0 + 200.0 * static_cast<double>(i % 4);
    pc.zone = i / 2;
    pc.emulated_compute_ms_per_kb = compute_ms_per_kb;
    pc.step_bytes = 8 * 1024;
    agents.push_back(std::make_unique<net::PhoneAgent>(port, pc, &registry));
    agents.back()->start();
  }
  return agents;
}

LiveRun run_live_once(const std::vector<LiveJob>& jobs, const RunOptions& options,
                      double compute_ms_per_kb, double timeout_s, const std::string& journal,
                      const tasks::TaskRegistry& registry) {
  net::CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                        &registry, live_config(options, journal));
  LiveRun run;
  Rng rng(kInputSeed);
  for (const LiveJob& job : jobs) {
    run.ids.push_back(server.submit(job.task, generate_input(job.task, job.kb, rng)));
  }
  auto agents = start_agents(server.port(), options, compute_ms_per_kb, registry);

  const auto begin = std::chrono::steady_clock::now();
  run.completed = server.run(options.phones, seconds(timeout_s));
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  run.losses = server.losses_by_phone();
  for (int i = 0; i < options.phones; ++i) {
    if (server.controller().health().quarantined(static_cast<PhoneId>(i + 1))) {
      ++run.quarantined;
    }
  }
  agents.clear();  // joins agent threads before results are read
  if (run.completed) {
    for (JobId id : run.ids) run.results.push_back(server.result(id));
  }
  return run;
}

/// The journal-recovery leg: a journaled server is cut off mid-batch (the
/// fleet paced 5x slower so the cut lands mid-flight), then a fresh server
/// recover_from()s the journal and fresh agents finish the remainder.
LiveRun run_live_restart(const std::vector<LiveJob>& jobs, const RunOptions& options,
                         const tasks::TaskRegistry& registry) {
  const std::string journal =
      "/tmp/cwc_soak.journal." + std::to_string(static_cast<long long>(::getpid()));
  LiveRun run;
  const LiveRun partial =
      run_live_once(jobs, options, /*compute_ms_per_kb=*/5.0, /*timeout_s=*/0.7, journal,
                    registry);

  const std::string journal2 = journal + ".2";
  net::CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                        &registry, live_config(options, journal2));
  std::map<JobId, JobId> mapping;
  try {
    mapping = server.recover_from(journal);
  } catch (const std::exception&) {
    std::remove(journal.c_str());
    run.completed = false;
    return run;
  }
  auto agents = start_agents(server.port(), options, /*compute_ms_per_kb=*/1.0, registry);
  run.completed = server.run(options.phones, seconds(options.timeout_s));
  agents.clear();
  if (run.completed) {
    for (JobId old_id : partial.ids) {
      const auto it = mapping.find(old_id);
      if (it == mapping.end()) {
        run.completed = false;
        break;
      }
      run.results.push_back(server.result(it->second));
    }
  }
  std::remove(journal.c_str());
  std::remove(journal2.c_str());
  return run;
}

/// Compares a leg against the reference; fills `verdict` on the first
/// divergence. Returns true when the leg matched.
bool check_against_reference(const LiveRun& reference, const LiveRun& candidate,
                             const char* label, Invariant mismatch_kind,
                             SoakVerdict& verdict) {
  if (candidate.results.size() != reference.results.size()) {
    verdict.violated = mismatch_kind;
    verdict.detail = std::string(label) + " produced " +
                     std::to_string(candidate.results.size()) + " results, expected " +
                     std::to_string(reference.results.size());
    return false;
  }
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    if (candidate.results[i] != reference.results[i]) {
      verdict.violated = mismatch_kind;
      verdict.detail = std::string(label) + " job " + std::to_string(i) +
                       " diverged from the fault-free reference (" +
                       std::to_string(candidate.results[i].size()) + " vs " +
                       std::to_string(reference.results[i].size()) + " bytes)";
      return false;
    }
  }
  return true;
}

/// Arms the global injector + link plane from a schedule (telemetry
/// observers installed) and disarms both on destruction, leaving the
/// globals clean for the next run.
class ArmedSchedule {
 public:
  ArmedSchedule(const SoakSchedule& schedule, bool arm_points) {
    auto& injector = fault::FaultInjector::global();
    auto& plane = fault::LinkFaultPlane::global();
    injector.reset();
    plane.reset();
    if (arm_points && !schedule.point_spec().empty()) {
      injector.add_rules(fault::parse_fault_spec(schedule.point_spec()));
      obs::arm_fault_telemetry();
      injector.arm(schedule.seed);
    }
    if (!schedule.link_spec().empty()) {
      plane.add_rules(schedule.link_spec());
      obs::arm_link_telemetry();
      plane.arm(schedule.seed);
    }
  }
  ~ArmedSchedule() {
    fault::FaultInjector::global().reset();
    fault::LinkFaultPlane::global().reset();
  }
  ArmedSchedule(const ArmedSchedule&) = delete;
  ArmedSchedule& operator=(const ArmedSchedule&) = delete;
};

void vlog(const RunOptions& options, const std::string& message) {
  if (!options.verbose) return;
  std::printf("%s\n", message.c_str());
  std::fflush(stdout);
}

}  // namespace

SoakVerdict run_live(const SoakSchedule& schedule, const RunOptions& options) {
  SoakVerdict verdict;
  const std::vector<LiveJob> jobs = parse_jobs(options.jobs);
  if (jobs.empty()) {
    verdict.violated = Invariant::kLostPiece;
    verdict.detail = "empty job batch";
    return verdict;
  }
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();

  // Leg 1: fault-free reference — the ground truth the storm must
  // reproduce byte for byte.
  fault::FaultInjector::global().reset();
  fault::LinkFaultPlane::global().reset();
  const LiveRun reference = run_live_once(jobs, options, /*compute_ms_per_kb=*/1.0,
                                          options.timeout_s, /*journal=*/"", registry);
  if (!reference.completed) {
    verdict.violated = Invariant::kLostPiece;
    verdict.detail = "fault-free reference run did not complete (live path broken "
                     "before any fault was injected)";
    return verdict;
  }
  vlog(options, "  reference complete (" + std::to_string(reference.wall_s) + " s)");

  // Leg 2: the storm, byte-compared against the reference.
  {
    ArmedSchedule armed(schedule, /*arm_points=*/true);
    const LiveRun storm = run_live_once(jobs, options, /*compute_ms_per_kb=*/1.0,
                                        options.timeout_s, /*journal=*/"", registry);
    vlog(options, storm.completed ? "  storm complete (" + std::to_string(storm.wall_s) + " s)"
                                  : "  storm INCOMPLETE");
    if (!storm.completed) {
      if (storm.quarantined >= static_cast<std::size_t>(options.phones)) {
        verdict.violated = Invariant::kQuarantineStarvation;
        verdict.detail = "storm stalled with all " + std::to_string(options.phones) +
                         " phones quarantined";
      } else {
        verdict.violated = Invariant::kLostPiece;
        verdict.detail = "storm run did not complete within " +
                         std::to_string(options.timeout_s) + " s";
      }
      return verdict;
    }
    if (!check_against_reference(reference, storm, "storm", Invariant::kByteMismatch,
                                 verdict)) {
      return verdict;
    }
    if (const auto named = schedule.named_phones()) {
      for (const auto& [phone, losses] : storm.losses) {
        if (named->count(phone) != 0) continue;
        verdict.violated = Invariant::kHealthyPeerLost;
        verdict.detail = "storm declared phone " + std::to_string(phone) + " lost " +
                         std::to_string(losses) +
                         " times, though no rule names it (a slow peer cost a healthy "
                         "peer its liveness)";
        return verdict;
      }
    }
    const double envelope = options.makespan_envelope * std::max(reference.wall_s, 1.0);
    if (storm.wall_s > envelope) {
      verdict.violated = Invariant::kMakespanExceeded;
      verdict.detail = "storm took " + std::to_string(storm.wall_s) + " s, envelope " +
                       std::to_string(envelope) + " s";
      return verdict;
    }
  }

  // Leg 3 (kill_server): the storm stays armed while a journaled server is
  // killed mid-batch and a fresh one recovers — replay must converge.
  if (schedule.kill_server) {
    ArmedSchedule armed(schedule, /*arm_points=*/true);
    const LiveRun restarted = run_live_restart(jobs, options, registry);
    if (!restarted.completed) {
      verdict.violated = Invariant::kNonConvergence;
      verdict.detail = "journal recovery leg did not complete";
      return verdict;
    }
    if (!check_against_reference(reference, restarted, "recovery leg",
                                 Invariant::kNonConvergence, verdict)) {
      return verdict;
    }
  }
  return verdict;
}

SoakVerdict run_sim(const SoakSchedule& schedule, const RunOptions& options) {
  SoakVerdict verdict;
  auto& plane = fault::LinkFaultPlane::global();
  fault::FaultInjector::global().reset();

  const auto build_and_run = [&](bool storm) {
    Rng rng(kInputSeed);  // testbed + workload identical across legs
    auto phones = core::paper_testbed(rng);
    if (phones.size() > static_cast<std::size_t>(options.phones)) {
      phones.resize(static_cast<std::size_t>(options.phones));
    }
    sim::SimOptions sim_options;
    sim_options.scheduling_period = seconds(10.0);
    sim_options.keepalive_period = seconds(5.0);
    sim::TestbedSimulation sim(std::make_unique<core::GreedyScheduler>(),
                               core::paper_prediction(), phones, sim_options, /*seed=*/1);
    for (const auto& job : core::paper_workload(rng, options.sim_scale)) sim.submit(job);
    if (storm && schedule.churn > 0) {
      // Churn cycles derive from the schedule seed: phone p unplugs
      // (online, then offline on later cycles) and replugs shortly after.
      Rng churn_rng(schedule.seed ^ 0xc0ffee);
      const auto fleet = static_cast<std::int64_t>(phones.size());
      for (int c = 0; c < schedule.churn; ++c) {
        sim::FailureEvent unplug;
        unplug.phone = phones[static_cast<std::size_t>(churn_rng.uniform_int(0, fleet - 1))].id;
        unplug.time = seconds(churn_rng.uniform(1.0, 30.0));
        unplug.kind = c % 2 == 0 ? sim::FailureKind::kUnplugOnline
                                 : sim::FailureKind::kUnplugOffline;
        sim::FailureEvent replug;
        replug.phone = unplug.phone;
        replug.time = unplug.time + seconds(churn_rng.uniform(5.0, 20.0));
        replug.kind = sim::FailureKind::kReplug;
        sim.inject(unplug);
        sim.inject(replug);
      }
    }
    return sim.run();
  };

  // Leg 1: fault-free reference makespan.
  plane.reset();
  const sim::SimResult reference = build_and_run(/*storm=*/false);
  if (!reference.completed) {
    verdict.violated = Invariant::kLostPiece;
    verdict.detail = "fault-free sim reference did not complete";
    return verdict;
  }

  // Legs 2 and 3: the same storm twice — the link plane is re-armed on the
  // same seed, so virtual-time state and burst streams replay exactly.
  sim::SimResult storm[2];
  for (int i = 0; i < 2; ++i) {
    plane.reset();
    if (!schedule.link_spec().empty()) {
      plane.add_rules(schedule.link_spec());
      plane.arm(schedule.seed);
    }
    storm[i] = build_and_run(/*storm=*/true);
    plane.reset();
    if (!storm[i].completed) {
      verdict.violated = Invariant::kLostPiece;
      verdict.detail = "sim storm run " + std::to_string(i + 1) + " did not complete";
      return verdict;
    }
  }
  if (storm[0].makespan != storm[1].makespan ||
      storm[0].scheduling_rounds != storm[1].scheduling_rounds) {
    verdict.violated = Invariant::kNonConvergence;
    verdict.detail = "same-seed sim storms diverged: makespan " +
                     std::to_string(storm[0].makespan) + " vs " +
                     std::to_string(storm[1].makespan);
    return verdict;
  }
  if (storm[0].makespan > options.makespan_envelope * reference.makespan) {
    verdict.violated = Invariant::kMakespanExceeded;
    verdict.detail = "sim storm makespan " + std::to_string(storm[0].makespan) +
                     " ms, envelope " +
                     std::to_string(options.makespan_envelope * reference.makespan) + " ms";
    return verdict;
  }
  return verdict;
}

}  // namespace cwc::soak
