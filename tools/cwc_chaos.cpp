// cwc_chaos — chaos harness for the live server<->agent path.
//
// Runs a real CwcServer and N in-process PhoneAgents over loopback TCP
// four times with identical inputs:
//
//   1. a fault-free reference run, recording each job's aggregated result;
//   2. a chaos run under a seeded fault schedule (connection resets, torn
//      frames via partial writes, dropped keep-alives, dropped assignment
//      frames and completion reports);
//   3. the same chaos run again, with the injector re-armed on the same
//      seed;
//   4. a server-restart run: a journaled server is cut off mid-batch, a
//      fresh server recover_from()s its journal, and fresh agents finish
//      the remainder.
//
// With --speculation=on (the default) phone 1 is emulated 10x slower than
// its advertised CPU so the scheduler genuinely over-assigns it, and the
// harness additionally asserts that at least one speculative backup
// launched across the non-reference runs — duplicate completions from
// primary/backup races must never double-aggregate.
//
// The harness exits 0 only when every job completes in every run and all
// runs produce results byte-identical to the reference — i.e. the
// retry/backoff/replay/speculation machinery recovered every injected
// fault without losing or double-counting work, deterministically.
//
// Examples:
//   cwc_chaos                                   # default storm, 4 phones
//   cwc_chaos --phones=6 --seed=7 --verbose
//   cwc_chaos --spec="socket_write:reset@p=0.01" --seed=42
//   cwc_chaos --speculation=off --restart=off   # PR-4-era three-leg run
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "core/pod_packing.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "obs/fault_obs.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "soak/soak.h"
#include "tasks/generators.h"
#include "tasks/registry.h"

using namespace cwc;

namespace {

constexpr const char* kUsage = R"(cwc_chaos: fault-injection chaos harness for the live path
  --phones=N           in-process phone agents (default 4, minimum 1)
  --jobs=SPEC          comma-separated NAME:KB jobs (default a small mixed
                       batch of prime-count / word-count / log-scan, whose
                       integer-sum aggregation is piece-boundary independent)
  --spec=SPEC          fault schedule (grammar in src/common/fault.h;
                       default: a bounded storm of resets, torn frames,
                       dropped keep-alives, assignments, and reports)
  --seed=N             fault-injector seed, reused for both chaos runs
                       (default 20260806)
  --timeout-s=N        per-run completion deadline (default 120)
  --speculation=on|off speculative re-execution of stragglers in every run
                       except the reference; phone 1 is emulated 10x slow
                       to force one (default on)
  --straggler-factor=X speculation threshold multiplier (default 2)
  --restart=on|off     run the journaled server-restart leg (default on)
  --cache-mb=X         give every agent an X-MB content-addressed chunk
                       cache (16 KB server grid) and — unless --spec
                       overrides — add a bounded cache-corruption storm
                       (chunk_cache:corrupt@every=3@limit=9): corrupted
                       entries must CRC-mismatch and re-fetch, with results
                       still byte-identical (default 0 = caches off).
                       Corruption rules must be bounded (@limit=/@n=/p<1):
                       an unbounded @every= re-corrupts the entry on every
                       re-verification and the re-fetch loop never drains.
  --pods=auto|N        schedule every run with hierarchical pod packing
                       (auto = size pods automatically; N = force N pods)
                       instead of flat greedy packing; results must still
                       byte-match the flat reference run
  --metrics-out=FILE   write a telemetry snapshot after the last run
  --trace-out=FILE     write the chaos runs' trace as Chrome trace-event JSON
  --verbose            info-level logging

Exit status (invariant codes shared with cwc_soak, see src/soak/soak.h):
  0   all runs completed with byte-identical results (and, with
      speculation on, at least one backup launched)
  1   speculation was enabled but never engaged
  2   bad flags
  10  a chaos run's results diverged from the fault-free reference
  11  a run timed out / failed to complete (lost work)
  12  the journaled restart leg failed to converge
  130 interrupted by signal
)";

// A bounded storm: every rule carries a limit (or an explicit hit list) so
// the tail of the run is fault-free and completion is guaranteed; the
// machinery being tested is what turns the bounded chaos into zero lost
// work. socket_write fires on both server and agent sends (the injector is
// process-wide), so "partial" models torn frames in either direction.
constexpr const char* kDefaultSpec =
    "socket_write:partial@every=45@limit=8;"
    "socket_write:reset@every=97@limit=5;"
    "socket_connect:drop@n=3,9;"
    "keepalive_send:drop@every=4@limit=12;"
    "assign_piece:drop@every=6@limit=6;"
    "report_handling:drop@every=5@limit=6";

std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

struct JobSpec {
  std::string task;
  double kb = 64.0;
};

tasks::Bytes generate_input(const std::string& name, double kb, Rng& rng) {
  if (name == "prime-count") return tasks::make_integer_input(rng, kb);
  if (name.rfind("word-count", 0) == 0) return tasks::make_text_input(rng, kb);
  if (name.rfind("log-scan", 0) == 0) return tasks::make_log_input(rng, kb);
  throw std::invalid_argument("cwc_chaos: no generator for task " + name +
                              " (use prime-count / word-count:W / log-scan:P — their "
                              "integer aggregation is piece-boundary independent)");
}

struct RunOptions {
  double timeout_s = 120.0;
  bool speculation = false;
  double straggler_factor = 2.0;
  /// Emulate phone 1 (agent index 0) 10x slower than its advertised CPU so
  /// the scheduler over-assigns it and speculation has a genuine straggler.
  bool slow_phone = false;
  /// Base emulated pace for every agent. Results depend only on the job
  /// inputs, so a leg may pace the fleet differently (the restart leg slows
  /// it to widen the mid-batch window for the kill) and still byte-match.
  double compute_ms_per_kb = 1.0;
  /// Non-empty = journal this run (for the restart leg).
  std::string journal_path;
  /// Schedule with the hierarchical pod packer instead of flat greedy.
  /// (0 with use_pods = auto-sized pods.)
  bool use_pods = false;
  std::size_t pods = 0;
  /// Per-agent chunk-cache budget (0 = no caches, server ships whole).
  double cache_mb = 0.0;
};

std::unique_ptr<core::Scheduler> chaos_scheduler(const RunOptions& options) {
  if (!options.use_pods) return std::make_unique<core::GreedyScheduler>();
  core::PodPackingScheduler::Options pod_options;
  pod_options.pods = options.pods;
  return std::make_unique<core::PodPackingScheduler>(pod_options);
}

struct RunResult {
  bool completed = false;
  std::vector<JobId> ids;          ///< submitted job ids, submission order
  std::vector<net::Blob> results;  ///< one per job, submission order
  std::uint64_t fault_fires = 0;
  std::size_t spec_launches = 0;
  std::size_t spec_duplicates = 0;
  std::size_t chunk_refetches = 0;  ///< agent-side CRC-miss re-fetch round-trips
  double wall_s = 0.0;  ///< wall-clock duration of server.run()
};

net::ServerConfig chaos_config(const RunOptions& options) {
  net::ServerConfig config;
  config.port = 0;  // kernel-assigned: runs never collide
  config.keepalive_period = 150.0;
  config.keepalive_misses = 3;
  config.scheduling_period = 100.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 8 * 1024;
  // The recovery machinery under test: re-deliver unreported assignments,
  // bound wedged RPC exchanges.
  config.assign_retry_period = 400.0;
  config.assign_max_retries = 8;
  config.rpc_timeout = 3000.0;
  config.stop = &g_stop;
  config.journal_path = options.journal_path;
  config.speculation.enabled = options.speculation;
  config.speculation.straggler_factor = options.straggler_factor;
  // The harness batch is small; arm speculation at half-done so the slow
  // phone's tail pieces are still in flight when the check first fires.
  config.speculation.completion_fraction = 0.5;
  // A small grid so even the harness's modest jobs span many chunks (the
  // corruption storm needs entries to land on).
  if (options.cache_mb > 0.0) config.chunk_bytes = 16 * 1024;
  return config;
}

std::vector<std::unique_ptr<net::PhoneAgent>> start_agents(std::uint16_t port, int phones,
                                                           const RunOptions& options,
                                                           const tasks::TaskRegistry& registry) {
  std::vector<std::unique_ptr<net::PhoneAgent>> agents;
  agents.reserve(static_cast<std::size_t>(phones));
  for (int i = 0; i < phones; ++i) {
    net::PhoneAgentConfig pc;
    pc.id = static_cast<PhoneId>(i + 1);
    // Generous reconnect budget with fast, seeded backoff: chaos drops
    // connections on purpose and the agents must always find their way back.
    pc.max_reconnects = 200;
    pc.reconnect_backoff = 50.0;
    pc.reconnect_backoff_max = 400.0;
    pc.reconnect_jitter = 0.2;
    pc.backoff_seed = 0x9e3779b9u + static_cast<std::uint64_t>(i);
    pc.rpc_timeout = 2000.0;
    // Heterogeneous-ish fleet, paced so pieces take long enough for
    // keep-alive ticks and retry timers to actually engage.
    pc.cpu_mhz = 600.0 + 200.0 * static_cast<double>(i % 4);
    pc.zone = i / 2;  // two agents per "house", so pod keying has structure
    pc.emulated_compute_ms_per_kb =
        options.compute_ms_per_kb * ((i == 0 && options.slow_phone) ? 10.0 : 1.0);
    pc.step_bytes = 8 * 1024;
    pc.cache_bytes = static_cast<std::uint64_t>(options.cache_mb * 1024.0 * 1024.0);
    agents.push_back(std::make_unique<net::PhoneAgent>(port, pc, &registry));
    agents.back()->start();
  }
  return agents;
}

/// One full server+agents run over fresh sockets. The injector's state is
/// whatever the caller armed (or disarmed) beforehand.
RunResult run_once(const std::vector<JobSpec>& jobs, int phones, const RunOptions& options,
                   std::uint64_t input_seed, const tasks::TaskRegistry& registry) {
  net::CwcServer server(chaos_scheduler(options), core::paper_prediction(), &registry,
                        chaos_config(options));

  // Identical inputs every run: the generator Rng restarts from input_seed.
  Rng rng(input_seed);
  RunResult run;
  run.ids.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    run.ids.push_back(server.submit(job.task, generate_input(job.task, job.kb, rng)));
  }

  auto agents = start_agents(server.port(), phones, options, registry);

  const auto begin = std::chrono::steady_clock::now();
  run.completed = server.run(phones, seconds(options.timeout_s));
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  run.fault_fires = fault::FaultInjector::global().total_fires();
  run.spec_launches = server.speculative_launches();
  run.spec_duplicates = server.duplicate_completions();
  for (const auto& agent : agents) run.chunk_refetches += agent->chunk_refetches();
  // Destroying the agents requests stop and joins their threads; do it
  // before reading results so no thread outlives the run.
  agents.clear();
  if (run.completed) {
    for (JobId id : run.ids) run.results.push_back(server.result(id));
  }
  return run;
}

/// The restart leg: journal a run and cut it off well before the reference
/// wall time, then have a fresh server recover_from() the journal and
/// fresh agents finish the remainder. Byte-identical results must survive
/// the restart wherever the cut lands (mid-piece, mid-transfer, or — if
/// the first run happened to finish — a fully-complete journal).
RunResult run_restart(const std::vector<JobSpec>& jobs, int phones, const RunOptions& options,
                      std::uint64_t input_seed, const tasks::TaskRegistry& registry) {
  const std::string journal =
      "/tmp/cwc_chaos.journal." + std::to_string(static_cast<long long>(::getpid()));
  RunResult run;

  // Phase A: the journaled server dies (run() deadline) mid-batch. The
  // fleet is paced 5x slower than the other legs so the batch comfortably
  // outlives the deadline wherever agent registration lands.
  RunOptions first = options;
  first.journal_path = journal;
  first.compute_ms_per_kb = 5.0 * options.compute_ms_per_kb;
  first.timeout_s = 0.7;
  const RunResult partial = run_once(jobs, phones, first, input_seed, registry);
  run.spec_launches = partial.spec_launches;
  run.spec_duplicates = partial.spec_duplicates;
  std::printf("      server killed after %.1f s (%s); recovering from journal...\n",
              partial.wall_s, partial.completed ? "batch had already finished" : "mid-batch");
  std::fflush(stdout);

  // Phase B: a fresh server adopts the journal; fresh agents (new port,
  // empty replay caches) finish whatever the first server left behind.
  RunOptions second = options;
  second.journal_path = journal + ".2";
  net::CwcServer server(chaos_scheduler(second), core::paper_prediction(), &registry,
                        chaos_config(second));
  std::map<JobId, JobId> mapping;
  try {
    mapping = server.recover_from(journal);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cwc_chaos: journal recovery failed: %s\n", e.what());
    std::remove(journal.c_str());
    return run;
  }

  auto agents = start_agents(server.port(), phones, options, registry);
  run.completed = server.run(phones, seconds(options.timeout_s));
  run.spec_launches += server.speculative_launches();
  run.spec_duplicates += server.duplicate_completions();
  agents.clear();
  if (run.completed) {
    for (JobId old_id : partial.ids) {
      const auto it = mapping.find(old_id);
      if (it == mapping.end()) {
        std::fprintf(stderr, "cwc_chaos: job %d missing from the recovered journal\n", old_id);
        run.completed = false;
        break;
      }
      run.results.push_back(server.result(it->second));
    }
  }
  std::remove(journal.c_str());
  std::remove(second.journal_path.c_str());
  return run;
}

std::vector<JobSpec> parse_jobs(const std::string& spec) {
  std::vector<JobSpec> jobs;
  for (const auto& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    const auto colon = entry.rfind(':');
    JobSpec job;
    // NAME may itself contain a colon (word-count:error); the KB suffix is
    // the part after the *last* colon, and only when it parses as a number.
    job.task = entry;
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

/// Checks a leg against the reference; returns the violated invariant
/// (kNone when the leg matched byte for byte).
soak::Invariant results_match(const RunResult& reference, const RunResult& candidate,
                              const char* label) {
  if (!candidate.completed) {
    std::fprintf(stderr, "cwc_chaos: %s did not complete all jobs\n", label);
    return soak::Invariant::kLostPiece;
  }
  if (candidate.results.size() != reference.results.size()) {
    std::fprintf(stderr, "cwc_chaos: %s produced %zu results, expected %zu\n", label,
                 candidate.results.size(), reference.results.size());
    return soak::Invariant::kByteMismatch;
  }
  soak::Invariant verdict = soak::Invariant::kNone;
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    if (candidate.results[i] != reference.results[i]) {
      std::fprintf(stderr,
                   "cwc_chaos: %s job %zu result diverged from the fault-free "
                   "reference (%zu vs %zu bytes)\n",
                   label, i, candidate.results[i].size(), reference.results[i].size());
      verdict = soak::Invariant::kByteMismatch;
    }
  }
  return verdict;
}

void print_fires() {
  fault::FaultInjector& injector = fault::FaultInjector::global();
  for (std::size_t p = 0; p < fault::kFaultPointCount; ++p) {
    const auto point = static_cast<fault::FaultPoint>(p);
    if (injector.fires(point) == 0) continue;
    std::printf("    %-16s %llu fired / %llu hits\n", fault::fault_point_name(point),
                static_cast<unsigned long long>(injector.fires(point)),
                static_cast<unsigned long long>(injector.hits(point)));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown({"phones", "jobs", "spec", "seed", "timeout-s",
                                      "speculation", "straggler-factor", "restart", "pods",
                                      "cache-mb", "metrics-out", "trace-out", "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  const int phones = static_cast<int>(flags.get_int("phones", 4));
  if (phones < 1) {
    std::fputs("cwc_chaos: --phones must be >= 1\n", stderr);
    return 2;
  }
  const double cache_mb = flags.get_double("cache-mb", 0.0);
  std::string spec = flags.get("spec", kDefaultSpec);
  // With caches on and no explicit spec, add the bounded cache-corruption
  // storm: entries rot, the agent's CRC check catches them, and the
  // re-fetch path must still produce byte-identical results.
  if (cache_mb > 0.0 && !flags.has("spec")) {
    spec += ";chunk_cache:corrupt@every=3@limit=9";
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260806));
  constexpr std::uint64_t kInputSeed = 0x5eedf00dULL;  // job inputs, not faults

  RunOptions options;
  options.timeout_s = static_cast<double>(flags.get_int("timeout-s", 120));
  options.speculation = flags.get("speculation", "on") == "on";
  options.straggler_factor = flags.get_double("straggler-factor", 2.0);
  options.slow_phone = options.speculation;
  options.cache_mb = cache_mb;
  if (flags.has("pods")) {
    options.use_pods = true;
    const std::string pods = flags.get("pods", "auto");
    if (pods != "auto") {
      const int n = std::stoi(pods);
      if (n <= 0) {
        std::fputs("cwc_chaos: --pods must be 'auto' or a positive count\n", stderr);
        return 2;
      }
      options.pods = static_cast<std::size_t>(n);
    }
  }
  const bool restart_leg = flags.get("restart", "on") == "on";
  const int total_legs = restart_leg ? 4 : 3;

  std::vector<JobSpec> jobs;
  std::vector<fault::FaultRule> rules;
  try {
    jobs = parse_jobs(flags.get("jobs", "prime-count:128,word-count:error:96,log-scan:disk "
                                        "failure:96"));
    rules = fault::parse_fault_spec(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cwc_chaos: %s\n", e.what());
    return 2;
  }
  if (jobs.empty()) {
    std::fputs("cwc_chaos: --jobs parsed to an empty batch\n", stderr);
    return 2;
  }

  struct sigaction sa = {};
  sa.sa_handler = request_stop;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const std::uint64_t trace_begin = obs::TraceRecorder::global().watermark();
  if (flags.has("trace-out")) obs::TraceRecorder::global().enable();

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  fault::FaultInjector& injector = fault::FaultInjector::global();

  std::printf("cwc_chaos: %d phones, %zu jobs, fault seed %llu\n  spec: %s\n", phones,
              jobs.size(), static_cast<unsigned long long>(seed), spec.c_str());

  // Run 0: fault-free, speculation-free reference — the ground truth every
  // other leg must reproduce byte for byte. The fleet (including the slow
  // phone) is identical across legs so only the machinery under test varies.
  injector.reset();
  std::printf("[1/%d] fault-free reference run...\n", total_legs);
  std::fflush(stdout);
  RunOptions reference_options = options;
  reference_options.speculation = false;
  // The reference always packs flat, so a --pods storm doubles as a live
  // pods-vs-flat differential: results must byte-match across schedulers.
  reference_options.use_pods = false;
  const RunResult reference = run_once(jobs, phones, reference_options, kInputSeed, registry);
  if (!reference.completed) {
    std::fputs("cwc_chaos: fault-free reference run did not complete — the live "
               "path is broken before any fault was injected\n",
               stderr);
    return soak::exit_code(soak::Invariant::kLostPiece);
  }
  std::printf("      complete (%zu results, %.1f s)\n", reference.results.size(),
              reference.wall_s);

  // Runs 1 and 2: the same seeded storm twice. reset() clears rules AND the
  // telemetry observer, so both are re-installed per run; arm(seed) restarts
  // the Bernoulli stream so run 2 replays run 1's schedule.
  //
  // The exit code reports the *first* violated invariant (the later legs
  // still run, so the console shows everything that broke).
  soak::Invariant violated = soak::Invariant::kNone;
  bool speculation_ok = true;
  std::size_t spec_launches = 0;
  std::size_t spec_duplicates = 0;
  RunResult chaos[2];
  for (int i = 0; i < 2; ++i) {
    injector.reset();
    injector.add_rules(rules);
    obs::arm_fault_telemetry();
    injector.arm(seed);
    std::printf("[%d/%d] chaos run %d...\n", i + 2, total_legs, i + 1);
    std::fflush(stdout);
    chaos[i] = run_once(jobs, phones, options, kInputSeed, registry);
    injector.disarm();
    std::printf("      %s, %llu faults fired", chaos[i].completed ? "complete" : "INCOMPLETE",
                static_cast<unsigned long long>(chaos[i].fault_fires));
    if (options.speculation) {
      std::printf(", %zu backups launched, %zu duplicate completions dropped",
                  chaos[i].spec_launches, chaos[i].spec_duplicates);
    }
    if (options.cache_mb > 0.0) {
      std::printf(", %zu chunk refetches", chaos[i].chunk_refetches);
    }
    std::printf(":\n");
    print_fires();
    spec_launches += chaos[i].spec_launches;
    spec_duplicates += chaos[i].spec_duplicates;
    const std::string label = "chaos run " + std::to_string(i + 1);
    const soak::Invariant leg = results_match(reference, chaos[i], label.c_str());
    if (leg != soak::Invariant::kNone && violated == soak::Invariant::kNone) violated = leg;
    if (g_stop.load()) break;
  }
  injector.reset();

  // Run 3: the fault here is the server process itself dying mid-batch.
  if (restart_leg && !g_stop.load()) {
    std::printf("[%d/%d] server-restart run (journal + recover_from)...\n", total_legs,
                total_legs);
    std::fflush(stdout);
    const RunResult restarted = run_restart(jobs, phones, options, kInputSeed, registry);
    if (options.speculation) {
      std::printf("      %s, %zu backups launched, %zu duplicate completions dropped\n",
                  restarted.completed ? "complete" : "INCOMPLETE", restarted.spec_launches,
                  restarted.spec_duplicates);
    } else {
      std::printf("      %s\n", restarted.completed ? "complete" : "INCOMPLETE");
    }
    spec_launches += restarted.spec_launches;
    spec_duplicates += restarted.spec_duplicates;
    // Any restart-leg failure is a journal-convergence violation: the
    // recovered server must finish the batch and byte-match the reference.
    if (results_match(reference, restarted, "restart run") != soak::Invariant::kNone &&
        violated == soak::Invariant::kNone) {
      violated = soak::Invariant::kNonConvergence;
    }
  }

  if (options.speculation && !g_stop.load()) {
    if (spec_launches == 0) {
      std::fputs("cwc_chaos: speculation was enabled with a 10x-slow phone but no "
                 "backup ever launched\n",
                 stderr);
      speculation_ok = false;
    } else {
      std::printf("speculation engaged: %zu backups launched, %zu duplicate completions "
                  "dropped, zero double-aggregations (results byte-checked)\n",
                  spec_launches, spec_duplicates);
    }
  }

  if (flags.has("metrics-out")) {
    obs::write_snapshot_file(flags.get("metrics-out"));
    std::printf("metrics snapshot: %s\n", flags.get("metrics-out").c_str());
  }
  if (flags.has("trace-out")) {
    obs::write_trace_file(flags.get("trace-out"), obs::TraceRecorder::global(), trace_begin);
    std::printf("trace: wrote %s\n", flags.get("trace-out").c_str());
  }
  if (g_stop.load()) {
    std::fputs("cwc_chaos: interrupted by signal\n", stderr);
    return 130;
  }
  if (violated != soak::Invariant::kNone) {
    std::fprintf(stderr, "cwc_chaos: FAIL — %s (see divergence above)\n",
                 soak::invariant_name(violated));
    return soak::exit_code(violated);
  }
  if (!speculation_ok) {
    std::fputs("cwc_chaos: FAIL — speculation never engaged\n", stderr);
    return 1;
  }
  std::printf("cwc_chaos: PASS — all %d runs completed all %zu jobs with results "
              "byte-identical to the fault-free reference\n",
              total_legs - 1, jobs.size());
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_chaos", e.what());
  return 2;
}
