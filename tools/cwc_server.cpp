// cwc_server — the CWC central server as a standalone tool.
//
// Submits one or more jobs (from files or generated synthetically), waits
// for phones to register, schedules with the greedy makespan scheduler,
// and prints aggregated results. Pair with `cwc_phone` instances on the
// same machine or across a LAN (--bind-all).
//
// Examples:
//   # serve a generated 4 MB prime-count job to 3 phones on port 7000
//   cwc_server --port=7000 --phones=3 --generate=prime-count:4096
//
//   # analyze a real log file for disk failures
//   cwc_server --port=7000 --phones=2 --task="log-scan:disk failure" \
//              --input=/var/log/syslog
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/fault.h"
#include "common/flags.h"
#include "common/link_fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "core/pod_packing.h"
#include "core/testbed.h"
#include "net/obs_http.h"
#include "net/server.h"
#include "obs/fault_obs.h"
#include "obs/link_obs.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "tasks/generators.h"
#include "tasks/logscan.h"
#include "tasks/primes.h"
#include "tasks/registry.h"
#include "tasks/sales.h"
#include "tasks/wordcount.h"

using namespace cwc;

namespace {

constexpr const char* kUsage = R"(cwc_server: the CWC central server
  --port=N             listening port (default 7000; 0 = kernel-assigned)
  --bind-all           listen on all interfaces (default: loopback only)
  --phones=N           wait for N phone registrations before scheduling (default 1)
  --timeout-s=N        give up after N seconds (default 600)
  --task=NAME          task program for --input (default prime-count)
  --input=FILE         submit FILE as one job (repeatable via commas)
  --generate=SPEC      generate a synthetic job: NAME:KB (repeatable via commas)
                       NAME in {prime-count, word-count:error,
                       log-scan:disk failure, sales-aggregate, photo-blur}
  --pods=auto|N        hierarchical pod packing: partition the fleet into N
                       pods (auto = one pod per 128 schedulable phones) and
                       pack them concurrently (default: flat greedy packing)
  --chunk-kb=N         content-addressed shipping grid size in KB: agents
                       that registered a cache budget receive only the
                       chunks they are missing (default 64; 0 disables
                       chunking and ships every assignment whole)
  --keepalive-ms=N     keep-alive period (default 5000, 3 misses tolerated)
  --assign-retry-ms=N  re-deliver unreported assignments after N ms,
                       doubling per retry (default 0 = never)
  --speculation=on|off speculative re-execution of straggler pieces
                       (default off)
  --straggler-factor=X back up a piece when its expected remaining time
                       exceeds X times the median of the others (default 2)
  --spec-fraction=X    only speculate once this fraction of the batch's
                       input bytes is done (default 0.75)
  --health-alpha=X     EWMA weight of the phone-health score (default 0.3)
  --health-quarantine=X  quarantine a probationary phone when its health
                       score reaches X (default 0.8)
  --health-parole-ticks=N  scheduling instants a quarantined phone sits out
                       before parole (default 3)
  --link-spec=SPEC     arm the link fault plane, e.g.
                       "link:phone=3:partition@t=10s,dur=5s;link:*:slow@rate=1mbps"
                       (grammar in src/common/link_fault.h; shares --fault-seed).
                       Enforcement is sender-side and in-process: with real
                       cwc_phone processes only downlink (dir=to) rules bite
                       here; uplink rules need the in-process harnesses
                       (cwc_chaos, cwc_soak, the swarm)
  --fault-spec=SPEC    arm deterministic fault injection, e.g.
                       "socket_write:reset@p=0.02;keepalive_send:drop@every=4"
                       (grammar in src/common/fault.h)
  --fault-seed=N       seed for probabilistic fault rules (default 1)
  --metrics-out=FILE   write a telemetry snapshot (.csv = CSV, else JSON)
  --metrics-interval-ms=N  rewrite --metrics-out every N ms during the run
                       (atomic tmp+rename, so pollers never see a torn file)
  --timeseries-out=FILE  sample every metric into bounded time-series rings
                       (250 ms cadence) and write them as JSON at exit
  --obs-port=N         serve live telemetry over HTTP: /metrics (Prometheus
                       text), /metrics.json, /healthz. Poll it with cwc_top.
                       Loopback-only unless --bind-all. 0 = kernel-assigned.
  --trace-out=FILE     write the run's event trace as Chrome trace-event JSON
                       (open in https://ui.perfetto.dev, or feed to cwc_trace)
  --verbose            info-level logging

On SIGINT/SIGTERM the event loop stops at the next iteration and the
--metrics-out / --trace-out files are still written before exiting.
)";

/// Set from the signal handler; polled by the server event loop.
std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

tasks::Bytes generate_input(const std::string& name, double kb, Rng& rng) {
  if (name == "prime-count") return tasks::make_integer_input(rng, kb);
  if (name.rfind("word-count", 0) == 0) return tasks::make_text_input(rng, kb);
  if (name.rfind("log-scan", 0) == 0) return tasks::make_log_input(rng, kb);
  if (name == "sales-aggregate") return tasks::make_sales_input(rng, kb);
  if (name == "photo-blur") return tasks::make_image_input_of_size(rng, kb);
  throw std::invalid_argument("no generator for task " + name);
}

void print_result(const std::string& task, const net::Blob& result) {
  if (task == "prime-count") {
    std::printf("  primes found: %llu\n",
                static_cast<unsigned long long>(tasks::PrimeCountFactory::decode(result)));
  } else if (task.rfind("word-count", 0) == 0) {
    std::printf("  word occurrences: %llu\n",
                static_cast<unsigned long long>(tasks::WordCountFactory::decode(result)));
  } else if (task.rfind("log-scan", 0) == 0) {
    const auto scan = tasks::LogScanFactory::decode(result);
    std::printf("  lines=%llu errors=%llu pattern-matches=%llu\n",
                static_cast<unsigned long long>(scan.total_lines),
                static_cast<unsigned long long>(
                    scan.severity_counts[static_cast<std::size_t>(tasks::Severity::kError)]),
                static_cast<unsigned long long>(scan.pattern_matches));
  } else if (task == "sales-aggregate") {
    const auto sales = tasks::SalesAggregateFactory::decode(result);
    std::printf("  top category: %s\n",
                std::string(tasks::kSalesCategories[sales.top_category()]).c_str());
  } else {
    std::printf("  result: %zu bytes\n", result.size());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown =
      flags.unknown({"port", "bind-all", "phones", "timeout-s", "task", "input", "generate",
                     "pods", "chunk-kb", "keepalive-ms", "assign-retry-ms", "speculation",
                     "straggler-factor",
                     "spec-fraction", "health-alpha", "health-quarantine",
                     "health-parole-ticks", "fault-spec", "fault-seed", "link-spec",
                     "metrics-out",
                     "metrics-interval-ms", "timeseries-out", "obs-port",
                     "trace-out", "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  net::ServerConfig config;
  config.port = static_cast<std::uint16_t>(flags.get_int("port", 7000));
  config.bind_all_interfaces = flags.get_bool("bind-all");
  config.chunk_bytes =
      static_cast<std::size_t>(flags.get_double("chunk-kb", 64.0) * 1024.0);
  config.keepalive_period = static_cast<Millis>(flags.get_int("keepalive-ms", 5000));
  config.assign_retry_period = static_cast<Millis>(flags.get_int("assign-retry-ms", 0));
  config.scheduling_period = 500.0;
  config.stop = &g_stop;
  config.speculation.enabled = flags.get("speculation", "off") == "on";
  config.speculation.straggler_factor = flags.get_double("straggler-factor", 2.0);
  config.speculation.completion_fraction = flags.get_double("spec-fraction", 0.75);
  config.health.alpha = flags.get_double("health-alpha", 0.3);
  config.health.quarantine_threshold = flags.get_double("health-quarantine", 0.8);
  config.health.parole_after_ticks = static_cast<int>(flags.get_int("health-parole-ticks", 3));

  if (flags.has("fault-spec")) {
    try {
      fault::FaultInjector& injector = fault::FaultInjector::global();
      injector.add_rules(fault::parse_fault_spec(flags.get("fault-spec")));
      obs::arm_fault_telemetry();
      injector.arm(static_cast<std::uint64_t>(flags.get_int("fault-seed", 1)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fault-spec: %s\n", e.what());
      return 2;
    }
    std::printf("fault injection armed: %s (seed %lld)\n", flags.get("fault-spec").c_str(),
                static_cast<long long>(flags.get_int("fault-seed", 1)));
  }
  if (flags.has("link-spec")) {
    try {
      fault::LinkFaultPlane& plane = fault::LinkFaultPlane::global();
      plane.add_rules(flags.get("link-spec"));
      obs::arm_link_telemetry();
      plane.arm(static_cast<std::uint64_t>(flags.get_int("fault-seed", 1)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --link-spec: %s\n", e.what());
      return 2;
    }
    std::printf("link fault plane armed: %s (seed %lld)\n", flags.get("link-spec").c_str(),
                static_cast<long long>(flags.get_int("fault-seed", 1)));
  }
  std::unique_ptr<core::Scheduler> scheduler;
  if (flags.has("pods")) {
    core::PodPackingScheduler::Options pod_options;
    const std::string pods = flags.get("pods", "auto");
    if (pods != "auto") {
      const int n = std::stoi(pods);
      if (n <= 0) {
        std::fprintf(stderr, "--pods must be 'auto' or a positive count\n");
        return 2;
      }
      pod_options.pods = static_cast<std::size_t>(n);
    }
    scheduler = std::make_unique<core::PodPackingScheduler>(pod_options);
  } else {
    scheduler = std::make_unique<core::GreedyScheduler>();
  }
  net::CwcServer server(std::move(scheduler), core::paper_prediction(), &registry, config);

  // Stop cleanly on Ctrl-C / kill so telemetry and traces still flush.
  struct sigaction sa = {};
  sa.sa_handler = request_stop;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const std::uint64_t trace_begin = obs::TraceRecorder::global().watermark();
  if (flags.has("trace-out")) obs::TraceRecorder::global().enable();

  Rng rng(20260706);  // fixed seed: reproducible tool runs
  std::vector<std::pair<JobId, std::string>> submitted;

  // Jobs from files.
  const std::string task = flags.get("task", "prime-count");
  for (const auto& path : split(flags.get("input"), ',')) {
    if (path.empty()) continue;
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    net::Blob input((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
    submitted.emplace_back(server.submit(task, std::move(input)), task);
  }
  // Generated jobs: NAME:KB.
  for (const auto& spec : split(flags.get("generate"), ',')) {
    if (spec.empty()) continue;
    const auto colon = spec.rfind(':');
    const std::string name = spec.substr(0, colon);
    const double kb = colon == std::string::npos ? 1024.0 : std::stod(spec.substr(colon + 1));
    submitted.emplace_back(server.submit(name, generate_input(name, kb, rng)), name);
  }
  if (submitted.empty()) {
    // Default demo job so the tool does something out of the box.
    submitted.emplace_back(
        server.submit("prime-count", generate_input("prime-count", 1024.0, rng)),
        "prime-count");
  }

  // Live telemetry plane: the HTTP exposition endpoint, the time-series
  // sampler, and the periodic snapshot rewriter all ride the server's
  // event loop as watchers and wheel timers — the whole process is one
  // thread, and scrapes interleave with fleet traffic between events.
  std::unique_ptr<net::ObsHttpServer> obs_http;
  if (flags.has("obs-port")) {
    obs_http = std::make_unique<net::ObsHttpServer>(
        static_cast<std::uint16_t>(flags.get_int("obs-port", 0)),
        /*loopback_only=*/!flags.get_bool("bind-all"));
    obs_http->attach(server.loop());
    std::printf("live telemetry on http://127.0.0.1:%u/metrics (try: cwc_top --port=%u)\n",
                obs_http->port(), obs_http->port());
    std::fflush(stdout);
  }
  obs::TimeSeriesSampler sampler;
  if (flags.has("timeseries-out")) {
    server.loop().every(250.0, [&server, &sampler] {
      sampler.sample_now(server.loop().now_ms());
    });
  }
  const auto metrics_interval = flags.get_int("metrics-interval-ms", 0);
  if (metrics_interval > 0 && flags.has("metrics-out")) {
    server.loop().every(static_cast<Millis>(metrics_interval), [&flags] {
      obs::write_snapshot_file_atomic(flags.get("metrics-out"));
    });
  }

  const int phones = static_cast<int>(flags.get_int("phones", 1));
  std::printf("cwc_server listening on port %u; %zu job(s) submitted; waiting for %d phone(s)\n",
              server.port(), submitted.size(), phones);
  std::fflush(stdout);  // scripts grep the port before phones connect

  const bool done = server.run(phones, seconds(static_cast<double>(
                                           flags.get_int("timeout-s", 600))));
  if (obs_http) obs_http->detach();
  if (flags.has("timeseries-out")) {
    // SIGINT lands here too — the stop flag exits the run loop cleanly,
    // exactly like --metrics-out/--trace-out.
    if (obs::write_timeseries_file(flags.get("timeseries-out"), sampler)) {
      std::printf("timeseries: %s\n", flags.get("timeseries-out").c_str());
    } else {
      std::fprintf(stderr, "cannot write timeseries to %s\n",
                   flags.get("timeseries-out").c_str());
    }
  }
  // Telemetry is most valuable on failed or interrupted runs, so write it
  // before bailing (the stop flag turned a signal into a clean loop exit).
  if (flags.has("metrics-out")) {
    obs::write_snapshot_file(flags.get("metrics-out"));
    std::printf("metrics snapshot: %s\n", flags.get("metrics-out").c_str());
  }
  if (flags.has("trace-out")) {
    obs::write_trace_file(flags.get("trace-out"), obs::TraceRecorder::global(), trace_begin);
    std::printf("trace: wrote %s (analyze with cwc_trace, or load in Perfetto)\n",
                flags.get("trace-out").c_str());
  }
  if (g_stop.load()) {
    std::fprintf(stderr, "interrupted by signal; telemetry flushed\n");
    return 130;
  }
  if (!done) {
    std::fprintf(stderr, "timed out with incomplete jobs\n");
    return 1;
  }
  std::printf("all jobs complete (%zu scheduling rounds, %zu online failures, %zu phones "
              "lost)\n",
              server.scheduling_rounds(), server.failures_received(), server.phones_lost());
  if (config.speculation.enabled) {
    std::printf("speculation: %zu backups launched, %zu backup wins, %zu duplicate "
                "completions dropped\n",
                server.speculative_launches(), server.speculative_wins_backup(),
                server.duplicate_completions());
  }
  for (const auto& [job, name] : submitted) {
    std::printf("job %d [%s]:\n", job, name.c_str());
    print_result(name, server.result(job));
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_server", e.what());
  return 2;
}
