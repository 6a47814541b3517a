// cwc_soak — randomized, invariant-checked soak explorer for the CWC stack.
//
// Where cwc_chaos replays one storm, cwc_soak *generates* them: each run
// expands a seed into a schedule of point faults (common/fault.h),
// link faults (common/link_fault.h — asymmetric partitions, slow links,
// flaps, burst loss), an optional mid-batch server kill, and phone churn,
// then executes it on the requested substrate and checks the invariant
// catalog (src/soak/soak.h). Run seeds derive deterministically from
// --seed, so a soak campaign is reproducible from one number.
//
// On the first violation the failing schedule is shrunk ddmin-style to a
// minimal reproducer (unless --shrink=off) and written, with its seed and
// the violated invariant, to --artifact-dir for replay via --schedule.
//
// Examples:
//   cwc_soak --runs=20 --seed=1 --substrate=sim        # PR-gate leg
//   cwc_soak --runs=5 --substrate=both --verbose
//   cwc_soak --schedule=/tmp/soak-seed42.repro         # replay an artifact
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "soak/soak.h"

using namespace cwc;

namespace {

constexpr const char* kUsage = R"(cwc_soak: randomized soak explorer (seeded storms + invariant checks)
  --runs=N             seeded schedules to generate and run (default 20)
  --seed=N             campaign seed; run k uses splitmix64(seed, k)
                       (default 20260808)
  --substrate=S        sim | live | both (default sim)
  --phones=N           fleet size for both substrates (default 4)
  --timeout-s=N        live per-leg completion deadline (default 60)
  --max-events=N       cap on generated rules per schedule (default 3 each
                       of point and link rules)
  --kill=on|off        allow schedules with a mid-batch server kill +
                       journal recovery leg (default on, live only)
  --shrink=on|off      ddmin-minimize the first failing schedule
                       (default on)
  --shrink-probes=N    shrink budget in re-runs (default 24)
  --artifact-dir=DIR   where minimized reproducers are written
                       (default /tmp)
  --schedule=FILE      skip generation: run one schedule from a reproducer
                       artifact (to_text() form)
  --bank-stale-reports TESTING ONLY: plant the stale-ack banking
                       regression in the live server (the gate must catch
                       and shrink it; see tests/soak)
  --verbose            per-leg progress logging

Exit status (shared with cwc_chaos, see src/soak/soak.h):
  0   every run held every invariant
  2   bad flags / unreadable schedule file
  10  byte mismatch vs the fault-free reference (lost/double banking)
  11  lost piece: a run failed to complete within its deadline
  12  non-convergence: journal replay or same-seed re-run diverged
  13  quarantine starvation: the whole fleet wedged in quarantine
  14  makespan envelope exceeded
  15  healthy peer lost: under a live schedule whose rules all target
      specific phones, a phone no rule names was declared lost
  130 interrupted by signal
)";

volatile std::sig_atomic_t g_stop = 0;

void request_stop(int) { g_stop = 1; }

soak::SoakVerdict run_schedule(const soak::SoakSchedule& schedule, const std::string& substrate,
                               const soak::RunOptions& options) {
  if (substrate == "sim" || substrate == "both") {
    const soak::SoakVerdict verdict = soak::run_sim(schedule, options);
    if (!verdict) return verdict;
  }
  if (substrate == "live" || substrate == "both") {
    return soak::run_live(schedule, options);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown({"runs", "seed", "substrate", "phones", "timeout-s",
                                      "max-events", "kill", "shrink", "shrink-probes",
                                      "artifact-dir", "schedule", "bank-stale-reports",
                                      "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  const std::string substrate = flags.get("substrate", "sim");
  if (substrate != "sim" && substrate != "live" && substrate != "both") {
    std::fputs("cwc_soak: --substrate must be sim, live, or both\n", stderr);
    return 2;
  }
  const auto runs = flags.get_int("runs", 20);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260808));

  soak::RunOptions options;
  options.phones = static_cast<int>(flags.get_int("phones", 4));
  options.timeout_s = static_cast<double>(flags.get_int("timeout-s", 60));
  options.bank_stale_reports = flags.get_bool("bank-stale-reports");
  options.verbose = flags.get_bool("verbose");
  if (options.phones < 1) {
    std::fputs("cwc_soak: --phones must be >= 1\n", stderr);
    return 2;
  }

  soak::SoakProfile profile;
  profile.phones = options.phones;
  profile.max_point_rules = static_cast<int>(flags.get_int("max-events", 3));
  profile.max_link_rules = profile.max_point_rules;
  profile.allow_kill = flags.get("kill", "on") == "on" && substrate != "sim";

  struct sigaction sa = {};
  sa.sa_handler = request_stop;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // Replay mode: one schedule from an artifact, no generation, no shrink.
  if (flags.has("schedule")) {
    const std::string path = flags.get("schedule");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cwc_soak: cannot read --schedule=%s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    soak::SoakSchedule schedule;
    try {
      schedule = soak::SoakSchedule::parse(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cwc_soak: %s\n", e.what());
      return 2;
    }
    std::printf("cwc_soak: replaying %s (seed %llu, %zu events)\n", path.c_str(),
                static_cast<unsigned long long>(schedule.seed), schedule.events.size());
    const soak::SoakVerdict verdict = run_schedule(schedule, substrate, options);
    if (!verdict) {
      std::fprintf(stderr, "cwc_soak: FAIL — %s: %s\n",
                   soak::invariant_name(verdict.violated), verdict.detail.c_str());
      return soak::exit_code(verdict.violated);
    }
    std::printf("cwc_soak: PASS — schedule held every invariant\n");
    return 0;
  }

  std::printf("cwc_soak: %lld runs on %s, campaign seed %llu, %d phones\n",
              static_cast<long long>(runs), substrate.c_str(),
              static_cast<unsigned long long>(seed), options.phones);
  for (std::int64_t k = 0; k < runs; ++k) {
    if (g_stop) {
      std::fputs("cwc_soak: interrupted by signal\n", stderr);
      return 130;
    }
    // Run seeds are splitmix64 steps off the campaign seed: independent
    // streams, reproducible individually (cwc_soak --runs=1 --seed=<hex>).
    std::uint64_t state = seed + static_cast<std::uint64_t>(k);
    const std::uint64_t run_seed = splitmix64(state);
    const soak::SoakSchedule schedule = soak::generate_schedule(run_seed, profile);
    std::printf("[%lld/%lld] seed %llu: %zu events%s%s\n", static_cast<long long>(k + 1),
                static_cast<long long>(runs), static_cast<unsigned long long>(run_seed),
                schedule.events.size(), schedule.kill_server ? ", server kill" : "",
                schedule.churn > 0 ? (", churn x" + std::to_string(schedule.churn)).c_str()
                                   : "");
    std::fflush(stdout);
    const soak::SoakVerdict verdict = run_schedule(schedule, substrate, options);
    if (verdict) continue;

    std::fprintf(stderr, "cwc_soak: run %lld violated %s: %s\n",
                 static_cast<long long>(k + 1), soak::invariant_name(verdict.violated),
                 verdict.detail.c_str());
    soak::SoakSchedule reproducer = schedule;
    if (flags.get("shrink", "on") == "on") {
      std::printf("  shrinking (%zu events)...\n", schedule.events.size());
      std::fflush(stdout);
      const soak::ShrinkResult shrunk = soak::shrink(
          schedule, verdict.violated,
          [&](const soak::SoakSchedule& candidate) {
            return run_schedule(candidate, substrate, options);
          },
          static_cast<int>(flags.get_int("shrink-probes", 24)));
      reproducer = shrunk.schedule;
      std::printf("  minimized to %zu events in %d probes\n", reproducer.events.size(),
                  shrunk.probes);
    }
    const std::string artifact =
        soak::write_artifact(reproducer, verdict, flags.get("artifact-dir", "/tmp"));
    std::fprintf(stderr, "cwc_soak: FAIL — reproducer written to %s\n", artifact.c_str());
    return soak::exit_code(verdict.violated);
  }
  std::printf("cwc_soak: PASS — %lld/%lld runs held every invariant\n",
              static_cast<long long>(runs), static_cast<long long>(runs));
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_soak", e.what());
  return 2;
}
