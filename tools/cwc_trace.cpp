// cwc_trace — analyze a CWC runtime event trace (Chrome trace-event JSON
// written by `cwc_sim --trace-out` or `cwc_server --trace-out`).
//
// Prints the paper's Fig. 12 story from a recorded run: where each phone's
// wall-clock went (ship / compute / overhead / idle), which phones
// straggled, how failed pieces migrated hop by hop, and the causal chain
// behind the last-finishing piece (the makespan's critical path).
//
//   cwc_sim --unplugs=2 --trace-out=run.json && cwc_trace run.json
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "common/strings.h"
#include "obs/trace_analysis.h"
#include "obs/trace_export.h"

using namespace cwc;

namespace {

constexpr const char* kUsage = R"(cwc_trace: CWC trace analyzer
  usage: cwc_trace [flags] TRACE.json
  --straggler-factor=X flag phones finishing later than X times the median
                       finish time (default 1.2)
  --width=N            columns for the textual timeline (default 64; 0 = off)
)";

double pct(Millis part, Millis whole) {
  return whole > 0.0 ? part / whole * 100.0 : 0.0;
}

const char* outcome_name(obs::TraceEventType outcome) {
  switch (outcome) {
    case obs::TraceEventType::kPieceCompleted: return "completed";
    case obs::TraceEventType::kPieceFailedOnline: return "failed online";
    case obs::TraceEventType::kPieceFailedOffline: return "failed offline";
    case obs::TraceEventType::kPieceRescheduled: return "requeued (phone lost before start)";
    default: return obs::trace_event_name(outcome);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown({"straggler-factor", "width", "help"});
  if (!unknown.empty() || flags.get_bool("help") || flags.positional().size() != 1) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }

  obs::ParsedTrace trace;
  try {
    trace = obs::read_trace_file(flags.positional().front());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cwc_trace: %s\n", e.what());
    return 1;
  }

  std::printf("trace: %s — %zu events", flags.positional().front().c_str(),
              trace.events.size());
  if (trace.events_recorded > 0) {
    std::printf(" (%llu recorded, %llu dropped)",
                static_cast<unsigned long long>(trace.events_recorded),
                static_cast<unsigned long long>(trace.events_dropped));
  }
  std::printf("\n");
  if (trace.events_dropped > 0) {
    std::fprintf(stderr,
                 "WARNING: the recorder dropped %llu events (ring buffer full); "
                 "breakdowns and chains below may be incomplete\n",
                 static_cast<unsigned long long>(trace.events_dropped));
  }
  if (trace.events.empty()) {
    std::printf("nothing to analyze\n");
    return 0;
  }

  const obs::TraceAnalysis analysis =
      obs::analyze(trace.events, flags.get_double("straggler-factor", 1.2));
  std::printf("makespan: %.1f s\n\n", to_seconds(analysis.makespan));

  // Per-phone breakdown (the Fig. 12 accounting). The cache column shows
  // per-phone chunk-cache hit rate — the fraction of piece bytes served
  // locally instead of crossing the link — only for traces with chunking.
  bool any_cache = false;
  for (const auto& p : analysis.phones) any_cache = any_cache || p.cache_hit_kb > 0.0;
  std::printf("phone    ship%%  compute%%  overhead%%  idle%%  done  lost  finish_s%s\n",
              any_cache ? "  cache%" : "");
  for (const auto& p : analysis.phones) {
    std::printf("%5d    %5.1f  %8.1f  %9.1f  %5.1f  %4d  %4d  %8.1f", p.phone,
                pct(p.ship_ms, analysis.makespan), pct(p.compute_ms, analysis.makespan),
                pct(p.overhead_ms, analysis.makespan), pct(p.idle_ms, analysis.makespan),
                p.completed, p.failed, to_seconds(p.finish));
    if (any_cache) {
      std::printf("  %6.1f", pct(p.cache_hit_kb, p.cache_hit_kb + p.shipped_kb));
    }
    std::printf("\n");
  }

  if (!analysis.stragglers.empty()) {
    std::string ids;
    for (const PhoneId phone : analysis.stragglers) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(phone);
    }
    std::printf("\nstragglers (finish > %.2fx median): phone %s\n",
                flags.get_double("straggler-factor", 1.2), ids.c_str());
  } else {
    std::printf("\nno stragglers (factor %.2f)\n", flags.get_double("straggler-factor", 1.2));
  }

  // Migration chains: the hop-by-hop life of every job that lost a piece.
  if (analysis.chains.empty()) {
    std::printf("\nno failures: every piece completed on its first phone\n");
  } else {
    std::printf("\nmigration chains (%zu job(s) with failures):\n", analysis.chains.size());
    for (const auto& chain : analysis.chains) {
      std::printf("  job %d (%d failure(s)):\n", chain.job, chain.failures);
      for (const auto& hop : chain.hops) {
        std::printf("    piece %d attempt %d on phone %d -> %s at %.1f s\n", hop.piece,
                    hop.attempt, hop.phone, outcome_name(hop.outcome), to_seconds(hop.t));
      }
    }
  }

  // Critical path: why the makespan is what it is.
  if (!analysis.critical_path.empty()) {
    std::printf("\ncritical path to the last-finishing piece:\n");
    for (const auto& event : analysis.critical_path) {
      std::printf("  %8.1f s  %-22s job %d piece %d attempt %d", to_seconds(event.t),
                  obs::trace_event_name(event.type), event.job, event.piece, event.attempt);
      if (event.phone != kInvalidPhone) std::printf(" phone %d", event.phone);
      std::printf("\n");
    }
  }

  const int width = static_cast<int>(flags.get_int("width", 64));
  if (width > 0) {
    std::printf("\n%s", obs::text_timeline(trace.events, width).c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_trace", e.what());
  return 2;
}
