// cwc_perfbench — one (workload, seed) run of the repository benchmark.
//
//   cwc_perfbench --workload live-small --seed 3 --seconds 20 --trace 0
//
// Repeats the workload's batch, each time from a fresh server or
// simulator, until the next batch would overrun --seconds, then prints
// medians. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced batches, prints the per-layer metrics of the traced
// ones, the tracing overhead, and writes the last traced batch's spans as
// Chrome trace-event JSON. The last stdout line is one JSON object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},      {"batch_s", "s"},    {"pieces_per_s", "1/s"},
    {"input_mb_per_s", "MB/s"}, {"makespan_s", "s"}, {"peak_rss_mb", "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"core.scheduler.builds", "count"},
    {"core.scheduler.build_ms", "ms"},
    {"core.scheduler.first_build_ms", "ms"},
    {"core.scheduler.pack_attempts", "count"},
    {"core.scheduler.bisections", "count"},
    {"core.scheduler.warm_start_hits", "count"},
    {"core.pods.bisections", "count"},
    {"core.pods.lp_bounds_solved", "count"},
    {"core.pods.lp_bounds_tightened", "count"},
    {"core.pods.rebalanced_pieces", "count"},
    {"core.controller.scheduling_instants", "count"},
    {"core.controller.rescheduled_kb", "KB"},
    {"sim.run_self_ms", "ms"},
    {"sim.pieces_completed", "count"},
    {"sim.failures", "count"},
    {"sim.spec_launched", "count"},
    {"tasks.exec_ms", "ms"},
    {"tasks.exec_mb", "MB"},
    {"tasks.aggregate_ms", "ms"},
    {"tasks.aggregate_calls", "count"},
    {"net.agent.busy_ms", "ms"},
    {"net.agent.decode_ms", "ms"},
    {"net.agent.encode_ms", "ms"},
    {"net.agent.write_frame_ms", "ms"},
    {"net.agent.recv_calls", "count"},
    {"net.agent.recv_mb", "MB"},
    {"net.server.busy_ms", "ms"},
    {"net.server.busy_share", "ratio"},
    {"net.server.frames_sent", "count"},
    {"net.server.frames_received", "count"},
    {"net.server.bytes_sent", "B"},
    {"net.server.bytes_received", "B"},
    {"net.server.assign_retries", "count"},
    {"net.server.stale_reports", "count"},
    {"net.server.piece_rtt_ms.p50", "ms"},
    {"net.server.piece_rtt_ms.tail", "ms"},
    {"net.server.piece_rtt_ms.count", "count"},
    {"net.loop.wakeups", "count"},
    {"net.loop.fd_dispatches", "count"},
    {"net.loop.timer_fires", "count"},
    {"net.server.submit_ms", "ms"},
    {"net.journal.append_ms", "ms"},
    {"net.journal.appends", "count"},
    {"net.journal.bytes", "B"},
    {"common.crc32.mb", "MB"},
    {"net.server.keepalive_rtt_ms.p50", "ms"},
    {"net.server.keepalive_rtt_ms.tail", "ms"},
    {"net.server.keepalive_rtt_ms.count", "count"},
    {"net.send_stall_ms", "ms"},
    {"net.link.paced_ms", "ms"},
    {"net.link.paced_sends", "count"},
};

constexpr const char* kUsage =
    "usage: cwc_perfbench --workload live-small|live-bulk|sim-flat|sim-pods --seed N\n"
    "                     --seconds S --trace 0|1 [--size X] [--corrupt-reference]\n"
    "                     [--work-dir DIR]\n";

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "corrupt-reference") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "size") {
      options.size = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.size > 0.0)) return false;
    } else if (key == "corrupt-reference") {
      options.corrupt_reference = true;
    } else if (key == "work-dir") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

/// The end-to-end values of a set of batches (medians across them).
std::vector<double> end_to_end(const std::vector<const Iteration*>& batches, double rss_mb) {
  std::vector<double> setup, batch, pieces, mb, makespan;
  for (const Iteration* it : batches) {
    setup.push_back(it->setup_s);
    batch.push_back(it->batch_s);
    pieces.push_back(it->batch_s > 0.0 ? it->pieces / it->batch_s : 0.0);
    mb.push_back(it->batch_s > 0.0 ? it->input_mb / it->batch_s : 0.0);
    makespan.push_back(it->makespan_s);
  }
  return {median(setup), median(batch), median(pieces), median(mb), median(makespan), rss_mb};
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& catalog, const std::vector<double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                catalog[i].name, values[i], catalog[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  cwc::set_log_level(cwc::LogLevel::kError);
  std::unique_ptr<Workload> workload = make_live_workload(options);
  if (!workload) workload = make_sim_workload(options);
  if (!workload) {
    std::fprintf(stderr, "cwc_perfbench: unknown workload '%s'\n", options.workload.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }

  // Batches repeat until the next one would overrun the measuring window;
  // a traced run needs at least one untraced and one traced batch.
  std::vector<Iteration> iterations;
  std::vector<Span> last_traced_spans;
  std::map<std::string, LayerTime> self_times;
  std::size_t traced_batches = 0;
  const Clock::time_point begin = Clock::now();
  double longest_s = 0.0;
  while (true) {
    const bool traced = options.trace && iterations.size() % 2 == 1;
    const Clock::time_point batch_begin = Clock::now();
    iterations.push_back(workload->run(static_cast<std::int64_t>(iterations.size()), traced));
    longest_s = std::max(longest_s, seconds_between(batch_begin, Clock::now()));
    std::vector<Span> spans = SpanRecorder::global().drain();
    if (traced) {
      ++traced_batches;
      for (const auto& [layer, time] : self_time_by_layer(spans)) {
        LayerTime& total = self_times[layer];
        total.spans += time.spans;
        total.total_ms += time.total_ms;
        total.self_ms += time.self_ms;
      }
      last_traced_spans = std::move(spans);
    }
    const Iteration& it = iterations.back();
    std::printf("batch %zu%s: setup_s=%.4f batch_s=%.4f makespan_s=%.4f pieces=%.0f "
                "input_mb=%.2f failed=%zu/%zu phones_lost=%zu\n",
                iterations.size() - 1, traced ? " (traced)" : "", it.setup_s, it.batch_s,
                it.makespan_s, it.pieces, it.input_mb, it.jobs_failed, it.jobs_submitted,
                it.phones_lost);
    std::fflush(stdout);
    const double elapsed = seconds_between(begin, Clock::now());
    const bool have_minimum = !options.trace || traced_batches > 0;
    if (have_minimum && elapsed + longest_s > options.seconds) break;
  }

  std::size_t attempted = 0, failed = 0, phones_lost = 0, disconnects = 0;
  double assign_retries = 0.0, stale_reports = 0.0;
  bool completed = true;
  std::vector<const Iteration*> untraced, traced;
  for (const Iteration& it : iterations) {
    attempted += it.jobs_submitted;
    failed += it.jobs_failed;
    phones_lost += it.phones_lost;
    disconnects += it.agent_disconnects;
    assign_retries += it.assign_retries;
    stale_reports += it.stale_reports;
    completed = completed && it.completed;
    (it.traced ? traced : untraced).push_back(&it);
  }
  const bool correct = completed && failed == 0;
  std::printf("accounting: batches=%zu jobs_submitted=%zu jobs_failed=%zu phones_lost=%zu "
              "assign_retries=%.0f stale_reports=%.0f agent_disconnects=%zu\n",
              iterations.size(), attempted, failed, phones_lost, assign_retries, stale_reports,
              disconnects);

  const double rss_mb = peak_rss_mb();
  const std::vector<double> plain = end_to_end(untraced, rss_mb);
  if (!options.trace) {
    print_json(correct, attempted, failed, kEndToEnd, plain);
    return correct ? 0 : 1;
  }

  // Traced run: the overhead of tracing on every end-to-end metric but the
  // last, peak_rss_mb, which is one value per process.
  const std::vector<double> with_spans = end_to_end(traced, rss_mb);
  for (std::size_t i = 0; i + 1 < kEndToEnd.size(); ++i) {
    const double delta = with_spans[i] - plain[i];
    std::printf("tracing overhead: %s traced-untraced = %+.6g %s (%+.2f%%)\n", kEndToEnd[i].name,
                delta, kEndToEnd[i].unit, plain[i] != 0.0 ? 100.0 * delta / plain[i] : 0.0);
  }
  std::printf("layer self time over %zu traced batches (from the benchmark's spans):\n",
              traced_batches);
  for (const auto& [layer, time] : self_times) {
    std::printf("  %-16s spans=%-8zu total_ms=%-12.3f self_ms=%.3f\n", layer.c_str(), time.spans,
                time.total_ms / static_cast<double>(traced_batches),
                time.self_ms / static_cast<double>(traced_batches));
  }
  const std::string trace_path = options.work_dir + "/trace-" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json";
  if (write_chrome_trace(trace_path, last_traced_spans)) {
    std::printf("trace: wrote %zu spans of the last traced batch to %s\n",
                last_traced_spans.size(), trace_path.c_str());
  }

  std::map<std::string, double> layers;
  for (const Metric& metric : kPerLayer) {
    std::vector<double> samples;
    for (const Iteration* it : traced) {
      const auto found = it->layer.find(metric.name);
      samples.push_back(found == it->layer.end() ? 0.0 : found->second);
    }
    layers[metric.name] = median(samples);
  }
  for (const char* prefix : {"net.server.piece_rtt_ms", "net.server.keepalive_rtt_ms"}) {
    HistogramSnapshot pooled;
    std::vector<double> counts;
    for (const Iteration* it : traced) {
      const auto found = it->latency.find(prefix);
      if (found != it->latency.end()) pooled.add(found->second);
      counts.push_back(found == it->latency.end() ? 0.0
                                                  : static_cast<double>(found->second.count()));
    }
    std::string rank;
    const std::string name = prefix;
    layers[name + ".p50"] = pooled.quantile(0.5);
    layers[name + ".tail"] = pooled.tail(&rank);
    layers[name + ".count"] = median(counts);  // per batch, like every other count
    std::printf("%s: p50=%.4f ms tail=%.4f ms (%s) over %llu samples pooled from %zu batches\n",
                prefix, layers[name + ".p50"], layers[name + ".tail"], rank.c_str(),
                static_cast<unsigned long long>(pooled.count()), traced.size());
  }
  std::vector<double> values;
  for (const Metric& metric : kPerLayer) {
    values.push_back(layers[metric.name]);
    std::printf("layer %-36s %.6g %s\n", metric.name, layers[metric.name], metric.unit);
  }
  print_json(correct, attempted, failed, kPerLayer, values);
  return correct ? 0 : 1;
}
