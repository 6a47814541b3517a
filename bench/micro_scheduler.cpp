// Microbenchmarks (google-benchmark) for the scheduling stack: greedy
// packing cost vs fleet/workload size, the capacity binary search, the LP
// relaxation solve, and the prediction model's hot paths; plus the
// server's CRC-32 and submit path, and the phones' task kernels. These
// quantify the paper's claim that "the scheduling algorithms executed on
// the server are lightweight, and thus, a rudimentary low cost PC will
// suffice".
#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/failure_aware.h"
#include "core/greedy.h"
#include "core/health.h"
#include "core/locality.h"
#include "core/pod_packing.h"
#include "core/relaxation.h"
#include "core/testbed.h"
#include "lp/simplex.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/timer_wheel.h"
#include "obs/latency_hist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "tasks/generators.h"

namespace {

using namespace cwc;

struct Instance {
  std::vector<core::PhoneSpec> phones;
  std::vector<core::JobSpec> jobs;
  core::PredictionModel prediction = core::paper_prediction();
};

Instance make_instance(std::size_t phone_count, std::size_t job_count) {
  Rng rng(17);
  Instance instance;
  auto base = core::paper_testbed(rng);
  for (std::size_t i = 0; i < phone_count; ++i) {
    core::PhoneSpec phone = base[i % base.size()];
    phone.id = static_cast<PhoneId>(i);
    phone.b = rng.uniform(1.0, 70.0);
    // Each testbed copy lives in its own trio of houses (as sim::scaled_fleet
    // does), so large fleets carry a realistic zone spread for pod keying.
    phone.zone += static_cast<std::int32_t>(3 * (i / base.size()));
    instance.phones.push_back(phone);
  }
  const auto workload = core::paper_workload(rng, 0.1);
  for (std::size_t j = 0; j < job_count; ++j) {
    core::JobSpec job = workload[j % workload.size()];
    job.id = static_cast<JobId>(j);
    instance.jobs.push_back(job);
  }
  return instance;
}

void BM_GreedyBuild(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const core::GreedyScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance.jobs, instance.phones, instance.prediction));
  }
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs");
}
BENCHMARK(BM_GreedyBuild)
    ->Args({6, 30})
    ->Args({18, 150})
    ->Args({36, 300})
    ->Args({128, 1024})
    ->Args({512, 2048})
    ->Unit(benchmark::kMillisecond);

// The first scheduler build of a perfbench live-small batch, which the
// server runs on its loop thread: four loopback phones (two sharing a CPU
// register half its clock), 12,000 2 KB jobs cycling over four tasks with
// the benchmark's host-measured prediction constants (ms/KB at 1600 MHz),
// and the server's locality index bound (a manifest per job, no phone
// caches). Few bins and many items: the shape the flat packer's item list
// and per-bin bookkeeping dominate.
void BM_GreedyBuildLiveSmall(benchmark::State& state) {
  struct Task {
    const char* name;
    double c_ms_per_kb;
    Kilobytes exec_kb;
  };
  const Task tasks[] = {{"prime-count", 0.040, 38.0},
                        {"word-count:error", 0.018, 24.0},
                        {"log-scan:disk failure", 0.0105, 31.0},
                        {"sales-aggregate", 0.010, 27.0}};
  core::PredictionModel prediction;
  for (const Task& task : tasks) prediction.set_reference(task.name, task.c_ms_per_kb, 1600.0);
  std::vector<core::PhoneSpec> phones;
  for (const double mhz : {800.0, 800.0, 1600.0, 1600.0}) {
    core::PhoneSpec phone;
    phone.id = static_cast<PhoneId>(phones.size() + 1);
    phone.cpu_mhz = mhz;
    phone.b = 1000.0 / 1'000'000.0;  // a 1,000,000 KB/s loopback probe
    phone.ram_kb = 512.0 * 1024.0;
    phones.push_back(phone);
  }
  std::vector<core::JobSpec> jobs;
  core::ChunkLocalityIndex locality;
  for (int j = 0; j < 12'000; ++j) {
    const Task& task = tasks[j % 4];
    jobs.push_back({j, task.name, JobKind::kBreakable, task.exec_kb, 2.0});
    locality.set_manifest(j, {static_cast<ChunkId>(j + 1) << 32 | 2048u});
  }
  core::GreedyScheduler scheduler;
  scheduler.bind_locality(&locality);
  for (auto _ : state) benchmark::DoNotOptimize(scheduler.build(jobs, phones, prediction));
  state.SetLabel("4 phones, 12k jobs x 2 KB");
}
BENCHMARK(BM_GreedyBuildLiveSmall)->Unit(benchmark::kMillisecond);

// Tracing overhead on the scheduler hot path. The greedy build's probe
// loop carries one obs::trace_enabled() check (a relaxed atomic load) per
// packing attempt; range(2) toggles the recorder so /0 measures the
// disabled path (gated <2% vs BM_GreedyBuild in tools/run_benches.sh) and
// /1 the full cost of recording capacity-probe events into the ring.
void BM_GreedyBuildTracing(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const core::GreedyScheduler scheduler;
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  if (state.range(2) != 0) {
    recorder.enable();
  } else {
    recorder.disable();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance.jobs, instance.phones, instance.prediction));
  }
  recorder.disable();
  recorder.clear();
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs, tracing " +
                 (state.range(2) != 0 ? "on" : "off"));
}
BENCHMARK(BM_GreedyBuildTracing)
    ->Args({18, 150, 0})
    ->Args({18, 150, 1})
    ->Unit(benchmark::kMillisecond);

// Fault-injection overhead on the scheduler hot path. Every packing
// attempt carries one fault::check() whose disarmed path is a single
// relaxed atomic load (same discipline as tracing); range(2) arms the
// injector with a never-firing rule so /0 measures the disabled path
// (gated <2% vs BM_GreedyBuild in tools/run_benches.sh) and /1 the cost
// of the armed lookup (rule scan under the injector mutex).
void BM_GreedyBuildFaultGate(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const core::GreedyScheduler scheduler;
  fault::FaultInjector& injector = fault::FaultInjector::global();
  injector.reset();
  if (state.range(2) != 0) {
    // Armed with a rule that can never fire (explicit hit index 0 is
    // unreachable: hits are 1-based), so the loop measures pure lookup
    // cost without perturbing the packing.
    fault::FaultRule rule;
    rule.point = fault::FaultPoint::kSchedulerPack;
    rule.action.kind = fault::FaultAction::Kind::kDelay;
    rule.hits = {0};
    injector.add_rule(rule);
    injector.arm(1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance.jobs, instance.phones, instance.prediction));
  }
  injector.reset();
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs, faults " +
                 (state.range(2) != 0 ? "armed" : "off"));
}
BENCHMARK(BM_GreedyBuildFaultGate)
    ->Args({18, 150, 0})
    ->Args({18, 150, 1})
    ->Unit(benchmark::kMillisecond);

// Health-provider overhead on the scheduler hot path. The failure-aware
// wrapper reads one EWMA score per phone per build when a HealthProvider
// is bound (combined_risk); range(2) toggles the binding so /0 measures
// the unbound path (gated <2% vs itself with health bound in
// tools/run_benches.sh) and /1 the full blend against a tracker with a
// realistic spread of scores.
void BM_GreedyBuildHealth(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  std::map<PhoneId, double> risk;
  core::HealthTracker tracker;
  Rng rng(29);
  for (const core::PhoneSpec& phone : instance.phones) {
    risk[phone.id] = rng.uniform(0.0, 0.4);
    tracker.register_phone(phone.id);
    // A realistic mid-batch spread: most phones clean, some with history.
    const int signals = static_cast<int>(rng.uniform_int(0, 3));
    for (int s = 0; s < signals; ++s) tracker.on_deadline_hit(phone.id);
    tracker.on_success(phone.id);
  }
  core::FailureAwareScheduler scheduler(std::make_unique<core::GreedyScheduler>(),
                                        std::move(risk));
  if (state.range(2) != 0) scheduler.bind_health(&tracker);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance.jobs, instance.phones, instance.prediction));
  }
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs, health " +
                 (state.range(2) != 0 ? "bound" : "unbound"));
}
BENCHMARK(BM_GreedyBuildHealth)
    ->Args({18, 150, 0})
    ->Args({18, 150, 1})
    ->Unit(benchmark::kMillisecond);

// Steady-state rescheduling: the previous instant's makespan warm-starts
// the capacity search (what CwcController does at every instant after the
// first). Compare against the same-shape BM_GreedyBuild cold build.
void BM_GreedyBuildWarm(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  const core::GreedyScheduler scheduler;
  const core::Schedule cold =
      scheduler.build(instance.jobs, instance.phones, instance.prediction);
  const std::optional<Millis> hint = cold.predicted_makespan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.build_with_hint(instance.jobs, instance.phones,
                                                       instance.prediction, {}, hint));
  }
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs, warm");
}
BENCHMARK(BM_GreedyBuildWarm)
    ->Args({36, 300})
    ->Args({128, 1024})
    ->Unit(benchmark::kMillisecond);

// Hierarchical pod packing at fleet sizes where the flat build falls off a
// cliff (512/2048 flat ≈ seconds). Pods are auto-sized (~128 phones each)
// and packed on worker threads; the 4096/16384 tier is the 10k-class
// scaling story the flat packer cannot enter at all. The run_benches.sh
// gate holds BM_PodBuild/512/2048 under an absolute wall-time budget.
void BM_PodBuild(benchmark::State& state) {
  const auto instance =
      make_instance(static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1)));
  core::PodPackingScheduler::Options options;
  options.pods = 0;  // auto: ~one pod per 128 phones
  const core::PodPackingScheduler scheduler(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance.jobs, instance.phones, instance.prediction));
  }
  state.SetLabel(std::to_string(state.range(0)) + " phones, " +
                 std::to_string(state.range(1)) + " jobs, auto pods");
}
BENCHMARK(BM_PodBuild)
    ->Args({512, 2048})
    ->Args({4096, 16384})
    ->Unit(benchmark::kMillisecond);

void BM_SinglePacking(benchmark::State& state) {
  const auto instance = make_instance(18, 150);
  const core::GreedyScheduler scheduler;
  const auto [lb, ub] =
      scheduler.capacity_bounds(instance.jobs, instance.phones, instance.prediction);
  const Millis capacity = (lb + ub) / 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.pack_with_capacity(instance.jobs, instance.phones,
                                                          instance.prediction, capacity));
  }
}
BENCHMARK(BM_SinglePacking)->Unit(benchmark::kMillisecond);

// One packing attempt against a shared, pre-built PackProblem — the unit
// the bisection loop actually repeats (no per-attempt predict sweep).
void BM_PreparedPacking(benchmark::State& state) {
  const auto instance = make_instance(36, 300);
  const core::GreedyScheduler scheduler;
  const auto problem =
      scheduler.prepare(instance.jobs, instance.phones, instance.prediction);
  const Millis capacity = (problem.lb + problem.ub) / 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.pack_with_capacity(problem, capacity));
  }
}
BENCHMARK(BM_PreparedPacking)->Unit(benchmark::kMillisecond);

// Cost of building the shared PackProblem (the once-per-build c_ij predict
// sweep, item order, and capacity bounds).
void BM_PrepareProblem(benchmark::State& state) {
  const auto instance = make_instance(36, 300);
  const core::GreedyScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.prepare(instance.jobs, instance.phones, instance.prediction));
  }
}
BENCHMARK(BM_PrepareProblem)->Unit(benchmark::kMillisecond);

void BM_Baselines(benchmark::State& state) {
  const auto instance = make_instance(18, 150);
  const core::EqualSplitScheduler equal;
  const core::RoundRobinScheduler rr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal.build(instance.jobs, instance.phones, instance.prediction));
    benchmark::DoNotOptimize(rr.build(instance.jobs, instance.phones, instance.prediction));
  }
}
BENCHMARK(BM_Baselines)->Unit(benchmark::kMillisecond);

void BM_LpRelaxation(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::relaxed_lower_bound(instance.jobs, instance.phones, instance.prediction));
  }
}
BENCHMARK(BM_LpRelaxation)->Args({6, 30})->Args({18, 150})->Unit(benchmark::kMillisecond);

// Repeat-campaign shipping: the same batch simulated twice with phone
// chunk caches persisting in between. ship_kb_batch1/2 are the bytes that
// crossed the links per batch; ship_reduction = batch1/batch2 is gated
// >= 3x in tools/run_benches.sh. Locality routing is off so the second
// batch replays the first's deterministic schedule and the counter
// isolates the content-cache dedup (the routing win has its own sim-test
// gate in tests/sim/locality_test.cc).
void BM_ShipBytesRepeat(benchmark::State& state) {
  double first = 0.0;
  double second = 0.0;
  for (auto _ : state) {
    sim::FleetChunkState chunks;
    for (int batch = 0; batch < 2; ++batch) {
      Rng fleet_rng(7);
      sim::SimOptions options;
      options.scheduling_period = seconds(120.0);
      options.chunk_kb = 64.0;
      options.cache_mb = 64.0;
      options.locality_aware = false;
      sim::TestbedSimulation simulation(std::make_unique<core::GreedyScheduler>(),
                                        core::paper_prediction(),
                                        core::paper_testbed(fleet_rng), options, 42);
      simulation.share_chunk_state(&chunks);
      Rng workload_rng(13);
      for (const auto& job : core::paper_workload(workload_rng, 0.1)) {
        simulation.submit(job);
      }
      const sim::SimResult result = simulation.run();
      (batch == 0 ? first : second) = result.shipped_kb;
      benchmark::DoNotOptimize(result.makespan);
    }
  }
  state.counters["ship_kb_batch1"] = first;
  state.counters["ship_kb_batch2"] = second;
  state.counters["ship_reduction"] = second > 0.0 ? first / second : 0.0;
  state.SetLabel("18 phones, identical batch x2, caches persist");
}
BENCHMARK(BM_ShipBytesRepeat)->Unit(benchmark::kMillisecond);

// The server's keep-alive ack hot path — deframe the raw stream bytes,
// decode the stats-bearing frame, take the RTT timestamp, publish the
// per-phone gauges — with the LatencyHistogram record toggled by whether
// `hist` is null.
std::vector<std::uint8_t> make_keepalive_ack_stream() {
  net::AgentStats stats;
  stats.cache_hit_kb = 1024.0;
  stats.cache_miss_kb = 256.0;
  stats.cache_bytes = 8 << 20;
  stats.cache_budget_bytes = 16 << 20;
  stats.replay_depth = 4;
  stats.exec_p50_ms = 11.0;
  stats.exec_p95_ms = 40.0;
  stats.exec_p99_ms = 95.0;
  const net::Blob payload = net::encode_keepalive_ack(9001, stats);
  // The ack as it arrives off the socket: u32 length prefix + payload.
  std::vector<std::uint8_t> stream;
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) stream.push_back((len >> (8 * b)) & 0xff);
  stream.insert(stream.end(), payload.begin(), payload.end());
  return stream;
}

// One ack, end to end as the server handles it: the frame echoes through
// a loopback socketpair so the path pays the same send/recv syscalls the
// production poll loop does — they dominate the per-ack cost, and leaving
// them out would measure the histogram against an unrealistically small
// baseline.
void handle_keepalive_ack(const std::vector<std::uint8_t>& stream, int tx_fd,
                          int rx_fd,
                          std::chrono::steady_clock::time_point sent_at,
                          obs::LatencyHistogram* hist, std::uint64_t* acked) {
  (void)::send(tx_fd, stream.data(), stream.size(), 0);
  std::uint8_t buf[256];
  const ssize_t got = ::recv(rx_fd, buf, sizeof buf, 0);
  net::FrameDecoder decoder;
  decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)));
  const auto frame = decoder.pop();
  const net::KeepAliveAckMsg msg = net::decode_keepalive_ack_stats(*frame);
  *acked += msg.seq;
  const double rtt_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - sent_at)
                            .count();
  if (hist) hist->record(rtt_ms);
  obs::gauge("phone.0.keepalive_rtt_ms").set(rtt_ms);
  // The per-phone gauge publication that rides every stats-bearing ack.
  const std::string prefix = "phone.0.";
  obs::gauge(prefix + "cache_pct")
      .set(100.0 * static_cast<double>(msg.stats.cache_bytes) /
           static_cast<double>(msg.stats.cache_budget_bytes));
  obs::gauge(prefix + "cache_hit_kb").set(msg.stats.cache_hit_kb);
  obs::gauge(prefix + "cache_miss_kb").set(msg.stats.cache_miss_kb);
  obs::gauge(prefix + "replay_depth").set(msg.stats.replay_depth);
  obs::gauge(prefix + "charging").set(msg.stats.charging ? 1.0 : 0.0);
  obs::gauge(prefix + "exec_p99_ms").set(msg.stats.exec_p99_ms);
}

// Per-arm timings of the ack path for the comparison table. These two are
// informational: benchmark runs every /0 repetition before every /1
// repetition, minutes apart under load, so their cross-arm delta inherits
// the machine's drift and cannot resolve a 2% gate. The gate reads
// BM_KeepAliveHistPaired below instead.
void BM_KeepAliveHist(benchmark::State& state) {
  const bool hist_enabled = state.range(0) != 0;
  const auto stream = make_keepalive_ack_stream();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  obs::LatencyHistogram hist;
  const auto sent_at = std::chrono::steady_clock::now();
  std::uint64_t acked = 0;
  for (auto _ : state) {
    handle_keepalive_ack(stream, fds[0], fds[1], sent_at,
                         hist_enabled ? &hist : nullptr, &acked);
  }
  ::close(fds[0]);
  ::close(fds[1]);
  benchmark::DoNotOptimize(acked);
  benchmark::DoNotOptimize(hist.count());
  state.SetLabel(hist_enabled ? "ack path + histogram record"
                              : "ack path, histogram off");
}
BENCHMARK(BM_KeepAliveHist)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The <2% histogram-overhead gate in tools/run_benches.sh reads this
// benchmark's ka_off_ns/ka_on_ns counters. Both arms run as alternating
// batches microseconds apart (order flipped every iteration), so machine
// noise on any timescale longer than one ~0.3 ms batch hits both arms
// equally and cancels out of the delta — unlike the /0-vs-/1 floors
// above, which sample the arms minutes apart. The counters are per-arm
// per-ack floors across all iterations; the floor is the right estimator
// because timing noise on a CPU-bound microbench is strictly one-sided.
void BM_KeepAliveHistPaired(benchmark::State& state) {
  const auto stream = make_keepalive_ack_stream();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  obs::LatencyHistogram hist;
  const auto sent_at = std::chrono::steady_clock::now();
  std::uint64_t acked = 0;
  constexpr int kBatch = 512;
  double off_ns = std::numeric_limits<double>::infinity();
  double on_ns = std::numeric_limits<double>::infinity();
  bool off_first = true;
  for (auto _ : state) {
    for (const bool arm_on : {!off_first, off_first}) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kBatch; ++i) {
        handle_keepalive_ack(stream, fds[0], fds[1], sent_at,
                             arm_on ? &hist : nullptr, &acked);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double per_ack_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / kBatch;
      (arm_on ? on_ns : off_ns) = std::min(arm_on ? on_ns : off_ns, per_ack_ns);
    }
    off_first = !off_first;
  }
  ::close(fds[0]);
  ::close(fds[1]);
  benchmark::DoNotOptimize(acked);
  benchmark::DoNotOptimize(hist.count());
  state.counters["ka_off_ns"] = off_ns;
  state.counters["ka_on_ns"] = on_ns;
  state.SetLabel("alternating-batch floors; gate reads the counters");
}
BENCHMARK(BM_KeepAliveHistPaired)->Unit(benchmark::kMillisecond);

// Timer wheel churn at fleet scale: N live timers (one keep-alive deadline
// per phone) while the loop continuously fires, re-arms, and advances.
// This is the per-iteration cost the event loop pays instead of the old
// O(fleet) 20 ms scan; it must stay flat-ish as N grows (hashed wheel is
// O(1) schedule/cancel, O(ready) expiry).
void BM_TimerWheel(benchmark::State& state) {
  const auto fleet = static_cast<std::size_t>(state.range(0));
  net::TimerWheel wheel;
  Rng rng(20260808);
  // Steady state: every phone holds a deadline somewhere in the next 5 s.
  std::vector<net::TimerId> ids(fleet);
  double now = 0.0;
  std::uint64_t fired = 0;
  std::function<void(std::size_t)> rearm = [&](std::size_t slot) {
    ids[slot] = wheel.schedule(rng.uniform(100.0, 5'000.0), [&, slot] {
      ++fired;
      rearm(slot);
    });
  };
  for (std::size_t i = 0; i < fleet; ++i) rearm(i);
  for (auto _ : state) {
    now += 10.0;  // one wake-up's worth of virtual time
    benchmark::DoNotOptimize(wheel.advance(now));
    // A slice of the fleet cancels and re-arms (assign-retry churn).
    for (int i = 0; i < 8; ++i) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(fleet) - 1));
      if (wheel.cancel(ids[slot])) rearm(slot);
    }
  }
  benchmark::DoNotOptimize(fired);
  state.counters["pending"] = static_cast<double>(wheel.pending());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerWheel)->Arg(100)->Arg(1'000)->Arg(10'000);

void BM_PredictionPredict(benchmark::State& state) {
  const auto instance = make_instance(18, 150);
  std::size_t phone = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.prediction.predict(
        core::kPrimeTask, instance.phones[phone++ % instance.phones.size()]));
  }
}
BENCHMARK(BM_PredictionPredict);

void BM_PredictionObserve(benchmark::State& state) {
  auto instance = make_instance(18, 150);
  PhoneId phone = 0;
  for (auto _ : state) {
    instance.prediction.observe(core::kPrimeTask, phone, 100.0, 720.0);
    phone = (phone + 1) % 18;
  }
}
BENCHMARK(BM_PredictionObserve);

// CRC-32 throughput at the sizes the server hashes: a 2 KB input chunk, a
// full 64 KB grid chunk, and a 1 MB journal record of a bulk submit.
void BM_Crc32(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::uint8_t> data(bytes);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Arg(2 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// The submit loop of a 12k-job batch of 2 KB inputs in the four-task mix
// of the live loopback benchmark, journal on: per job, the controller's
// bookkeeping, the input's chunk grid and locality manifest, and the
// journal's submit record. The server is built outside the clock.
void BM_ServerSubmit(benchmark::State& state) {
  constexpr std::size_t kJobs = 12'000;
  const std::vector<std::string> mix = {"prime-count", "word-count:error",
                                        "log-scan:disk failure", "sales-aggregate"};
  Rng rng(5);
  std::vector<net::Blob> inputs;
  inputs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    switch (i % mix.size()) {
      case 0: inputs.push_back(tasks::make_integer_input(rng, 2.0)); break;
      case 1: inputs.push_back(tasks::make_text_input(rng, 2.0, "error")); break;
      case 2: inputs.push_back(tasks::make_log_input(rng, 2.0, "disk failure")); break;
      default: inputs.push_back(tasks::make_sales_input(rng, 2.0)); break;
    }
  }
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  net::ServerConfig config;
  config.journal_path = (std::filesystem::temp_directory_path() /
                         ("cwc_bench_submit_" + std::to_string(::getpid()) + ".cwcj"))
                            .string();
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(config.journal_path.c_str());
    std::vector<net::Blob> batch = inputs;
    auto server = std::make_unique<net::CwcServer>(std::make_unique<core::GreedyScheduler>(),
                                                   core::paper_prediction(), &registry, config);
    state.ResumeTiming();
    for (std::size_t i = 0; i < kJobs; ++i) {
      benchmark::DoNotOptimize(server->submit(mix[i % mix.size()], std::move(batch[i])));
    }
    state.PauseTiming();
    server.reset();
    state.ResumeTiming();
  }
  std::remove(config.journal_path.c_str());
  state.counters["per_job"] = benchmark::Counter(
      static_cast<double>(kJobs), benchmark::Counter::kIsIterationInvariantRate |
                                      benchmark::Counter::kInvert);
  state.SetLabel("12k jobs x 2 KB, 4-task mix, journal on");
}
BENCHMARK(BM_ServerSubmit)->Unit(benchmark::kMillisecond);

// One assignment frame as the server builds it: the fields, then the
// executable (range(1) = 1: shipped; 0: the phone caches it) and the input
// slice gathered from the shared image and the job's input into one
// exactly sized frame. range(0) is the slice: a live-small piece (2 KB) or
// a live-bulk job (1 MB).
void BM_AssignEncode(benchmark::State& state) {
  const auto input_bytes = static_cast<std::size_t>(state.range(0));
  const bool ship_executable = state.range(1) != 0;
  ExecutableImages images(64 * 1024);
  const ExecutableImage& image = images.of_size(31 * 1024);
  Rng rng(13);
  const net::Blob input = tasks::make_log_input(rng, static_cast<double>(input_bytes) / 1024.0);
  std::uint32_t piece_seq = 0;
  for (auto _ : state) {
    net::AssignPieceMsg fields;
    fields.job = 7;
    fields.piece_seq = ++piece_seq;
    fields.task_name = "log-scan:disk failure";
    fields.trace_piece = 11;
    fields.trace_attempt = 0;
    fields.trace_instant = 1;
    net::AssignPayloads payloads;
    if (ship_executable) payloads.executable.push_back(image.bytes);
    payloads.input.push_back(input);
    benchmark::DoNotOptimize(net::encode(fields, payloads));
  }
  const std::size_t frame_bytes = input.size() + (ship_executable ? image.bytes.size() : 0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_AssignEncode)
    ->ArgsProduct({{2 * 1024, 1024 * 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// A phone's execute step for each built-in task: a fresh instance stepped
// over the whole input, as agents run an assignment. 2 KB is a live-small
// piece, 1 MB a live-bulk job. Registered as BM_TaskExecute/<task>/<bytes>.
using MakeInput = net::Blob (*)(Rng&, Kilobytes);

void BM_TaskExecute(benchmark::State& state, const std::string& task, MakeInput make_input,
                    std::size_t bytes) {
  Rng rng(11);
  const net::Blob input = make_input(rng, static_cast<double>(bytes) / 1024.0);
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  const tasks::TaskFactory& factory = registry.require(task);
  for (auto _ : state) benchmark::DoNotOptimize(tasks::run_to_completion(factory, input));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  state.counters["per_kb"] = benchmark::Counter(
      static_cast<double>(input.size()) / 1024.0, benchmark::Counter::kIsIterationInvariantRate |
                                                      benchmark::Counter::kInvert);
}

const bool kTaskExecuteRegistered = [] {
  struct TaskInput {
    const char* label;
    const char* task;
    MakeInput make_input;
  };
  const TaskInput kTasks[] = {
      {"primes", "prime-count", tasks::make_integer_input},
      {"words", "word-count:error",
       [](Rng& rng, Kilobytes kb) { return tasks::make_text_input(rng, kb, "error"); }},
      {"logs", "log-scan:disk failure",
       [](Rng& rng, Kilobytes kb) { return tasks::make_log_input(rng, kb, "disk failure"); }},
      {"sales", "sales-aggregate", tasks::make_sales_input},
      {"blur", "photo-blur", tasks::make_image_input_of_size},
  };
  for (const TaskInput& t : kTasks) {
    for (const std::size_t bytes : {std::size_t{2 * 1024}, std::size_t{1024 * 1024}}) {
      const std::string name =
          std::string("BM_TaskExecute/") + t.label + "/" + std::to_string(bytes);
      benchmark::RegisterBenchmark(name.c_str(), BM_TaskExecute, std::string(t.task),
                                   t.make_input, bytes)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
