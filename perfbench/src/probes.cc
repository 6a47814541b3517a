#include "probes.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "obs/latency_hist.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

using namespace cwc;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

namespace {
/// The CPUs the process may use, read before any thread is pinned (a
/// thread inherits its creator's mask, so later reads would shrink).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}
const bool g_cpus_read_at_startup = !allowed_cpus().empty();
}  // namespace

bool pin_to_cpu(std::size_t index) {
  const std::vector<int>& cpus = allowed_cpus();
  if (!g_cpus_read_at_startup || cpus.empty()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one) == 0;
}

template <typename Fn>
core::Schedule TimingScheduler::timed(Fn&& fn) const {
  const Clock::time_point start = Clock::now();
  if (!log_->started) {
    log_->started = true;
    log_->first_start = start;
    log_->first_start_cpu_ms = thread_cpu_ms();
  }
  core::Schedule schedule;
  {
    ScopedSpan span("core.scheduler", "build", log_->batch);
    schedule = fn();
  }
  const double ms = seconds_between(start, Clock::now()) * 1e3;
  if (log_->builds == 0) {
    log_->first_build_ms = ms;
    for (const core::PhonePlan& plan : schedule.plans) log_->first_pieces += plan.pieces.size();
    log_->first_predicted_makespan_ms = schedule.predicted_makespan;
  }
  ++log_->builds;
  log_->build_ms += ms;
  return schedule;
}

core::Schedule TimingScheduler::build(const std::vector<core::JobSpec>& jobs,
                                      const std::vector<core::PhoneSpec>& phones,
                                      const core::PredictionModel& prediction,
                                      const core::InitialLoad& initial_load) const {
  return timed([&] { return inner_->build(jobs, phones, prediction, initial_load); });
}

core::Schedule TimingScheduler::build_with_hint(const std::vector<core::JobSpec>& jobs,
                                                const std::vector<core::PhoneSpec>& phones,
                                                const core::PredictionModel& prediction,
                                                const core::InitialLoad& initial_load,
                                                std::optional<Millis> capacity_hint) const {
  return timed([&] {
    return inner_->build_with_hint(jobs, phones, prediction, initial_load, capacity_hint);
  });
}

namespace {
class TimedFactory final : public tasks::TaskFactory {
 public:
  TimedFactory(const tasks::TaskFactory* inner, AggregateLog* log) : inner_(inner), log_(log) {}

  const std::string& name() const override { return inner_->name(); }
  JobKind kind() const override { return inner_->kind(); }
  Kilobytes executable_kb() const override { return inner_->executable_kb(); }
  MsPerKb reference_ms_per_kb() const override { return inner_->reference_ms_per_kb(); }
  std::unique_ptr<tasks::Task> create() const override { return inner_->create(); }

  tasks::Bytes aggregate(const std::vector<tasks::Bytes>& partials) const override {
    const Clock::time_point start = Clock::now();
    tasks::Bytes result;
    {
      ScopedSpan span("tasks", "aggregate", log_->batch);
      result = inner_->aggregate(partials);
    }
    log_->ms += seconds_between(start, Clock::now()) * 1e3;
    ++log_->calls;
    return result;
  }

 private:
  const tasks::TaskFactory* inner_;
  AggregateLog* log_;
};
}  // namespace

tasks::TaskRegistry timed_registry(const tasks::TaskRegistry& base, AggregateLog* log) {
  tasks::TaskRegistry out;
  for (const std::string& name : base.names()) {
    out.install(std::make_shared<TimedFactory>(&base.require(name), log));
  }
  return out;
}

CounterSnapshot CounterSnapshot::take(const std::vector<std::string>& names) {
  CounterSnapshot snapshot;
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  for (const std::string& name : names) {
    const obs::Counter* counter = registry.find_counter(name);
    snapshot.values_[name] = counter != nullptr ? counter->value() : 0.0;
  }
  return snapshot;
}

double CounterSnapshot::since(const CounterSnapshot& before, const std::string& name) const {
  const auto now = values_.find(name);
  const auto then = before.values_.find(name);
  return (now == values_.end() ? 0.0 : now->second) -
         (then == before.values_.end() ? 0.0 : then->second);
}

HistogramSnapshot HistogramSnapshot::take(const std::string& name) {
  HistogramSnapshot snapshot;
  if (const obs::LatencyHistogram* hist = obs::LatencyRegistry::global().find(name)) {
    for (const obs::LatencyHistogram::Bucket& bucket : hist->nonzero_buckets()) {
      snapshot.buckets_[bucket.low_ms] = {bucket.high_ms, bucket.count};
    }
    snapshot.sum_ms_ = hist->sum();
  }
  return snapshot;
}

HistogramSnapshot HistogramSnapshot::since(const HistogramSnapshot& before) const {
  HistogramSnapshot delta;
  for (const auto& [low, bucket] : buckets_) {
    const auto then = before.buckets_.find(low);
    const std::uint64_t old = then == before.buckets_.end() ? 0 : then->second.second;
    if (bucket.second > old) delta.buckets_[low] = {bucket.first, bucket.second - old};
  }
  delta.sum_ms_ = sum_ms_ - before.sum_ms_;
  return delta;
}

void HistogramSnapshot::add(const HistogramSnapshot& other) {
  for (const auto& [low, bucket] : other.buckets_) {
    auto& mine = buckets_[low];
    mine.first = bucket.first;
    mine.second += bucket.second;
  }
  sum_ms_ += other.sum_ms_;
}

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t n = 0;
  for (const auto& [low, bucket] : buckets_) n += bucket.second;
  return n;
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  double seen = 0.0;
  for (const auto& [low, bucket] : buckets_) {
    const auto count = static_cast<double>(bucket.second);
    if (seen + count >= rank) {
      if (!std::isfinite(bucket.first)) return low;
      return low + (bucket.first - low) * std::clamp((rank - seen) / count, 0.0, 1.0);
    }
    seen += count;
  }
  return buckets_.rbegin()->first;
}

double HistogramSnapshot::tail(std::string* label) const {
  static const std::vector<std::pair<double, const char*>> kRanks = {
      {0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  const auto n = static_cast<double>(count());
  for (const auto& [q, name] : kRanks) {
    if (n * (1.0 - q) >= 10.0) {
      if (label != nullptr) *label = name;
      return quantile(q);
    }
  }
  if (label != nullptr) *label = "max";  // under 20 samples: no percentile qualifies
  return quantile(1.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
