// The benchmark's only windows into the program: a timing Scheduler
// decorator, a timing TaskFactory wrapper, and deltas of the obs counters
// and latency histograms the program already keeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "tasks/registry.h"
#include "tasks/task.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// CPU time (user + system) of the calling thread, in ms.
double thread_cpu_ms();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Pins the calling thread to the index-th CPU this process may run on
/// (modulo the allowed set). Returns false when the kernel refuses.
bool pin_to_cpu(std::size_t index);

/// What the decorator saw during one batch.
struct BuildLog {
  bool started = false;             ///< a build has begun
  Clock::time_point first_start{};  ///< the first scheduling instant
  double first_start_cpu_ms = 0.0;  ///< thread CPU at that moment
  std::size_t builds = 0;
  double build_ms = 0.0;
  double first_build_ms = 0.0;
  std::size_t first_pieces = 0;              ///< pieces the first schedule planned
  double first_predicted_makespan_ms = 0.0;  ///< the first schedule's Equation-1 makespan
  std::int64_t batch = -1;  ///< span batch id
};

/// Forwards every Scheduler entry point to the wrapped scheduler and times
/// build/build_with_hint. Builds run on the substrate's own thread.
class TimingScheduler final : public cwc::core::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<cwc::core::Scheduler> inner, BuildLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const char* name() const override { return inner_->name(); }
  cwc::core::Schedule build(const std::vector<cwc::core::JobSpec>& jobs,
                            const std::vector<cwc::core::PhoneSpec>& phones,
                            const cwc::core::PredictionModel& prediction,
                            const cwc::core::InitialLoad& initial_load = {}) const override;
  cwc::core::Schedule build_with_hint(const std::vector<cwc::core::JobSpec>& jobs,
                                      const std::vector<cwc::core::PhoneSpec>& phones,
                                      const cwc::core::PredictionModel& prediction,
                                      const cwc::core::InitialLoad& initial_load,
                                      std::optional<cwc::Millis> capacity_hint) const override;
  void bind_health(const cwc::core::HealthProvider* health) override {
    inner_->bind_health(health);
  }
  void bind_locality(const cwc::core::LocalityProvider* locality) override {
    inner_->bind_locality(locality);
  }

 private:
  template <typename Fn>
  cwc::core::Schedule timed(Fn&& fn) const;

  std::unique_ptr<cwc::core::Scheduler> inner_;
  BuildLog* log_;
};

struct AggregateLog {
  std::size_t calls = 0;
  double ms = 0.0;
  std::int64_t batch = -1;
};

/// A registry whose factories forward to `base` and time aggregate().
/// `base` and `log` must outlive the returned registry.
cwc::tasks::TaskRegistry timed_registry(const cwc::tasks::TaskRegistry& base, AggregateLog* log);

/// Values of named obs counters at one moment (absent counters read 0).
class CounterSnapshot {
 public:
  static CounterSnapshot take(const std::vector<std::string>& names);
  /// `name`'s growth from `before` to this snapshot.
  double since(const CounterSnapshot& before, const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Bucket counts of one obs latency histogram at one moment.
class HistogramSnapshot {
 public:
  static HistogramSnapshot take(const std::string& name);
  /// Samples recorded between `before` and this snapshot.
  HistogramSnapshot since(const HistogramSnapshot& before) const;
  /// Pools another snapshot's samples into this one.
  void add(const HistogramSnapshot& other);

  std::uint64_t count() const;
  double sum_ms() const { return sum_ms_; }
  /// Quantile in [0, 1], interpolated within its log2 bucket.
  double quantile(double q) const;
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// beyond it; returns its value and writes its label (e.g. "p99").
  double tail(std::string* label) const;

 private:
  std::map<double, std::pair<double, std::uint64_t>> buckets_;  // low -> (high, count)
  double sum_ms_ = 0.0;
};

double median(std::vector<double> values);

}  // namespace perfbench
