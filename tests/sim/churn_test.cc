#include "sim/churn.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace cwc::sim {
namespace {

using core::JobSpec;
using core::PhoneSpec;

TEST(ChurnParse, EmptySpecIsEmpty) { EXPECT_TRUE(parse_churn("").empty()); }

TEST(ChurnParse, ParsesProfilesAndFactors) {
  const auto specs = parse_churn("0:slow:10,3:flaky,5:flapping");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].phone, 0);
  EXPECT_EQ(specs[0].profile, ChurnProfile::kSlow);
  EXPECT_DOUBLE_EQ(specs[0].factor, 10.0);
  EXPECT_EQ(specs[1].phone, 3);
  EXPECT_EQ(specs[1].profile, ChurnProfile::kFlaky);
  EXPECT_EQ(specs[2].phone, 5);
  EXPECT_EQ(specs[2].profile, ChurnProfile::kFlapping);
}

TEST(ChurnParse, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_churn("0"), std::invalid_argument);
  EXPECT_THROW(parse_churn("0:warp"), std::invalid_argument);
  EXPECT_THROW(parse_churn("x:slow"), std::invalid_argument);
  EXPECT_THROW(parse_churn("0:slow:nope"), std::invalid_argument);
  EXPECT_THROW(parse_churn("0:slow:-2"), std::invalid_argument);
}

TEST(ChurnParse, SlowProfileDividesHiddenEfficiencyOnly) {
  Rng rng(1);
  auto phones = core::paper_testbed(rng);
  const double before = phones[2].hidden_efficiency;
  const double untouched = phones[3].hidden_efficiency;
  apply_slow_profiles(parse_churn("2:slow:4"), phones);
  EXPECT_DOUBLE_EQ(phones[2].hidden_efficiency, before / 4.0);
  EXPECT_DOUBLE_EQ(phones[3].hidden_efficiency, untouched);
}

TEST(ChurnEvents, DeterministicAndAlternating) {
  const auto specs = parse_churn("1:flaky,4:flapping");
  ChurnOptions options;
  const auto a = churn_events(specs, options, 99);
  const auto b = churn_events(specs, options, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].phone, b[i].phone);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
  // Sorted by time; per phone, failures and replugs strictly alternate.
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].time, a[i - 1].time);
  for (PhoneId phone : {PhoneId(1), PhoneId(4)}) {
    bool down = false;
    for (const FailureEvent& event : a) {
      if (event.phone != phone) continue;
      if (event.kind == FailureKind::kReplug) {
        EXPECT_TRUE(down);
        down = false;
      } else {
        EXPECT_FALSE(down);
        down = true;
      }
    }
  }
  // Profile kinds map as documented.
  for (const FailureEvent& event : a) {
    if (event.kind == FailureKind::kReplug) continue;
    EXPECT_EQ(event.kind, event.phone == 1 ? FailureKind::kUnplugOnline
                                           : FailureKind::kUnplugOffline);
  }
}

TEST(ChurnEvents, AddingAPhoneDoesNotReshuffleOthers) {
  ChurnOptions options;
  const auto base = churn_events(parse_churn("1:flaky"), options, 7);
  const auto more = churn_events(parse_churn("1:flaky,2:flaky"), options, 7);
  std::vector<FailureEvent> phone1;
  for (const FailureEvent& event : more) {
    if (event.phone == 1) phone1.push_back(event);
  }
  ASSERT_EQ(phone1.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(phone1[i].time, base[i].time);
    EXPECT_EQ(phone1[i].kind, base[i].kind);
  }
}

// The acceptance experiment: one hidden 10x-slow phone drags the makespan;
// speculation claws most of it back by racing backups on idle phones.
TEST(ChurnSpeculation, SlowPhoneMakespanImprovesWithSpeculation) {
  const auto run = [](bool speculate) {
    Rng rng(42);
    auto phones = core::paper_testbed(rng);
    apply_slow_profiles(parse_churn("0:slow:10"), phones);
    SimOptions options;
    options.speculation.enabled = speculate;
    options.speculation.completion_fraction = 0.5;
    TestbedSimulation sim(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                          phones, options, 42);
    Rng workload_rng = rng.fork();
    for (const JobSpec& job : core::paper_workload(workload_rng, 0.3)) sim.submit(job);
    const SimResult result = sim.run();
    EXPECT_TRUE(result.completed);
    return result.makespan;
  };
  const Millis without = run(false);
  const Millis with = run(true);
  EXPECT_LT(with, 0.8 * without) << "speculation did not rescue the slow phone's tail";
}

// Same-seed determinism of the whole piece lifecycle. The hidden-slow
// phone draws backups; targeted unplugs (times read off the failure-free
// run, where backups race on phone 1 from 600 s) make the run settle
// backup and primary wins, abort a failing backup, abort a failing
// primary (cancelling its backup) and detect a keep-alive loss. Two runs
// in one process must emit the same trace, event for event.
TEST(ChurnSpeculation, SameSeedRunsEmitIdenticalLifecycleTraces) {
  const auto run = [] {
    obs::MetricsRegistry::global().reset();
    Rng rng(42);
    auto phones = core::paper_testbed(rng);
    apply_slow_profiles(parse_churn("0:slow:10"), phones);
    SimOptions options;
    options.speculation.enabled = true;
    options.speculation.completion_fraction = 0.5;
    TestbedSimulation sim(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                          phones, options, 42);
    Rng workload_rng = rng.fork();
    for (const JobSpec& job : core::paper_workload(workload_rng, 0.3)) sim.submit(job);
    sim.inject({seconds(300.0), 5, FailureKind::kUnplugOffline});  // lost, detected at 390 s
    sim.inject({seconds(500.0), 5, FailureKind::kReplug});
    sim.inject({seconds(610.0), 1, FailureKind::kUnplugOnline});  // a racing backup fails
    sim.inject({seconds(640.0), 1, FailureKind::kReplug});
    sim.inject({seconds(850.0), 0, FailureKind::kUnplugOnline});  // a primary with a backup fails
    sim.inject({seconds(900.0), 0, FailureKind::kReplug});
    const SimResult result = sim.run();
    EXPECT_TRUE(result.completed);
    EXPECT_GT(obs::counter("spec.wins_backup").value(), 0.0);
    EXPECT_GT(obs::counter("spec.wins_primary").value(), 0.0);
    EXPECT_GE(obs::counter("spec.aborted").value(), 2.0);
    EXPECT_GT(obs::counter("sim.failures.offline_detected").value(), 0.0);
    std::vector<obs::TraceEvent> events = obs::TraceRecorder::global().snapshot(result.trace_begin);
    for (obs::TraceEvent& event : events) event.seq -= result.trace_begin;  // emission order
    return events;
  };
  const std::vector<obs::TraceEvent> first = run();
  const std::vector<obs::TraceEvent> second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "traces diverge at event " << i;
  }
}

}  // namespace
}  // namespace cwc::sim
