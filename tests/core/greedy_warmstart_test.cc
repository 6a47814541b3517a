// Warm-started bisection: the capacity search accelerator added on top of
// the shared PackProblem. Warm starts reuse the previous scheduling
// instant's achieved makespan as the initial upper bound. They must never
// worsen the schedule the search converges to (beyond the binary search's
// own resolution) and must fall back cleanly when the hint is useless.
#include "core/greedy.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/testbed.h"
#include "obs/metrics.h"

namespace cwc::core {
namespace {

struct Instance {
  std::vector<PhoneSpec> phones;
  std::vector<JobSpec> jobs;
  PredictionModel prediction = paper_prediction();
};

Instance make_instance(std::uint64_t seed, double scale = 0.1) {
  Rng rng(seed);
  Instance inst;
  inst.phones = paper_testbed(rng);
  inst.jobs = paper_workload(rng, scale);
  return inst;
}

// The binary search stops at relative gap capacity_tolerance; two searches
// that converge from different brackets may differ by a few multiples of
// it. Default tolerance is 1e-3.
constexpr double kSearchSlack = 1.005;

class GreedyWarmStartTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyWarmStartTest, WarmBuildNeverWorseThanCold) {
  const Instance inst = make_instance(static_cast<std::uint64_t>(GetParam()) * 53 + 1,
                                      0.05 + 0.01 * GetParam());
  const GreedyScheduler scheduler;
  const Schedule cold = scheduler.build(inst.jobs, inst.phones, inst.prediction);
  const Schedule warm = scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction,
                                                  {}, cold.predicted_makespan);
  validate_schedule(warm, inst.jobs, inst.phones);
  EXPECT_LE(warm.predicted_makespan, cold.predicted_makespan * kSearchSlack);
}

TEST_P(GreedyWarmStartTest, InfeasibleHintFallsBackCleanly) {
  const Instance inst = make_instance(static_cast<std::uint64_t>(GetParam()) * 71 + 9);
  const GreedyScheduler scheduler;
  const Schedule cold = scheduler.build(inst.jobs, inst.phones, inst.prediction);
  // A hint far below the achievable makespan cannot pack; the search must
  // recover via the cold upper bound and still converge to the same place.
  const Schedule warm = scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction,
                                                  {}, cold.predicted_makespan * 0.1);
  validate_schedule(warm, inst.jobs, inst.phones);
  EXPECT_LE(warm.predicted_makespan, cold.predicted_makespan * kSearchSlack);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyWarmStartTest, ::testing::Range(0, 8));

TEST(GreedyWarmStart, HintAboveUpperBoundIsIgnored) {
  const Instance inst = make_instance(11);
  const GreedyScheduler scheduler;
  const auto [lb, ub] = scheduler.capacity_bounds(inst.jobs, inst.phones, inst.prediction);
  const Schedule cold = scheduler.build(inst.jobs, inst.phones, inst.prediction);
  // A hint at/above UB adds no information; the search runs exactly cold.
  const Schedule hinted =
      scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction, {}, ub * 2.0);
  EXPECT_EQ(hinted.predicted_makespan, cold.predicted_makespan);
  ASSERT_EQ(hinted.plans.size(), cold.plans.size());
  for (std::size_t p = 0; p < cold.plans.size(); ++p) {
    ASSERT_EQ(hinted.plans[p].pieces.size(), cold.plans[p].pieces.size());
    for (std::size_t k = 0; k < cold.plans[p].pieces.size(); ++k) {
      EXPECT_EQ(hinted.plans[p].pieces[k].job, cold.plans[p].pieces[k].job);
      EXPECT_EQ(hinted.plans[p].pieces[k].input_kb, cold.plans[p].pieces[k].input_kb);
    }
  }
}

TEST(GreedyWarmStart, NonPositiveAndMissingHintsBehaveLikeCold) {
  const Instance inst = make_instance(13);
  const GreedyScheduler scheduler;
  const Schedule cold = scheduler.build(inst.jobs, inst.phones, inst.prediction);
  const Schedule none = scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction,
                                                  {}, std::nullopt);
  const Schedule zero =
      scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction, {}, 0.0);
  EXPECT_EQ(none.predicted_makespan, cold.predicted_makespan);
  EXPECT_EQ(zero.predicted_makespan, cold.predicted_makespan);
}

TEST(GreedyWarmStart, WarmStartConvergesInFewerPacks) {
  const Instance inst = make_instance(17, 0.15);
  const GreedyScheduler scheduler;
  const Schedule cold = scheduler.build(inst.jobs, inst.phones, inst.prediction);
  const double cold_bisections = obs::gauge("scheduler.last_bisections").value();
  const Schedule warm = scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction,
                                                  {}, cold.predicted_makespan);
  const double warm_bisections = obs::gauge("scheduler.last_bisections").value();
  // The hint narrows the initial bracket from [lb, worst-single-bin] to
  // [0.9 * hint, hint], which saves a large share of the bisections.
  EXPECT_LT(warm_bisections, cold_bisections);
  EXPECT_LE(warm.predicted_makespan, cold.predicted_makespan * kSearchSlack);
}

TEST(GreedyWarmStart, ControllerFeedsAchievedMakespanForward) {
  auto scheduler = std::make_unique<GreedyScheduler>();
  CwcController controller(std::move(scheduler), paper_prediction());
  Rng rng(23);
  for (const PhoneSpec& phone : paper_testbed(rng)) controller.register_phone(phone);
  ASSERT_FALSE(controller.capacity_hint().has_value());

  for (JobSpec job : paper_workload(rng, 0.05)) {
    job.id = kInvalidJob;  // let the controller assign ids
    controller.submit(job);
  }
  const Schedule first = controller.reschedule();
  ASSERT_TRUE(controller.capacity_hint().has_value());
  EXPECT_EQ(*controller.capacity_hint(), first.predicted_makespan);

  // The next instant warm-starts from the previous makespan and the hint
  // keeps tracking the latest schedule.
  for (JobSpec job : paper_workload(rng, 0.05)) {
    job.id = kInvalidJob;
    controller.submit(job);
  }
  const Schedule second = controller.reschedule();
  EXPECT_EQ(*controller.capacity_hint(), second.predicted_makespan);
}

}  // namespace
}  // namespace cwc::core
