#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/costmodel.h"
#include "core/scheduler.h"
#include "core/testbed.h"

namespace cwc::core {
namespace {

TEST(CostModel, PaperHeadlineNumbers) {
  // Section 3.2: Core 2 Duo server ~ $74.5/yr with PUE 2.5; Tegra 3
  // smartphone ~ $1.33/yr without PUE.
  EXPECT_NEAR(annual_energy_cost(intel_core2duo_server()), 74.5, 0.5);
  EXPECT_NEAR(annual_energy_cost(intel_nehalem_server()), 689.0, 2.0);
  EXPECT_NEAR(annual_energy_cost(tegra3_smartphone()), 1.33, 0.02);
}

TEST(CostModel, PueAppliesOnlyToServers) {
  DevicePower no_cooling = intel_core2duo_server();
  no_cooling.needs_cooling = false;
  EXPECT_NEAR(annual_energy_cost(intel_core2duo_server()) / annual_energy_cost(no_cooling), 2.5,
              1e-9);
}

TEST(CostModel, PhonesToReplaceServerScalesWithNightLength) {
  const auto server = intel_core2duo_server();
  const auto phone = tegra3_smartphone();
  // Equal compute: 24h server / 8h nightly phone -> 3 phones.
  EXPECT_NEAR(phones_to_replace_server(server, phone, 8.0), 3.0, 1e-9);
  EXPECT_NEAR(phones_to_replace_server(server, phone, 6.0), 4.0, 1e-9);
  EXPECT_THROW(phones_to_replace_server(server, phone, 0.0), std::invalid_argument);
}

TEST(CostModel, FleetStillCheaperByOrderOfMagnitude) {
  const CostComparison row =
      compare_server_to_phones(intel_core2duo_server(), tegra3_smartphone(), 8.0);
  EXPECT_GT(row.savings_factor, 10.0);  // the paper's "order of magnitude"
  EXPECT_NEAR(row.phones_needed, 3.0, 1e-9);
  EXPECT_LT(row.fleet_annual_cost, row.server_annual_cost);
}

TEST(Schedule, PartitionCountsDistinguishWholeAssignments) {
  Schedule schedule;
  schedule.plans.resize(3);
  schedule.plans[0].phone = 0;
  schedule.plans[1].phone = 1;
  schedule.plans[2].phone = 2;
  schedule.plans[0].pieces = {{1, 100.0}, {2, 50.0}};
  schedule.plans[1].pieces = {{2, 50.0}};
  schedule.plans[2].pieces = {{3, 10.0}};
  const auto partitions = schedule.partitions_per_job();
  EXPECT_EQ(partitions.at(1), 0u);  // whole on one phone
  EXPECT_EQ(partitions.at(2), 2u);  // split in two
  EXPECT_EQ(partitions.at(3), 0u);
  EXPECT_NEAR(schedule.assigned_kb(2), 100.0, 1e-9);
}

TEST(Schedule, JobLookupResolvesIdsLikeAMapFilledInOrder) {
  const auto jobs_with_ids = [](std::vector<JobId> ids) {
    std::vector<JobSpec> jobs;
    for (const JobId id : ids) jobs.push_back({id, "prime-count", JobKind::kBreakable, 1.0, 1.0});
    return jobs;
  };
  // A dense run, a sparse unsorted set with negative ids, and duplicates:
  // a duplicated id resolves to the last job carrying it.
  for (const std::vector<JobId>& ids :
       {std::vector<JobId>{40, 41, 42, 43}, std::vector<JobId>{9, -3, 1000, 7, -1},
        std::vector<JobId>{5, 6, 6, 7, 5}, std::vector<JobId>{}}) {
    const std::vector<JobSpec> jobs = jobs_with_ids(ids);
    const JobLookup lookup(jobs);
    std::map<JobId, std::size_t> reference;
    for (std::size_t j = 0; j < jobs.size(); ++j) reference[jobs[j].id] = j;
    for (JobId id = -5; id <= 1001; ++id) {
      const auto it = reference.find(id);
      const std::optional<std::size_t> got = lookup.find(id);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value()) << "id " << id;
      } else {
        ASSERT_TRUE(got.has_value()) << "id " << id;
        EXPECT_EQ(*got, it->second) << "id " << id;
      }
    }
  }
}

TEST(Schedule, ValidateCatchesUndercoverage) {
  PredictionModel prediction;
  prediction.set_reference("t", 10.0, 1000.0);
  PhoneSpec phone;
  phone.id = 0;
  JobSpec job;
  job.id = 0;
  job.task_name = "t";
  job.input_kb = 100.0;

  Schedule schedule;
  schedule.plans.resize(1);
  schedule.plans[0].phone = 0;
  schedule.plans[0].pieces = {{0, 60.0}};
  EXPECT_THROW(validate_schedule(schedule, {job}, {phone}), std::logic_error);
  schedule.plans[0].pieces = {{0, 100.0}};
  EXPECT_NO_THROW(validate_schedule(schedule, {job}, {phone}));
}

TEST(Schedule, ValidateCatchesAtomicSplitAndUnknownIds) {
  PhoneSpec phone;
  phone.id = 0;
  PhoneSpec phone2;
  phone2.id = 1;
  JobSpec job;
  job.id = 0;
  job.task_name = "t";
  job.kind = JobKind::kAtomic;
  job.input_kb = 100.0;

  Schedule split;
  split.plans.resize(2);
  split.plans[0].phone = 0;
  split.plans[1].phone = 1;
  split.plans[0].pieces = {{0, 50.0}};
  split.plans[1].pieces = {{0, 50.0}};
  EXPECT_THROW(validate_schedule(split, {job}, {phone, phone2}), std::logic_error);

  Schedule unknown_phone;
  unknown_phone.plans.resize(1);
  unknown_phone.plans[0].phone = 9;
  EXPECT_THROW(validate_schedule(unknown_phone, {job}, {phone}), std::logic_error);

  Schedule unknown_job;
  unknown_job.plans.resize(1);
  unknown_job.plans[0].phone = 0;
  unknown_job.plans[0].pieces = {{7, 100.0}};
  EXPECT_THROW(validate_schedule(unknown_job, {job}, {phone}), std::logic_error);
}

TEST(Testbed, MatchesPaperShape) {
  Rng rng(1);
  const auto phones = paper_testbed(rng);
  ASSERT_EQ(phones.size(), 18u);
  double min_mhz = 1e9, max_mhz = 0.0, min_b = 1e9, max_b = 0.0;
  for (const auto& phone : phones) {
    min_mhz = std::min(min_mhz, phone.cpu_mhz);
    max_mhz = std::max(max_mhz, phone.cpu_mhz);
    min_b = std::min(min_b, phone.b);
    max_b = std::max(max_b, phone.b);
  }
  EXPECT_DOUBLE_EQ(min_mhz, 806.0);
  EXPECT_DOUBLE_EQ(max_mhz, 1500.0);
  EXPECT_LT(min_b, 2.0);   // WiFi phones
  EXPECT_GT(max_b, 9.0);   // EDGE phones (uplink-compressed range, 10-22 ms/KB)
  // Phones 2 and 9 are the hidden over-performers.
  EXPECT_GT(phones[2].hidden_efficiency, 1.25);
  EXPECT_GT(phones[9].hidden_efficiency, 1.25);
}

TEST(Testbed, WorkloadHas150TasksOfThreeKinds) {
  Rng rng(2);
  const auto jobs = paper_workload(rng);
  ASSERT_EQ(jobs.size(), 150u);
  std::size_t atomic = 0;
  for (const auto& job : jobs) atomic += job.kind == JobKind::kAtomic ? 1 : 0;
  EXPECT_EQ(atomic, 50u);  // the photo tasks
  for (const auto& job : jobs) {
    EXPECT_GT(job.input_kb, 0.0);
    EXPECT_GT(job.exec_kb, 0.0);
  }
}

TEST(Testbed, PredictionKnowsAllWorkloadTasks) {
  Rng rng(3);
  const auto prediction = paper_prediction();
  for (const auto& job : paper_workload(rng)) {
    EXPECT_TRUE(prediction.knows(job.task_name)) << job.task_name;
  }
}

}  // namespace
}  // namespace cwc::core
