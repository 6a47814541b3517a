// Pins the greedy packer's output bit for bit. Each suite below digests
// every plan, piece, KB bit pattern, predicted finish and makespan of a
// seeded corpus and compares the digest with a constant recorded from a
// known-good packer. A change to the packer's internals (its item list,
// per-bin bookkeeping, cost annotation or locality lookup) must leave every
// digest unchanged; a deliberate change of schedules must re-record them.
//
// On a mismatch the test prints the new digest, so re-recording is a
// one-line edit, and the per-case digests localize which shape moved.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/chunk.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/locality.h"
#include "core/testbed.h"

namespace cwc::core {
namespace {

/// FNV-1a over the exact bit patterns of every value fed in.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(const Schedule& schedule) {
    add(static_cast<std::uint64_t>(schedule.plans.size()));
    for (const PhonePlan& plan : schedule.plans) {
      add_i(plan.phone);
      add(static_cast<std::uint64_t>(plan.pieces.size()));
      for (const JobPiece& piece : plan.pieces) {
        add_i(piece.job);
        add(piece.input_kb);
      }
      add(plan.predicted_finish);
    }
    add(schedule.predicted_makespan);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void expect_digest(const Digest& digest, std::uint64_t pinned, const char* what) {
  EXPECT_EQ(digest.value(), pinned) << what << ": new digest 0x" << std::hex << digest.value()
                                    << "ull";
}

struct Instance {
  std::vector<PhoneSpec> phones;
  std::vector<JobSpec> jobs;
  InitialLoad initial_load;
  PredictionModel prediction = paper_prediction();
};

/// The perfbench live-small batch as the server schedules it: four
/// loopback phones (two sharing a CPU register half its clock), 12,000
/// 2 KB jobs cycling over four tasks, and host-measured prediction
/// constants in ms/KB at 1600 MHz.
Instance live_small_instance() {
  Instance inst;
  const double mhz[] = {800.0, 800.0, 1600.0, 1600.0};
  for (int i = 0; i < 4; ++i) {
    PhoneSpec phone;
    phone.id = i + 1;
    phone.cpu_mhz = mhz[i];
    phone.b = 1000.0 / 1'000'000.0;  // a 1,000,000 KB/s loopback probe
    phone.ram_kb = 512.0 * 1024.0;
    inst.phones.push_back(phone);
  }
  struct Task {
    const char* name;
    double c_ms_per_kb;
    Kilobytes exec_kb;
  };
  const Task tasks[] = {{"prime-count", 0.040, 38.0},
                        {"word-count:error", 0.018, 24.0},
                        {"log-scan:disk failure", 0.0105, 31.0},
                        {"sales-aggregate", 0.010, 27.0}};
  inst.prediction = PredictionModel();
  for (const Task& task : tasks) inst.prediction.set_reference(task.name, task.c_ms_per_kb, 1600.0);
  for (int j = 0; j < 12'000; ++j) {
    const Task& task = tasks[j % 4];
    JobSpec job;
    job.id = j;
    job.task_name = task.name;
    job.exec_kb = task.exec_kb;
    job.input_kb = 2.0;
    inst.jobs.push_back(job);
  }
  return inst;
}

/// The paper's 150-job workload on a random fleet of 2-62 phones: random
/// clocks and links, RAM caps small enough to bind on some phones, initial
/// loads on about half, and the workload's atomic photo-blur jobs.
Instance random_fleet_instance(std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  const auto phone_count = static_cast<std::size_t>(rng.uniform_int(2, 62));
  for (std::size_t i = 0; i < phone_count; ++i) {
    PhoneSpec phone;
    phone.id = static_cast<PhoneId>(i * 3 + 1);
    phone.cpu_mhz = rng.uniform(600.0, 2400.0);
    phone.b = rng.uniform(0.5, 70.0);
    // Phone 0 keeps the default RAM so every atomic job fits somewhere.
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.3) phone.ram_kb = rng.uniform(800.0, 20000.0);
    inst.phones.push_back(phone);
    if (rng.uniform(0.0, 1.0) < 0.5) inst.initial_load[phone.id] = rng.uniform(50.0, 80000.0);
  }
  inst.jobs = paper_workload(rng, rng.uniform(0.05, 1.0));
  return inst;
}

TEST(GreedyPinned, LiveSmallBuild) {
  const Instance inst = live_small_instance();
  const GreedyScheduler scheduler;
  Digest digest;
  digest.add(scheduler.build(inst.jobs, inst.phones, inst.prediction));
  expect_digest(digest, 0xc9bcac6e4f445930ull, "live-small build");
}

TEST(GreedyPinned, RandomFleetBuilds) {
  const GreedyScheduler scheduler;
  Digest digest;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Instance inst = random_fleet_instance(seed);
    digest.add(scheduler.build(inst.jobs, inst.phones, inst.prediction, inst.initial_load));
  }
  expect_digest(digest, 0x88f9d535de0ce033ull, "random-fleet builds");
}

TEST(GreedyPinned, HintedBuilds) {
  // A feasible hint just above the cold makespan, one far below it
  // (infeasible: it only raises the lower bound), and one above the cold
  // upper bound (ignored).
  const GreedyScheduler scheduler;
  Digest digest;
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    const Instance inst = random_fleet_instance(seed);
    const Schedule cold =
        scheduler.build(inst.jobs, inst.phones, inst.prediction, inst.initial_load);
    for (const double factor : {1.05, 0.4, 1e6}) {
      digest.add(scheduler.build_with_hint(inst.jobs, inst.phones, inst.prediction,
                                           inst.initial_load,
                                           cold.predicted_makespan * factor));
    }
  }
  expect_digest(digest, 0x7540c81b1179ea03ull, "hinted builds");
}

TEST(GreedyPinned, PartialPacks) {
  // Capacities from well below the magical-bin bound (many leftovers) to
  // the cold upper bound (none): the leftovers, the placed matrix and the
  // bin heights are digested along with the unannotated plans.
  const GreedyScheduler scheduler;
  Digest digest;
  std::size_t with_leftovers = 0;
  std::size_t complete = 0;
  for (std::uint64_t seed = 201; seed <= 216; ++seed) {
    const Instance inst = random_fleet_instance(seed);
    const auto problem =
        scheduler.prepare(inst.jobs, inst.phones, inst.prediction, inst.initial_load);
    for (const double t : {-0.5, 0.0, 0.2, 0.6, 1.0}) {
      const GreedyScheduler::PartialPack pack =
          scheduler.pack_partial(problem, problem.lb + (problem.ub - problem.lb) * t);
      ++(pack.complete() ? complete : with_leftovers);
      digest.add(pack.schedule);
      digest.add(static_cast<std::uint64_t>(pack.leftovers.size()));
      for (const GreedyScheduler::Leftover& left : pack.leftovers) {
        digest.add(static_cast<std::uint64_t>(left.job_index));
        digest.add(left.remaining_kb);
      }
      for (const Kilobytes kb : pack.placed) digest.add(kb);
      for (const Millis height : pack.heights) digest.add(height);
    }
  }
  EXPECT_GT(with_leftovers, 0u);
  EXPECT_GT(complete, 0u);
  expect_digest(digest, 0x939fb012b38c8cc9ull, "partial packs");
}

TEST(GreedyPinned, LocalityBoundBuilds) {
  // A bound ChunkLocalityIndex: some phones hold some jobs' chunks (credit
  // that can turn a first placement's cost negative), one phone has a
  // disabled cache, and most phones have no directory at all.
  Digest digest;
  std::size_t credited = 0;
  for (std::uint64_t seed = 301; seed <= 308; ++seed) {
    Instance inst = random_fleet_instance(seed);
    Rng rng(seed * 7);
    ChunkLocalityIndex locality;
    std::vector<ChunkDirectory> directories(inst.phones.size(), ChunkDirectory(64ull << 20));
    directories.back().set_budget(0);
    for (const JobSpec& job : inst.jobs) {
      std::vector<ChunkId> manifest;
      for (std::uint64_t k = 0; k < 4; ++k) {
        manifest.push_back((static_cast<ChunkId>(job.id * 4 + k + 1) << 32) | (64u * 1024u));
      }
      for (std::size_t i = 0; i + 1 < inst.phones.size(); i += 3) {
        if (rng.uniform(0.0, 1.0) < 0.2) directories[i].insert(manifest[0]);
        if (rng.uniform(0.0, 1.0) < 0.1) directories[i].insert(manifest[1]);
      }
      locality.set_manifest(job.id, std::move(manifest));
    }
    for (std::size_t i = 0; i < inst.phones.size(); i += 3) {
      locality.attach_directory(inst.phones[i].id, &directories[i]);
    }
    locality.attach_directory(inst.phones.back().id, &directories.back());
    GreedyScheduler scheduler;
    const Schedule blind =
        scheduler.build(inst.jobs, inst.phones, inst.prediction, inst.initial_load);
    scheduler.bind_locality(&locality);
    const Schedule bound =
        scheduler.build(inst.jobs, inst.phones, inst.prediction, inst.initial_load);
    if (bound.predicted_makespan != blind.predicted_makespan) ++credited;
    digest.add(bound);
  }
  EXPECT_GT(credited, 0u) << "the cached-bytes credit never moved a schedule";
  expect_digest(digest, 0x4026c74c9557e12ull, "locality-bound builds");
}

}  // namespace
}  // namespace cwc::core
