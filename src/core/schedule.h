// Schedule representation shared by every scheduler and by the simulator.
//
// A schedule maps each phone to an *ordered* list of job pieces. Order
// matters: the server copies a phone's next piece only after the previous
// one completes (Section 5), so a phone's predicted finish time is the sum
// of its pieces' costs, with each job's executable-transfer cost paid once
// per phone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/model.h"
#include "core/prediction.h"

namespace cwc::core {

/// One piece of work: `input_kb` kilobytes of job `job` (the whole input
/// when the job was not partitioned).
struct JobPiece {
  JobId job = kInvalidJob;
  Kilobytes input_kb = 0.0;
};

/// Everything one phone will execute, in order.
struct PhonePlan {
  PhoneId phone = kInvalidPhone;
  std::vector<JobPiece> pieces;
  /// Predicted completion time of the whole plan (filled by the scheduler).
  Millis predicted_finish = 0.0;
};

struct Schedule {
  std::vector<PhonePlan> plans;
  Millis predicted_makespan = 0.0;

  /// Number of pieces each job was split into, keyed by job id. The
  /// paper's Fig. 12(b) metric "number of input partitions" is 0 for a job
  /// assigned whole to one phone, k (>= 2) for a job split k ways.
  std::map<JobId, std::size_t> pieces_per_job() const;
  std::map<JobId, std::size_t> partitions_per_job() const;

  /// Total KB of `job` assigned across all phones.
  Kilobytes assigned_kb(JobId job) const;
};

/// Job id -> position in a job vector, for paths that resolve every piece
/// of a schedule: one sort of (id, index) pairs, then per lookup a probe of
/// the id's slot in a dense run of ids or a binary search, with no per-job
/// node allocation. Like a map filled in vector order, a duplicated id
/// resolves to the last job carrying it.
class JobLookup {
 public:
  explicit JobLookup(const std::vector<JobSpec>& jobs);
  std::optional<std::size_t> find(JobId id) const;

 private:
  std::vector<std::pair<JobId, std::uint32_t>> sorted_;
};

/// Recomputes a plan's predicted finish from the model (Equation 1 summed
/// over pieces; executable cost once per distinct job on the phone).
Millis plan_cost(const PhonePlan& plan, const std::vector<JobSpec>& jobs, const PhoneSpec& phone,
                 const PredictionModel& prediction);

/// Throws std::logic_error if the schedule is inconsistent with the job
/// set: some job's input not fully covered, an atomic job split across
/// phones or partitioned, a piece for an unknown job, a negative piece, or
/// a piece exceeding the phone's RAM. Used by tests and by the simulator
/// as a precondition.
void validate_schedule(const Schedule& schedule, const std::vector<JobSpec>& jobs,
                       const std::vector<PhoneSpec>& phones);

}  // namespace cwc::core
