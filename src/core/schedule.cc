#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace cwc::core {

namespace {
constexpr double kCoverageToleranceKb = 1e-6;
}

std::map<JobId, std::size_t> Schedule::pieces_per_job() const {
  std::map<JobId, std::size_t> counts;
  for (const PhonePlan& plan : plans) {
    for (const JobPiece& piece : plan.pieces) ++counts[piece.job];
  }
  return counts;
}

std::map<JobId, std::size_t> Schedule::partitions_per_job() const {
  auto counts = pieces_per_job();
  for (auto& [job, count] : counts) {
    if (count == 1) count = 0;  // assigned whole: zero partitions (Fig. 12b)
  }
  return counts;
}

Kilobytes Schedule::assigned_kb(JobId job) const {
  Kilobytes total = 0.0;
  for (const PhonePlan& plan : plans) {
    for (const JobPiece& piece : plan.pieces) {
      if (piece.job == job) total += piece.input_kb;
    }
  }
  return total;
}

JobLookup::JobLookup(const std::vector<JobSpec>& jobs) {
  sorted_.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sorted_.emplace_back(jobs[j].id, static_cast<std::uint32_t>(j));
  }
  // Jobs usually arrive in id order already; then the sort is skipped.
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) std::sort(sorted_.begin(), sorted_.end());
}

std::optional<std::size_t> JobLookup::find(JobId id) const {
  if (sorted_.empty()) return std::nullopt;
  // Ids are usually one dense run, where an id sits at its offset from the
  // smallest id: check that slot before searching. Either way the answer
  // is the last pair with this id, so the highest index wins, as a map's
  // would.
  const std::int64_t slot = std::int64_t{id} - sorted_.front().first;
  const auto size = static_cast<std::int64_t>(sorted_.size());
  if (slot >= 0 && slot < size && sorted_[static_cast<std::size_t>(slot)].first == id &&
      (slot + 1 == size || sorted_[static_cast<std::size_t>(slot) + 1].first != id)) {
    return sorted_[static_cast<std::size_t>(slot)].second;
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(),
                                   std::make_pair(id, std::numeric_limits<std::uint32_t>::max()));
  if (it == sorted_.begin() || std::prev(it)->first != id) return std::nullopt;
  return std::prev(it)->second;
}

Millis plan_cost(const PhonePlan& plan, const std::vector<JobSpec>& jobs, const PhoneSpec& phone,
                 const PredictionModel& prediction) {
  std::map<JobId, const JobSpec*> by_id;
  for (const JobSpec& job : jobs) by_id[job.id] = &job;

  Millis total = 0.0;
  std::set<JobId> executable_shipped;
  for (const JobPiece& piece : plan.pieces) {
    const auto it = by_id.find(piece.job);
    if (it == by_id.end()) {
      throw std::logic_error("plan_cost: piece references unknown job " +
                             std::to_string(piece.job));
    }
    const JobSpec& job = *it->second;
    const bool first_piece = executable_shipped.insert(piece.job).second;
    total += completion_time(job, phone, prediction.predict(job.task_name, phone),
                             piece.input_kb, first_piece);
  }
  return total;
}

void validate_schedule(const Schedule& schedule, const std::vector<JobSpec>& jobs,
                       const std::vector<PhoneSpec>& phones) {
  std::map<PhoneId, const PhoneSpec*> phone_by_id;
  for (const PhoneSpec& phone : phones) phone_by_id[phone.id] = &phone;
  std::map<JobId, const JobSpec*> job_by_id;
  for (const JobSpec& job : jobs) job_by_id[job.id] = &job;

  std::map<JobId, Kilobytes> covered;
  std::map<JobId, std::size_t> piece_counts;
  for (const PhonePlan& plan : schedule.plans) {
    const auto phone_it = phone_by_id.find(plan.phone);
    if (phone_it == phone_by_id.end()) {
      throw std::logic_error("schedule references unknown phone " + std::to_string(plan.phone));
    }
    for (const JobPiece& piece : plan.pieces) {
      const auto job_it = job_by_id.find(piece.job);
      if (job_it == job_by_id.end()) {
        throw std::logic_error("schedule references unknown job " + std::to_string(piece.job));
      }
      if (piece.input_kb < 0.0 || !std::isfinite(piece.input_kb)) {
        throw std::logic_error("negative or non-finite piece for job " +
                               std::to_string(piece.job));
      }
      if (piece.input_kb > phone_it->second->ram_kb + kCoverageToleranceKb) {
        throw std::logic_error("piece of job " + std::to_string(piece.job) +
                               " exceeds RAM of phone " + std::to_string(plan.phone));
      }
      covered[piece.job] += piece.input_kb;
      ++piece_counts[piece.job];
    }
  }

  for (const JobSpec& job : jobs) {
    const double assigned = covered.count(job.id) ? covered[job.id] : 0.0;
    if (std::abs(assigned - job.input_kb) > kCoverageToleranceKb * (1.0 + job.input_kb)) {
      throw std::logic_error("job " + std::to_string(job.id) + " covers " +
                             std::to_string(assigned) + " KB of " +
                             std::to_string(job.input_kb));
    }
    if (job.kind == JobKind::kAtomic && piece_counts[job.id] > 1) {
      throw std::logic_error("atomic job " + std::to_string(job.id) + " was partitioned");
    }
  }
}

}  // namespace cwc::core
