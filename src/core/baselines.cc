#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/scheduler.h"

namespace cwc::core {

void annotate_costs(Schedule& schedule, const std::vector<JobSpec>& jobs,
                    const std::vector<PhoneSpec>& phones, const PredictionModel& prediction) {
  std::map<PhoneId, const PhoneSpec*> phone_by_id;
  for (const PhoneSpec& phone : phones) phone_by_id[phone.id] = &phone;
  // One job lookup for the whole schedule, and per job the number (from 1)
  // of the last plan that shipped its executable: no tree node per job or
  // per piece, which on 12k-job batches cost more than the annotation.
  const JobLookup job_by_id(jobs);
  std::vector<std::size_t> shipped_in_plan(jobs.size(), 0);
  std::size_t plan_number = 0;
  schedule.predicted_makespan = 0.0;
  for (PhonePlan& plan : schedule.plans) {
    ++plan_number;
    const PhoneSpec& phone = *phone_by_id.at(plan.phone);
    Millis total = 0.0;
    // predict() is a string-keyed lookup; consecutive pieces mostly share
    // a task (the packer orders items by a per-task key), so reuse the
    // previous piece's c_ij while the task stays the same.
    const std::string* task = nullptr;
    MsPerKb c_ij = 0.0;
    for (const JobPiece& piece : plan.pieces) {
      const std::optional<std::size_t> index = job_by_id.find(piece.job);
      if (!index) {
        throw std::logic_error("annotate_costs: piece references unknown job " +
                               std::to_string(piece.job));
      }
      const JobSpec& job = jobs[*index];
      const bool first_piece = shipped_in_plan[*index] != plan_number;
      shipped_in_plan[*index] = plan_number;
      if (task == nullptr || *task != job.task_name) {
        task = &job.task_name;
        c_ij = prediction.predict(job.task_name, phone);
      }
      total += completion_time(job, phone, c_ij, piece.input_kb, first_piece);
    }
    plan.predicted_finish = total;
    schedule.predicted_makespan = std::max(schedule.predicted_makespan, plan.predicted_finish);
  }
}

namespace {

Schedule make_empty_schedule(const std::vector<PhoneSpec>& phones) {
  if (phones.empty()) throw std::invalid_argument("scheduler: no phones");
  Schedule schedule;
  schedule.plans.resize(phones.size());
  for (std::size_t i = 0; i < phones.size(); ++i) schedule.plans[i].phone = phones[i].id;
  return schedule;
}

}  // namespace

Schedule EqualSplitScheduler::build(const std::vector<JobSpec>& jobs,
                                    const std::vector<PhoneSpec>& phones,
                                    const PredictionModel& prediction,
                                    const InitialLoad&) const {
  Schedule schedule = make_empty_schedule(phones);
  std::size_t next_round_robin = 0;
  for (const JobSpec& job : jobs) {
    if (job.kind == JobKind::kBreakable && job.input_kb > 0.0) {
      const Kilobytes share = job.input_kb / static_cast<double>(phones.size());
      for (PhonePlan& plan : schedule.plans) plan.pieces.push_back({job.id, share});
    } else {
      schedule.plans[next_round_robin].pieces.push_back({job.id, job.input_kb});
      next_round_robin = (next_round_robin + 1) % phones.size();
    }
  }
  annotate_costs(schedule, jobs, phones, prediction);
  return schedule;
}

Schedule RoundRobinScheduler::build(const std::vector<JobSpec>& jobs,
                                    const std::vector<PhoneSpec>& phones,
                                    const PredictionModel& prediction,
                                    const InitialLoad&) const {
  Schedule schedule = make_empty_schedule(phones);
  std::size_t next = 0;
  for (const JobSpec& job : jobs) {
    schedule.plans[next].pieces.push_back({job.id, job.input_kb});
    next = (next + 1) % phones.size();
  }
  annotate_costs(schedule, jobs, phones, prediction);
  return schedule;
}

Schedule LptScheduler::build(const std::vector<JobSpec>& jobs,
                             const std::vector<PhoneSpec>& phones,
                             const PredictionModel& prediction,
                             const InitialLoad& initial_load) const {
  Schedule schedule = make_empty_schedule(phones);

  // Sort jobs by decreasing execution time on the slowest phone (the same
  // key the greedy packer uses), then repeatedly place the next job whole
  // on the phone whose load-after-placement is smallest.
  const PhoneSpec& slowest = *std::min_element(
      phones.begin(), phones.end(),
      [](const PhoneSpec& a, const PhoneSpec& b) { return a.cpu_mhz < b.cpu_mhz; });
  std::vector<const JobSpec*> order;
  order.reserve(jobs.size());
  for (const JobSpec& job : jobs) order.push_back(&job);
  std::sort(order.begin(), order.end(), [&](const JobSpec* a, const JobSpec* b) {
    return a->input_kb * prediction.predict(a->task_name, slowest) >
           b->input_kb * prediction.predict(b->task_name, slowest);
  });

  std::vector<Millis> load(phones.size(), 0.0);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    if (const auto it = initial_load.find(phones[i].id); it != initial_load.end()) {
      load[i] = it->second;
    }
  }
  for (const JobSpec* job : order) {
    std::size_t best = 0;
    Millis best_finish = std::numeric_limits<Millis>::infinity();
    for (std::size_t i = 0; i < phones.size(); ++i) {
      if (job->input_kb > phones[i].ram_kb) continue;  // respect RAM
      const Millis finish =
          load[i] + completion_time(*job, phones[i],
                                    prediction.predict(job->task_name, phones[i]),
                                    job->input_kb);
      if (finish < best_finish) {
        best_finish = finish;
        best = i;
      }
    }
    if (!std::isfinite(best_finish)) {
      throw std::runtime_error("LptScheduler: job exceeds every phone's RAM");
    }
    schedule.plans[best].pieces.push_back({job->id, job->input_kb});
    load[best] = best_finish;
  }
  annotate_costs(schedule, jobs, phones, prediction);
  return schedule;
}

}  // namespace cwc::core
