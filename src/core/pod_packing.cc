#include "core/pod_packing.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "core/health.h"
#include "core/locality.h"
#include "core/relaxation.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace cwc::core {

namespace {

constexpr double kEps = 1e-9;
constexpr Millis kInfCap = std::numeric_limits<Millis>::infinity();

/// Runs fn(0..count) on up to `workers` transient threads, each claiming
/// indices from a shared atomic counter. Deterministic as long as fn(i)
/// writes only slot i — which every call site here guarantees; all
/// cross-slot decisions happen on the calling thread afterwards, in index
/// order.
void run_indexed(std::size_t workers, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  if (workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(std::min(workers, count));
  for (std::size_t w = 0; w < std::min(workers, count); ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

PodPackingScheduler::PodPackingScheduler(Options options)
    : options_(options), inner_(options.greedy) {}

std::size_t PodPackingScheduler::link_class(MsPerKb b) {
  if (b < 2.0) return 0;   // clean WiFi
  if (b < 6.0) return 1;   // interfered WiFi / 4G
  if (b < 15.0) return 2;  // 3G
  if (b < 30.0) return 3;  // slow 3G / fast EDGE
  return 4;                // EDGE and worse
}

PodPackingScheduler::PodLayout PodPackingScheduler::make_layout(
    const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
    const PredictionModel& prediction, const InitialLoad& initial_load,
    std::map<std::string, std::vector<MsPerKb>>* task_rows,
    std::vector<std::vector<std::uint32_t>>* job_global) const {
  PodLayout layout;

  // Schedulable pool: quarantined phones never enter a pod. If *everything*
  // is quarantined the filter is waived — same safety valve as the
  // controller's parole-all path; probe pieces must be able to flow.
  std::vector<std::size_t> pool;
  pool.reserve(phones.size());
  for (std::size_t i = 0; i < phones.size(); ++i) {
    if (health_ == nullptr || health_->schedulable(phones[i].id)) {
      pool.push_back(i);
    } else {
      layout.excluded_phones.push_back(i);
    }
  }
  if (pool.empty()) {
    pool.resize(phones.size());
    for (std::size_t i = 0; i < phones.size(); ++i) pool[i] = i;
    layout.excluded_phones.clear();
  }

  const std::size_t per_pod = std::max<std::size_t>(options_.auto_pod_phones, 1);
  std::size_t P = options_.pods != 0
                      ? std::min(options_.pods, pool.size())
                      : std::clamp<std::size_t>(pool.size() / per_pod, 1,
                                                std::max<std::size_t>(options_.max_pods, 1));

  // One c_ij row per distinct task over *all* phones; shared by the pod
  // rate sums here, every per-pod prepare's equivalent (recomputed there,
  // but pods are small), and the cross-pod rebalance fits.
  for (const JobSpec& job : jobs) {
    auto [it, inserted] = task_rows->try_emplace(job.task_name);
    if (!inserted) continue;
    it->second.resize(phones.size());
    for (std::size_t i = 0; i < phones.size(); ++i) {
      it->second[i] = prediction.predict(job.task_name, phones[i]);
    }
  }

  // Pod keying: phones homogeneous in (declared zone, link class, health
  // band) cluster together, then contiguous slices of the sorted pool
  // become the pods.
  const auto risk_band = [this](PhoneId id) -> std::size_t {
    if (health_ == nullptr) return 0;
    const double risk = std::clamp(health_->health_risk(id), 0.0, 1.0);
    return std::min<std::size_t>(3, static_cast<std::size_t>(risk * 4.0));
  };
  std::sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
    const PhoneSpec& pa = phones[a];
    const PhoneSpec& pb = phones[b];
    return std::tuple(pa.zone, link_class(pa.b), risk_band(pa.id), a) <
           std::tuple(pb.zone, link_class(pb.b), risk_band(pb.id), b);
  });

  layout.phone_indices.resize(P);
  const std::size_t base = pool.size() / P;
  const std::size_t extra = pool.size() % P;
  std::size_t pos = 0;
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t size = base + (p < extra ? 1 : 0);
    layout.phone_indices[p].assign(pool.begin() + static_cast<std::ptrdiff_t>(pos),
                                   pool.begin() + static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
  }

  layout.job_shares.resize(P);
  if (job_global != nullptr) job_global->assign(P, {});
  const auto push_share = [&](std::size_t p, std::uint32_t j, Kilobytes input) {
    JobSpec share = jobs[j];
    share.input_kb = input;
    layout.job_shares[p].push_back(std::move(share));
    if (job_global != nullptr) (*job_global)[p].push_back(j);
  };

  if (jobs.empty() || P <= 1) {
    for (std::uint32_t j = 0; j < jobs.size(); ++j) push_share(0, j, jobs[j].input_kb);
    return layout;
  }

  // Per-pod aggregate service rate per task: sum of 1/(b_i + c_ij) over the
  // pod's phones — the KB/ms the pod absorbs for that task if perfectly
  // balanced. Drives both the job shares and the split proportions.
  std::map<std::string, std::vector<double>> rate;
  std::map<std::string, double> pool_rate;
  for (const auto& [task, row] : *task_rows) {
    std::vector<double>& r = rate[task];
    r.assign(P, 0.0);
    for (std::size_t p = 0; p < P; ++p) {
      for (const std::size_t g : layout.phone_indices[p]) {
        const double per_kb = phones[g].b + row[g];
        if (per_kb > 0.0) r[p] += 1.0 / per_kb;
      }
    }
    double total = 0.0;
    for (const double v : r) total += v;
    pool_rate[task] = total;
  }

  // Ideal parallel time of the whole batch (every phone helping): the yard
  // stick deciding when a job is too big for one pod and must be split.
  double ideal_total = 0.0;
  const auto ideal_ms = [&](const JobSpec& job) {
    const double r = pool_rate.at(job.task_name);
    return r > 0.0 ? job.input_kb / r : 0.0;
  };
  for (const JobSpec& job : jobs) {
    if (job.input_kb > 0.0) ideal_total += ideal_ms(job);
  }

  // LPT over the batch: largest (reference-duration) jobs placed first.
  std::vector<std::uint32_t> order(jobs.size());
  for (std::uint32_t j = 0; j < jobs.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double da = ideal_ms(jobs[a]);
    const double db = ideal_ms(jobs[b]);
    if (da != db) return da > db;
    return a < b;
  });

  // Projected load per pod (ms, in its own rate units) and per phone (ms,
  // Equation 1), both seeded from the initial load so mid-run reschedules
  // bias shares away from still-busy pods.
  std::vector<double> pod_load(P, 0.0);
  std::vector<std::size_t> pod_of(phones.size(), P);
  std::vector<double> phone_proj(phones.size(), 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    double initial_sum = 0.0;
    for (const std::size_t g : layout.phone_indices[p]) {
      pod_of[g] = p;
      if (const auto it = initial_load.find(phones[g].id); it != initial_load.end()) {
        phone_proj[g] = it->second;
        initial_sum += it->second;
      }
    }
    pod_load[p] = initial_sum / static_cast<double>(layout.phone_indices[p].size());
  }

  const Kilobytes min_share = std::max(options_.greedy.min_partition_kb, 1e-6);
  for (const std::uint32_t j : order) {
    const JobSpec& job = jobs[j];
    const std::vector<MsPerKb>& row = task_rows->at(job.task_name);
    const std::vector<double>& r = rate.at(job.task_name);

    if (job.kind == JobKind::kAtomic || job.input_kb <= 0.0) {
      // Atomic (and exec-only) jobs: classic LPT over individual phones,
      // restricted to RAM-feasible ones; the job joins that phone's pod.
      std::size_t best_g = phones.size();
      double best_finish = std::numeric_limits<double>::infinity();
      double best_cost = 0.0;
      for (std::size_t p = 0; p < P; ++p) {
        for (const std::size_t g : layout.phone_indices[p]) {
          if (phones[g].ram_kb + kEps < job.input_kb) continue;
          // Cached-bytes credit on the one-time transfer, mirroring
          // GreedyScheduler's first_ms: a phone already holding the bytes
          // wins the LPT placement, never below the pure compute cost.
          Millis first = job.exec_kb * phones[g].b;
          if (locality_ != nullptr) {
            const Kilobytes credit =
                std::min(std::max(0.0, locality_->cached_kb(job.id, phones[g].id)),
                         job.exec_kb + job.input_kb);
            first = (job.exec_kb - credit) * phones[g].b;
          }
          const double cost = std::max(job.input_kb * row[g],
                                       first + job.input_kb * (phones[g].b + row[g]));
          const double finish = phone_proj[g] + cost;
          if (finish < best_finish || (finish == best_finish && g < best_g)) {
            best_g = g;
            best_finish = finish;
            best_cost = cost;
          }
        }
      }
      if (best_g == phones.size()) {
        throw std::invalid_argument(
            "PodPackingScheduler: atomic job exceeds every schedulable phone's RAM");
      }
      phone_proj[best_g] += best_cost;
      const std::size_t p = pod_of[best_g];
      if (r[p] > 0.0) pod_load[p] += job.input_kb / r[p];
      push_share(p, j, job.input_kb);
      continue;
    }

    double best_pod_rate = 0.0;
    for (const double v : r) best_pod_rate = std::max(best_pod_rate, v);
    const bool split =
        best_pod_rate > 0.0 &&
        job.input_kb / best_pod_rate >
            options_.split_threshold * std::max(ideal_total, kEps);
    if (!split) {
      // Whole-job LPT over pods: keeps each pod's instance at ~jobs/P
      // items, which is what makes the hierarchical build subquadratic.
      std::size_t best_p = P;
      double best_finish = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < P; ++p) {
        if (r[p] <= 0.0) continue;
        const double finish = pod_load[p] + job.input_kb / r[p];
        if (finish < best_finish) {
          best_p = p;
          best_finish = finish;
        }
      }
      if (best_p == P) best_p = 0;  // degenerate: zero-rate everywhere
      if (r[best_p] > 0.0) pod_load[best_p] += job.input_kb / r[best_p];
      push_share(best_p, j, job.input_kb);
    } else {
      // The job dwarfs any single pod: divide it proportional to the pods'
      // aggregate rates (slivers below the min partition fold into the
      // fastest pod, which also absorbs the rounding residue so the shares
      // sum to the input exactly).
      std::size_t pmax = 0;
      for (std::size_t p = 1; p < P; ++p) {
        if (r[p] > r[pmax]) pmax = p;
      }
      const double total_rate = pool_rate.at(job.task_name);
      Kilobytes assigned = 0.0;
      for (std::size_t p = 0; p < P; ++p) {
        if (p == pmax || r[p] <= 0.0) continue;
        const Kilobytes share = job.input_kb * (r[p] / total_rate);
        if (share < min_share) continue;
        push_share(p, j, share);
        assigned += share;
        pod_load[p] += share / r[p];
      }
      const Kilobytes rest = std::max(0.0, job.input_kb - assigned);
      push_share(pmax, j, rest);
      if (r[pmax] > 0.0) pod_load[pmax] += rest / r[pmax];
    }
  }
  return layout;
}

PodPackingScheduler::PodLayout PodPackingScheduler::layout(
    const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
    const PredictionModel& prediction, const InitialLoad& initial_load) const {
  if (phones.empty()) throw std::invalid_argument("PodPackingScheduler: no phones");
  std::map<std::string, std::vector<MsPerKb>> task_rows;
  std::vector<std::vector<std::uint32_t>> job_global;
  return make_layout(jobs, phones, prediction, initial_load, &task_rows, &job_global);
}

Schedule PodPackingScheduler::delegate_flat(const std::vector<JobSpec>& jobs,
                                            const std::vector<PhoneSpec>& phones,
                                            const PredictionModel& prediction,
                                            const InitialLoad& initial_load,
                                            std::optional<Millis> capacity_hint,
                                            const std::vector<std::size_t>& pool,
                                            Diagnostics* diag) const {
  std::vector<PhoneSpec> pool_phones;
  pool_phones.reserve(pool.size());
  for (const std::size_t g : pool) pool_phones.push_back(phones[g]);
  Schedule sub = inner_.build_with_hint(jobs, pool_phones, prediction, initial_load,
                                        capacity_hint);
  Schedule out;
  out.predicted_makespan = sub.predicted_makespan;
  out.plans.resize(phones.size());
  for (std::size_t i = 0; i < phones.size(); ++i) out.plans[i].phone = phones[i].id;
  for (std::size_t k = 0; k < pool.size(); ++k) out.plans[pool[k]] = std::move(sub.plans[k]);

  obs::gauge("scheduler.pod.count").set(1.0);
  if (diag != nullptr) {
    diag->pods = 1;
    diag->capacity = out.predicted_makespan;
    diag->pod_makespans = {out.predicted_makespan};
  }
  return out;
}

Schedule PodPackingScheduler::build(const std::vector<JobSpec>& jobs,
                                    const std::vector<PhoneSpec>& phones,
                                    const PredictionModel& prediction,
                                    const InitialLoad& initial_load) const {
  return build_diagnosed(jobs, phones, prediction, initial_load, std::nullopt, nullptr);
}

Schedule PodPackingScheduler::build_with_hint(const std::vector<JobSpec>& jobs,
                                              const std::vector<PhoneSpec>& phones,
                                              const PredictionModel& prediction,
                                              const InitialLoad& initial_load,
                                              std::optional<Millis> capacity_hint) const {
  return build_diagnosed(jobs, phones, prediction, initial_load, capacity_hint, nullptr);
}

Schedule PodPackingScheduler::build_diagnosed(const std::vector<JobSpec>& jobs,
                                              const std::vector<PhoneSpec>& phones,
                                              const PredictionModel& prediction,
                                              const InitialLoad& initial_load,
                                              std::optional<Millis> capacity_hint,
                                              Diagnostics* diag) const {
  if (phones.empty()) throw std::invalid_argument("PodPackingScheduler: no phones");
  obs::counter("scheduler.pod.builds").inc();
  obs::ScopedTimer build_timer(obs::histogram("scheduler.pod.build_ms", 0.0, 1000.0, 25));

  std::map<std::string, std::vector<MsPerKb>> rows;
  std::vector<std::vector<std::uint32_t>> job_global;
  const PodLayout layout =
      make_layout(jobs, phones, prediction, initial_load, &rows, &job_global);
  const std::size_t P = layout.phone_indices.size();

  if (jobs.empty() || P <= 1) {
    return delegate_flat(jobs, phones, prediction, initial_load, capacity_hint,
                         layout.phone_indices[0], diag);
  }

  // Per-pod instances. The PackProblems point into each pod's jobs/phones
  // vectors, so `pods` is sized once and never reallocated after prepare.
  struct Pod {
    std::vector<PhoneSpec> phones;
    std::vector<JobSpec> jobs;
    GreedyScheduler::PackProblem problem;
    Millis lb = 0.0;
    Millis ub = 0.0;
    /// Monotone feasibility cache: the lowest capacity at which this pod
    /// packed its entire share, and that pack. Trials at C >= feasible_cap
    /// reuse it (heights only shrink with capacity, so the reuse is sound
    /// and deterministic).
    Millis feasible_cap = kInfCap;
    GreedyScheduler::PartialPack feasible;
    GreedyScheduler::PartialPack trial;  ///< scratch when repacked this trial
    bool trial_used = false;
  };
  std::vector<Pod> pods(P);
  for (std::size_t p = 0; p < P; ++p) {
    pods[p].phones.reserve(layout.phone_indices[p].size());
    for (const std::size_t g : layout.phone_indices[p]) pods[p].phones.push_back(phones[g]);
    pods[p].jobs = layout.job_shares[p];
  }

  const std::size_t workers =
      std::min<std::size_t>(std::max<std::size_t>(options_.parallel_pods, 1), P);

  // Phase A: prepare every pod's problem and tighten its combinatorial
  // lower bound with the LP relaxation where cheap enough. Workers write
  // only their own pod's slot.
  std::vector<char> lp_solved(P, 0);
  std::vector<char> lp_tightened(P, 0);
  run_indexed(workers, P, [&](std::size_t p) {
    Pod& pod = pods[p];
    pod.problem = inner_.prepare(pod.jobs, pod.phones, prediction, initial_load);
    pod.lb = pod.problem.lb;
    pod.ub = pod.problem.ub;
    const std::size_t cells = pod.jobs.size() * pod.phones.size();
    if (options_.lp_bound_max_cells > 0 && !pod.jobs.empty() &&
        cells <= options_.lp_bound_max_cells) {
      lp::SolverOptions solver;
      solver.max_iterations = options_.lp_bound_max_iterations;
      const RelaxationResult relaxed =
          relaxed_lower_bound(pod.jobs, pod.phones, prediction, solver, locality_);
      if (relaxed.solved) {
        lp_solved[p] = 1;
        if (relaxed.makespan > pod.lb) {
          lp_tightened[p] = 1;
          pod.lb = relaxed.makespan;
        }
      }
    }
  });

  // Global bracket over the per-pod summaries. The floor is the max of the
  // pod bounds: any capacity below some pod's LP bound cannot pack that
  // pod's share locally, so the bisection never probes there (hopeless
  // pods pruned early; rebalancing below the floor is forfeited by design
  // — the differential suite bounds the cost of that choice).
  Millis lb = 0.0;
  Millis ub = 0.0;
  for (const Pod& pod : pods) {
    lb = std::max(lb, pod.lb);
    ub = std::max(ub, pod.ub);
  }
  ub = std::max(ub, lb);

  // Reverse maps for the rebalance pass.
  std::vector<std::size_t> pod_of(phones.size(), P);
  std::vector<std::size_t> local_of(phones.size(), 0);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t k = 0; k < layout.phone_indices[p].size(); ++k) {
      pod_of[layout.phone_indices[p][k]] = p;
      local_of[layout.phone_indices[p][k]] = k;
    }
  }
  std::vector<std::map<std::uint32_t, std::uint32_t>> local_job(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::uint32_t lj = 0; lj < job_global[p].size(); ++lj) {
      local_job[p].emplace(job_global[p][lj], lj);
    }
  }

  struct TrialResult {
    std::vector<Schedule> pod_plans;  ///< pod-local plans, one per pod
    /// (global job index, global phone index) -> KB re-homed there.
    std::map<std::pair<std::uint32_t, std::size_t>, Kilobytes> extras;
    Millis capacity = 0.0;
    std::vector<Millis> pod_heights;  ///< achieved per pod, incl. extras
    Kilobytes rebalanced_kb = 0.0;
  };

  std::size_t rebalance_attempts = 0;
  const Kilobytes min_partition = std::max(options_.greedy.min_partition_kb, 0.0);

  // One capacity trial: pack every pod at C (concurrently, reusing cached
  // feasible packs), then re-home any leftovers across pods with slack.
  const auto attempt = [&](Millis capacity) -> std::optional<TrialResult> {
    run_indexed(workers, P, [&](std::size_t p) {
      Pod& pod = pods[p];
      pod.trial_used = false;
      if (pod.feasible_cap <= capacity + kEps) return;  // reuse cached pack
      pod.trial = inner_.pack_partial(pod.problem, capacity);
      pod.trial_used = true;
    });
    // Cache updates on the main thread, in pod order.
    for (Pod& pod : pods) {
      if (pod.trial_used && pod.trial.complete() && capacity < pod.feasible_cap) {
        pod.feasible = std::move(pod.trial);
        pod.feasible_cap = capacity;
        pod.trial_used = false;
      }
    }
    const auto pack_of = [&](std::size_t p) -> const GreedyScheduler::PartialPack& {
      return pods[p].trial_used ? pods[p].trial : pods[p].feasible;
    };

    struct Item {
      std::uint32_t job = 0;  ///< global job index
      Kilobytes remaining = 0.0;
    };
    std::vector<Item> leftovers;
    for (std::size_t p = 0; p < P; ++p) {
      if (!pods[p].trial_used) continue;
      for (const GreedyScheduler::Leftover& lo : pods[p].trial.leftovers) {
        leftovers.push_back({job_global[p][lo.job_index], lo.remaining_kb});
      }
    }

    TrialResult result;
    result.capacity = capacity;
    if (leftovers.empty()) {
      result.pod_plans.reserve(P);
      result.pod_heights.resize(P);
      for (std::size_t p = 0; p < P; ++p) {
        const GreedyScheduler::PartialPack& pack = pack_of(p);
        result.pod_plans.push_back(pack.schedule);
        Millis top = 0.0;
        for (const Millis h : pack.heights) top = std::max(top, h);
        result.pod_heights[p] = top;
      }
      return result;
    }

    // Cross-pod rebalance: place each leftover (largest first) onto the
    // minimum-height bin fleet-wide that still fits it under C, with the
    // executable-cost discount and RAM bounds honoured across pods.
    ++rebalance_attempts;
    struct RBin {
      std::size_t g = 0;      ///< global phone index
      std::size_t pod = 0;
      std::size_t local = 0;  ///< position within the pod
      Millis height = 0.0;
    };
    std::vector<RBin> bins;
    bins.reserve(pod_of.size());
    for (std::size_t p = 0; p < P; ++p) {
      const GreedyScheduler::PartialPack& pack = pack_of(p);
      for (std::size_t k = 0; k < layout.phone_indices[p].size(); ++k) {
        bins.push_back({layout.phone_indices[p][k], p, k, pack.heights[k]});
      }
    }
    std::map<std::pair<std::uint32_t, std::size_t>, Kilobytes> extras;
    // KB of job j already on the bin's phone (negative: no piece, the
    // executable cost is still owed) — pod pack plus rebalance extras.
    const auto placed_kb = [&](std::uint32_t j, const RBin& bin) -> Kilobytes {
      Kilobytes existing = -1.0;
      if (const auto it = local_job[bin.pod].find(j); it != local_job[bin.pod].end()) {
        const GreedyScheduler::PartialPack& pack = pack_of(bin.pod);
        const Kilobytes v = pack.placed[it->second * pods[bin.pod].phones.size() + bin.local];
        if (v >= 0.0) existing = v;
      }
      if (const auto it = extras.find({j, bin.g}); it != extras.end()) {
        existing = (existing < 0.0 ? 0.0 : existing) + it->second;
      }
      return existing;
    };

    std::sort(leftovers.begin(), leftovers.end(), [](const Item& a, const Item& b) {
      if (a.remaining != b.remaining) return a.remaining > b.remaining;
      return a.job < b.job;
    });
    for (const Item& item : leftovers) {
      const JobSpec& job = jobs[item.job];
      const std::vector<MsPerKb>& row = rows.at(job.task_name);
      const bool atomic = job.kind == JobKind::kAtomic;
      Kilobytes rem = item.remaining;
      // Exec-only leftovers (zero input, executable too big for any bin of
      // their pod) still need one 0-KB piece somewhere.
      const bool zero = rem <= kEps * (1.0 + job.input_kb);
      while (true) {
        std::size_t best = bins.size();
        Kilobytes best_amount = 0.0;
        Millis best_cost = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
          const RBin& bin = bins[i];
          if (best != bins.size() &&
              !(bin.height < bins[best].height ||
                (bin.height == bins[best].height && bin.g < bins[best].g))) {
            continue;  // not lower than the current best bin
          }
          const PhoneSpec& phone = phones[bin.g];
          const Kilobytes existing = placed_kb(item.job, bin);
          const bool has_piece = existing >= 0.0;
          const Millis exec_cost = has_piece ? 0.0 : job.exec_kb * phone.b;
          const Millis available = capacity - bin.height - exec_cost;
          if (available < -kEps) continue;
          if (zero) {
            best = i;
            best_amount = 0.0;
            best_cost = exec_cost;
            continue;
          }
          const Kilobytes ram_room = phone.ram_kb - (has_piece ? existing : 0.0);
          if (ram_room <= kEps) continue;
          const double per_kb = phone.b + row[bin.g];
          const Kilobytes max_by_time =
              per_kb > 0.0 ? available / per_kb : std::numeric_limits<double>::infinity();
          const Kilobytes max_amount = std::min({rem, max_by_time, ram_room});
          if (max_amount <= kEps) continue;
          Kilobytes amount = 0.0;
          if (atomic) {
            if (max_amount + kEps * (1.0 + rem) < rem) continue;
            amount = rem;
          } else {
            const Kilobytes needed = std::min(rem, min_partition);
            if (max_amount + kEps < needed) continue;
            amount = std::min(rem, max_amount);
          }
          best = i;
          best_amount = amount;
          best_cost = exec_cost + amount * per_kb;
        }
        if (best == bins.size()) return std::nullopt;  // C infeasible even rebalanced
        extras[{item.job, bins[best].g}] += best_amount;
        bins[best].height += best_cost;
        rem -= best_amount;
        if (zero || rem <= kEps * (1.0 + job.input_kb)) break;
      }
    }

    result.pod_plans.reserve(P);
    for (std::size_t p = 0; p < P; ++p) result.pod_plans.push_back(pack_of(p).schedule);
    result.pod_heights.assign(P, 0.0);
    for (const RBin& bin : bins) {
      result.pod_heights[bin.pod] = std::max(result.pod_heights[bin.pod], bin.height);
    }
    for (const auto& [key, kb] : extras) result.rebalanced_kb += kb;
    result.extras = std::move(extras);
    return result;
  };

  // Phase B: one bisection over the per-pod summaries. Warm start exactly
  // as the flat packer: a feasible hint becomes the upper bound plus one
  // shrunken probe; an infeasible hint raises the floor.
  std::optional<TrialResult> best;
  if (capacity_hint && *capacity_hint > 0.0 && *capacity_hint < ub) {
    if (auto r = attempt(*capacity_hint)) {
      obs::counter("scheduler.pod.warm_start_hits").inc();
      best = std::move(r);
      ub = *capacity_hint;
      const Millis low = std::max(lb, *capacity_hint * options_.warm_start_shrink);
      if (low < ub) {
        if (auto tighter = attempt(low)) {
          best = std::move(tighter);
          ub = low;
        } else {
          lb = low;
        }
      }
    } else {
      obs::counter("scheduler.pod.warm_start_misses").inc();
      lb = std::max(lb, *capacity_hint);
    }
  }
  if (!best) {
    best = attempt(ub);
    // UB should always pack (each pod's own UB is feasible); grow
    // defensively if numerical corner cases disagree.
    for (int a = 0; a < 8 && !best; ++a) {
      ub *= 2.0;
      best = attempt(ub);
    }
    if (!best) throw std::runtime_error("PodPackingScheduler: no feasible packing found");
  }

  std::size_t bisections = 0;
  for (std::size_t iter = 0;
       iter < options_.max_bisections && (ub - lb) > options_.capacity_tolerance * ub;
       ++iter) {
    const Millis mid = (lb + ub) / 2.0;
    if (auto r = attempt(mid)) {
      best = std::move(r);
      ub = mid;
    } else {
      lb = mid;
    }
    bisections = iter + 1;
  }

  // Telemetry: how the hierarchical search behaved.
  std::size_t lp_solved_count = 0;
  std::size_t lp_tightened_count = 0;
  for (std::size_t p = 0; p < P; ++p) {
    lp_solved_count += lp_solved[p] != 0 ? 1 : 0;
    lp_tightened_count += lp_tightened[p] != 0 ? 1 : 0;
  }
  obs::gauge("scheduler.pod.count").set(static_cast<double>(P));
  obs::counter("scheduler.pod.bisections").inc(static_cast<double>(bisections));
  obs::gauge("scheduler.pod.last_bisections").set(static_cast<double>(bisections));
  obs::gauge("scheduler.pod.last_capacity_gap").set(ub > 0.0 ? (ub - lb) / ub : 0.0);
  obs::counter("scheduler.pod.rebalance_attempts")
      .inc(static_cast<double>(rebalance_attempts));
  obs::counter("scheduler.pod.rebalanced_pieces")
      .inc(static_cast<double>(best->extras.size()));
  obs::counter("scheduler.pod.rebalanced_kb").inc(best->rebalanced_kb);
  obs::counter("scheduler.pod.lp_bounds_solved").inc(static_cast<double>(lp_solved_count));
  obs::counter("scheduler.pod.lp_bounds_tightened")
      .inc(static_cast<double>(lp_tightened_count));
  if (obs::trace_enabled()) {
    for (std::size_t p = 0; p < P; ++p) {
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kPodPacked;
      event.t = obs::trace_now();
      event.piece = static_cast<std::int32_t>(p);
      event.value = best->pod_heights[p];
      obs::trace_record(event);
    }
    if (!best->extras.empty()) {
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kPodRebalance;
      event.t = obs::trace_now();
      event.piece = static_cast<std::int32_t>(best->extras.size());
      event.value = best->rebalanced_kb;
      obs::trace_record(event);
    }
  }

  // Assemble: pod-local plans back into fleet order (excluded phones get
  // empty plans), then merge in the rebalanced extras.
  Schedule schedule;
  schedule.plans.resize(phones.size());
  for (std::size_t i = 0; i < phones.size(); ++i) schedule.plans[i].phone = phones[i].id;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t k = 0; k < layout.phone_indices[p].size(); ++k) {
      schedule.plans[layout.phone_indices[p][k]].pieces =
          std::move(best->pod_plans[p].plans[k].pieces);
    }
  }
  for (const auto& [key, kb] : best->extras) {
    PhonePlan& plan = schedule.plans[key.second];
    const JobId id = jobs[key.first].id;
    bool merged = false;
    for (JobPiece& piece : plan.pieces) {
      if (piece.job == id) {
        piece.input_kb += kb;
        merged = true;
        break;
      }
    }
    if (!merged) plan.pieces.push_back({id, kb});
  }
  annotate_costs(schedule, jobs, phones, prediction);

  if (diag != nullptr) {
    diag->pods = P;
    diag->capacity = best->capacity;
    diag->bisections = bisections;
    diag->rebalance_attempts = rebalance_attempts;
    diag->rebalanced_pieces = best->extras.size();
    diag->rebalanced_kb = best->rebalanced_kb;
    diag->lp_bounds_solved = lp_solved_count;
    diag->lp_bounds_tightened = lp_tightened_count;
    diag->pod_lower_bounds.resize(P);
    for (std::size_t p = 0; p < P; ++p) diag->pod_lower_bounds[p] = pods[p].lb;
    diag->pod_makespans = best->pod_heights;
  }
  return schedule;
}

}  // namespace cwc::core
