#include "core/greedy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fault.h"
#include "core/locality.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace cwc::core {

namespace {

constexpr double kEps = 1e-9;

using PackProblem = GreedyScheduler::PackProblem;

/// Placed-matrix sentinel: the job has no piece in the bin yet (its
/// executable cost is still owed). Amounts placed are never below -kEps, so
/// a cell holds this exact value only until the job's first placement.
constexpr Kilobytes kNoPiece = -1.0;

/// Working state of one bin (phone) during a packing attempt.
struct Bin {
  bool open = false;
  Millis height = 0.0;
  /// Jobs with a piece here, in first-placement order. Their merged KB
  /// lives in the packer's placed matrix and is read back when the plan is
  /// built, so placing a piece needs no per-(bin, job) map.
  std::vector<std::uint32_t> jobs;
};

/// Entry of the sorted item list L: a job with some input remaining. L is
/// ordered by decreasing sort key, ties by lower job index.
struct ItemKey {
  double sort_key = 0.0;  // remaining * c_sj, kept current on re-insertion
  std::uint32_t job_index = 0;

  bool operator<(const ItemKey& other) const {
    if (sort_key != other.sort_key) return sort_key > other.sort_key;
    return job_index < other.job_index;
  }
};

/// How much of a job fits into `bin` (additional KB), and at what cost.
struct Fit {
  bool fits = false;
  Kilobytes amount = 0.0;  // additional input KB that can be packed
  Millis cost = 0.0;       // height increase for packing `amount`
};

/// `placed_kb` is the KB of this job already in the bin, or a negative
/// sentinel when the job has no piece there yet (the executable cost is
/// still owed). Passed in from the packer's flat placed matrix so the hot
/// path does no hash lookups.
Fit compute_fit(const PackProblem& p, Millis capacity, Kilobytes min_partition,
                std::uint32_t job_index, Kilobytes remaining, std::size_t phone_index,
                Millis bin_height, Kilobytes placed_kb) {
  const JobSpec& job = (*p.jobs)[job_index];
  const PhoneSpec& phone = (*p.phones)[phone_index];
  const MsPerKb c_ij = p.c(job_index, phone_index);
  const bool has_piece = placed_kb >= 0.0;
  // One-time cost owed on the first placement of this job in this bin: the
  // executable ship minus any cached-bytes credit (first_ms; negative when
  // the phone holds input chunks). Without a bound LocalityProvider the
  // matrix is empty and this is exactly the old exec_kb * b_i.
  const Millis first =
      has_piece ? 0.0
                : (p.first_ms.empty() ? job.exec_kb * phone.b
                                      : p.first_ms[job_index * p.phones->size() + phone_index]);
  const Millis available = capacity - bin_height;
  const Kilobytes existing_kb = has_piece ? placed_kb : 0.0;
  const Kilobytes ram_room = phone.ram_kb - existing_kb;

  Fit fit;
  if (available - first < -kEps || ram_room <= kEps) return fit;
  const double per_kb = phone.b + c_ij;
  // Placement cost is max(amount * c_ij, first + amount * per_kb): the
  // credit discounts transfer, never compute, so a bin's height still only
  // grows (the memo/open-order invariants depend on that). Both linear
  // pieces must fit under the remaining capacity.
  Kilobytes max_by_time = std::numeric_limits<double>::infinity();
  if (c_ij > 0.0) max_by_time = std::min(max_by_time, available / c_ij);
  if (per_kb > 0.0) max_by_time = std::min(max_by_time, (available - first) / per_kb);
  const Kilobytes max_amount = std::min({remaining, max_by_time, ram_room});

  if (job.kind == JobKind::kAtomic) {
    // Atomic jobs must be placed whole (and never merge: they are packed
    // exactly once).
    if (max_amount + kEps * (1.0 + remaining) < remaining) return fit;
    fit.fits = true;
    fit.amount = remaining;
  } else {
    const Kilobytes needed = std::min(remaining, min_partition);
    if (max_amount + kEps < needed) return fit;
    fit.fits = true;
    fit.amount = std::min(remaining, max_amount);
  }
  fit.cost = std::max(fit.amount * c_ij, first + fit.amount * per_kb);
  return fit;
}

}  // namespace

GreedyScheduler::PackProblem GreedyScheduler::prepare(const std::vector<JobSpec>& jobs,
                                                      const std::vector<PhoneSpec>& phones,
                                                      const PredictionModel& prediction,
                                                      const InitialLoad& initial_load) const {
  PackProblem p;
  p.jobs = &jobs;
  p.phones = &phones;

  // The c_ij matrix. predict() is a string-keyed map lookup — the expensive
  // part of a packing attempt — so issue it once per *task* (jobs of the
  // same task share a row) and copy rows per job: one task lookup per job.
  p.cost.resize(jobs.size() * phones.size());
  std::map<std::string, std::vector<MsPerKb>> task_rows;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto [it, inserted] = task_rows.try_emplace(jobs[j].task_name);
    std::vector<MsPerKb>& row = it->second;
    if (inserted) {
      row.resize(phones.size());
      for (std::size_t i = 0; i < phones.size(); ++i) {
        row[i] = prediction.predict(jobs[j].task_name, phones[i]);
      }
    }
    std::copy(row.begin(), row.end(),
              p.cost.begin() + static_cast<std::ptrdiff_t>(j * phones.size()));
  }

  // Cached-bytes credit (locality.h): first-placement cost per (job, phone)
  // = exec ship minus cached KB, clamped to the job's total bytes. Negative
  // values mean cached *input* chunks subsidize the first partition placed
  // there. Locality-blind builds skip the allocation entirely.
  if (locality_ != nullptr) {
    p.first_ms.resize(jobs.size() * phones.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t i = 0; i < phones.size(); ++i) {
        const Kilobytes credit =
            std::min(std::max(0.0, locality_->cached_kb(jobs[j].id, phones[i].id)),
                     jobs[j].exec_kb + jobs[j].input_kb);
        p.first_ms[j * phones.size() + i] = (jobs[j].exec_kb - credit) * phones[i].b;
      }
    }
  }

  if (!phones.empty()) {
    p.slowest = static_cast<std::size_t>(
        std::min_element(phones.begin(), phones.end(),
                         [](const PhoneSpec& a, const PhoneSpec& b) {
                           return a.cpu_mhz < b.cpu_mhz;
                         }) -
        phones.begin());
  }

  p.initial_height.assign(phones.size(), 0.0);
  for (std::size_t i = 0; i < phones.size(); ++i) {
    if (const auto it = initial_load.find(phones[i].id); it != initial_load.end()) {
      p.initial_height[i] = it->second;
    }
  }

  // Items sorted by decreasing slowest-phone execution time R_j * c_sj
  // (ties: lower index), each key computed once and sorted beside its index.
  std::vector<std::pair<double, std::uint32_t>> keyed(jobs.size());
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    keyed[j] = {jobs[j].input_kb * p.c(j, p.slowest), j};
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  p.order.resize(jobs.size());
  for (std::size_t k = 0; k < keyed.size(); ++k) p.order[k] = keyed[k].second;

  // Both capacity bounds from the shared matrix in one sweep — the former
  // capacity_bounds re-predicted every (job, phone) pair twice over.
  // UB: all items in the single worst bin (on top of its existing load).
  // LB: a magical bin with the aggregate processing+bandwidth capability of
  // all phones and no executable cost (the paper's loose initial bound).
  std::vector<Millis> bin_total = p.initial_height;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    double aggregate_rate = 0.0;  // KB per ms across all phones
    for (std::size_t i = 0; i < phones.size(); ++i) {
      const double per_kb = phones[i].b + p.c(j, i);
      bin_total[i] += jobs[j].exec_kb * phones[i].b + jobs[j].input_kb * per_kb;
      // A phone holding input chunks of this job (negative first-placement
      // cost) may transfer part of it for free, so the magical bin must
      // assume bandwidth-free service there to stay a valid lower bound.
      const double per_kb_lb = (!p.first_ms.empty() && p.first_ms[j * phones.size() + i] < 0.0)
                                   ? p.c(j, i)
                                   : per_kb;
      if (per_kb_lb > 0.0) aggregate_rate += 1.0 / per_kb_lb;
    }
    if (aggregate_rate > 0.0) p.lb += jobs[j].input_kb / aggregate_rate;
  }
  for (const Millis total : bin_total) p.ub = std::max(p.ub, total);
  return p;
}

std::pair<Millis, Millis> GreedyScheduler::capacity_bounds(
    const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
    const PredictionModel& prediction, const InitialLoad& initial_load) const {
  const PackProblem problem = prepare(jobs, phones, prediction, initial_load);
  return {problem.lb, problem.ub};
}

std::optional<Schedule> GreedyScheduler::pack_attempt(const PackProblem& problem,
                                                      Millis capacity,
                                                      PartialPack* partial) const {
  obs::counter("scheduler.pack_attempts").inc();
  // Chaos hook: a delay here models a scheduler hiccup (GC pause, CPU
  // contention) without changing the packing result. Only kDelay is
  // honored — the scheduler is a pure function; there is nothing to drop.
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kSchedulerPack);
      action.kind == fault::FaultAction::Kind::kDelay) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(action.delay_ms));
  }
  // Every packing attempt funnels through here — warm starts, defensive UB
  // growth and bisection (pod packing calls it from worker threads; the
  // recorder is thread-safe). One trace event per attempt shows how the
  // capacity search converged.
  struct ProbeTrace {
    Millis capacity;
    bool feasible = false;
    ~ProbeTrace() {
      if (!obs::trace_enabled()) return;
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kCapacityProbe;
      event.t = obs::trace_now();
      event.value = capacity;
      if (feasible) event.flags = obs::TraceEvent::kProbeFeasible;
      obs::trace_record(event);
    }
  } probe{capacity};
  const std::vector<JobSpec>& jobs = *problem.jobs;
  const std::vector<PhoneSpec>& phones = *problem.phones;
  const Kilobytes min_partition = options_.min_partition_kb;

  // L as a vector in *reverse* order: its front item is items.back(), so
  // taking it is a pop, the "first item that fits" walk reads contiguous
  // memory from the back, and a remainder (smaller key) is re-inserted by
  // binary search. problem.order is already sorted by the same key.
  std::vector<Kilobytes> remaining(jobs.size());
  std::vector<ItemKey> items;
  items.reserve(jobs.size());
  for (auto it = problem.order.rbegin(); it != problem.order.rend(); ++it) {
    const std::uint32_t j = *it;
    remaining[j] = jobs[j].input_kb;
    items.push_back(ItemKey{jobs[j].input_kb * problem.c(j, problem.slowest), j});
  }
  const auto later_in_list = [](const ItemKey& a, const ItemKey& b) { return b < a; };

  std::vector<Bin> bins(phones.size());
  // Open bins sorted by ascending (height, index): "the opened bin of
  // minimum height that fits" is then simply the *first* fit in this order,
  // so the common packing round computes one fit instead of |bins|.
  std::vector<std::uint32_t> open_order;
  open_order.reserve(phones.size());
  const auto bin_before = [&bins](std::uint32_t a, std::uint32_t b) {
    if (bins[a].height != bins[b].height) return bins[a].height < bins[b].height;
    return a < b;
  };
  const auto open_insert = [&](std::uint32_t b) {
    open_order.insert(std::lower_bound(open_order.begin(), open_order.end(), b, bin_before), b);
  };
  for (std::size_t i = 0; i < phones.size(); ++i) {
    // A phone still working off earlier assignments starts loaded and is
    // already "open" (it is in active use; no partition-count penalty for
    // continuing to use it).
    bins[i].height = problem.initial_height[i];
    bins[i].open = bins[i].height > 0.0;
    if (bins[i].open) open_insert(static_cast<std::uint32_t>(i));
  }

  // No-fit memo: once an item fails to fit a bin, no later *bin* change can
  // make it fit — heights only grow (shrinking the time budget), RAM room
  // for the item is untouched by other jobs' pieces, and the executable-
  // cost discount only appears when this very item was packed there, which
  // bumps the item's version. So a failed (item, bin) pair stays failed
  // until the item's remaining size changes, and the memo is stamped with
  // the item version alone. This turns the repeated deep "does anything
  // fit?" scans (the dominant cost: most rounds re-examine pairs that
  // cannot have changed) into single loads.
  std::vector<std::uint32_t> item_version(jobs.size(), 1);
  std::vector<std::uint32_t> no_fit(jobs.size() * bins.size(), 0);
  // Item-level watermark on top of the pair memo: an item that failed
  // against *every* open bin can only fit once a new bin opens (epoch
  // bumps) or the item itself changes (version bumps), so the deep
  // "nothing fits anywhere" rescans collapse to one load per item.
  std::uint32_t opened_epoch = 1;
  std::vector<std::uint32_t> all_fail_version(jobs.size(), 0);
  std::vector<std::uint32_t> all_fail_epoch(jobs.size(), 0);
  // KB of job j already placed in bin b, or kNoPiece: a flat array, so the
  // fit hot path is pure arithmetic on contiguous memory.
  std::vector<Kilobytes> placed(jobs.size() * bins.size(), kNoPiece);

  while (!items.empty()) {
    // Line 4: first item in L that fits in any opened bin; line 6: among
    // fitting opened bins, the one with minimum height (first in
    // open_order).
    std::size_t chosen_item = items.size();  // index into items; size() = none
    std::size_t chosen_bin = bins.size();
    Fit chosen_fit;
    for (std::size_t k = items.size(); k-- > 0 && chosen_item == items.size();) {
      const std::uint32_t ji = items[k].job_index;
      const std::uint32_t stamp = item_version[ji];
      if (all_fail_version[ji] == stamp && all_fail_epoch[ji] == opened_epoch) continue;
      std::uint32_t* memo_row = no_fit.data() + ji * bins.size();
      const Kilobytes* placed_row = placed.data() + ji * bins.size();
      for (const std::uint32_t b : open_order) {
        if (memo_row[b] == stamp) continue;  // known not to fit, item unchanged
        const Fit fit = compute_fit(problem, capacity, min_partition, ji, remaining[ji], b,
                                    bins[b].height, placed_row[b]);
        if (fit.fits) {
          chosen_item = k;
          chosen_bin = b;
          chosen_fit = fit;
          break;
        }
        memo_row[b] = stamp;
      }
      if (chosen_item == items.size()) {
        all_fail_version[ji] = stamp;
        all_fail_epoch[ji] = opened_epoch;
      }
    }

    if (chosen_item == items.size()) {
      // Line 13-16: nothing fits; open the best unopened bin for the
      // largest (first) item — the bin packing it with minimum height
      // increase, i.e. minimum Equation-1 cost.
      const std::uint32_t largest = items.back().job_index;
      Millis best_cost = std::numeric_limits<Millis>::infinity();
      std::size_t best_bin = bins.size();
      Fit best_fit;
      for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b].open) continue;
        const Fit fit = compute_fit(problem, capacity, min_partition, largest,
                                    remaining[largest], b, bins[b].height,
                                    placed[largest * bins.size() + b]);
        if (fit.fits && fit.cost < best_cost) {
          best_cost = fit.cost;
          best_bin = b;
          best_fit = fit;
        }
      }
      if (best_bin == bins.size()) {  // line 23-24
        if (partial != nullptr) {
          // Best-effort mode: shelve the largest item's remainder for the
          // caller to re-home and keep packing the rest.
          partial->leftovers.push_back({largest, remaining[largest]});
          items.pop_back();
          continue;
        }
        obs::counter("scheduler.pack_failures").inc();
        return std::nullopt;
      }
      bins[best_bin].open = true;
      open_insert(static_cast<std::uint32_t>(best_bin));
      ++opened_epoch;  // invalidates the items' fails-everywhere watermarks
      chosen_item = items.size() - 1;
      chosen_bin = best_bin;
      chosen_fit = best_fit;
    }

    const std::uint32_t j = items[chosen_item].job_index;
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(chosen_item));
    if (!chosen_fit.fits || chosen_fit.amount <= 0.0) {
      // Zero-size jobs (exec only) pack with amount 0; anything else here
      // means the capacity is infeasible.
      if (!(chosen_fit.fits && remaining[j] <= kEps)) {
        if (partial != nullptr) {
          partial->leftovers.push_back({j, remaining[j]});
          continue;
        }
        obs::counter("scheduler.pack_failures").inc();
        return std::nullopt;
      }
    }

    // Pack, merging with an existing piece of the same job (the executable
    // ships once per phone).
    Bin& bin = bins[chosen_bin];
    Kilobytes& placed_kb = placed[j * bins.size() + chosen_bin];
    if (placed_kb == kNoPiece) {
      bin.jobs.push_back(j);
      placed_kb = chosen_fit.amount;
    } else {
      placed_kb += chosen_fit.amount;
    }
    if (chosen_fit.cost > 0.0) {
      // Re-sort the grown bin into the open order (heights only grow).
      const auto pos = std::lower_bound(open_order.begin(), open_order.end(),
                                        static_cast<std::uint32_t>(chosen_bin), bin_before);
      open_order.erase(std::find(pos, open_order.end(), static_cast<std::uint32_t>(chosen_bin)));
      bin.height += chosen_fit.cost;
      open_insert(static_cast<std::uint32_t>(chosen_bin));
    }

    ++item_version[j];
    remaining[j] -= chosen_fit.amount;
    if (remaining[j] > kEps * (1.0 + jobs[j].input_kb)) {
      // Lines 10-11: re-insert the remainder and keep L sorted.
      const ItemKey key{remaining[j] * problem.c(j, problem.slowest), j};
      items.insert(std::lower_bound(items.begin(), items.end(), key, later_in_list), key);
    }
  }

  probe.feasible = partial == nullptr || partial->leftovers.empty();
  Schedule schedule;
  schedule.plans.resize(phones.size());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    PhonePlan& plan = schedule.plans[b];
    plan.phone = phones[b].id;
    plan.pieces.reserve(bins[b].jobs.size());
    for (const std::uint32_t job : bins[b].jobs) {
      plan.pieces.push_back({jobs[job].id, placed[job * bins.size() + b]});
    }
  }
  if (partial != nullptr) {
    partial->heights.resize(bins.size());
    for (std::size_t b = 0; b < bins.size(); ++b) partial->heights[b] = bins[b].height;
    partial->placed = std::move(placed);
  }
  return schedule;
}

std::optional<Schedule> GreedyScheduler::pack_with_capacity(const PackProblem& problem,
                                                            Millis capacity) const {
  return pack_attempt(problem, capacity, nullptr);
}

GreedyScheduler::PartialPack GreedyScheduler::pack_partial(const PackProblem& problem,
                                                           Millis capacity) const {
  PartialPack partial;
  auto schedule = pack_attempt(problem, capacity, &partial);
  partial.schedule = std::move(*schedule);  // best-effort mode never fails
  return partial;
}

std::optional<Schedule> GreedyScheduler::pack_with_capacity(
    const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
    const PredictionModel& prediction, Millis capacity,
    const InitialLoad& initial_load) const {
  const PackProblem problem = prepare(jobs, phones, prediction, initial_load);
  return pack_with_capacity(problem, capacity);
}

Schedule GreedyScheduler::build(const std::vector<JobSpec>& jobs,
                                const std::vector<PhoneSpec>& phones,
                                const PredictionModel& prediction,
                                const InitialLoad& initial_load) const {
  return build_with_hint(jobs, phones, prediction, initial_load, std::nullopt);
}

Schedule GreedyScheduler::build_with_hint(const std::vector<JobSpec>& jobs,
                                          const std::vector<PhoneSpec>& phones,
                                          const PredictionModel& prediction,
                                          const InitialLoad& initial_load,
                                          std::optional<Millis> capacity_hint) const {
  if (phones.empty()) throw std::invalid_argument("GreedyScheduler: no phones");

  obs::counter("scheduler.builds").inc();
  obs::ScopedTimer build_timer(obs::histogram("scheduler.build_ms", 0.0, 250.0, 25));

  const PackProblem problem = prepare(jobs, phones, prediction, initial_load);
  Millis lb = problem.lb;
  Millis ub = problem.ub;
  std::optional<Schedule> best;

  // Warm start: the previous scheduling instant's achieved capacity usually
  // brackets the new optimum tightly. A feasible hint becomes the upper
  // bound, and one downward probe narrows the bracket to
  // [hint * shrink, hint]; an infeasible hint still raises the lower bound
  // (pack feasibility is treated as monotone in capacity, exactly as the
  // bisection itself assumes) and the search falls back to the cold UB.
  if (capacity_hint && *capacity_hint > 0.0 && *capacity_hint < ub) {
    if (auto packed = pack_with_capacity(problem, *capacity_hint)) {
      obs::counter("scheduler.warm_start_hits").inc();
      best = std::move(packed);
      ub = *capacity_hint;
      const Millis low = std::max(lb, *capacity_hint * options_.warm_start_shrink);
      if (low < ub) {
        if (auto tighter = pack_with_capacity(problem, low)) {
          best = std::move(tighter);
          ub = low;
        } else {
          lb = low;
        }
      }
    } else {
      obs::counter("scheduler.warm_start_misses").inc();
      lb = std::max(lb, *capacity_hint);
    }
  }

  if (!best) {
    best = pack_with_capacity(problem, ub);
    // UB should always be feasible (every item fits alone in any bin at UB);
    // grow defensively if numerical corner cases disagree.
    for (int attempt = 0; attempt < 8 && !best; ++attempt) {
      ub *= 2.0;
      best = pack_with_capacity(problem, ub);
    }
    if (!best) throw std::runtime_error("GreedyScheduler: no feasible packing found");
  }

  std::size_t bisections = 0;
  for (std::size_t iter = 0;
       iter < options_.max_bisections && (ub - lb) > options_.capacity_tolerance * ub; ++iter) {
    const Millis mid = (lb + ub) / 2.0;
    if (auto packed = pack_with_capacity(problem, mid)) {
      best = std::move(packed);
      ub = mid;
    } else {
      lb = mid;
    }
    bisections = iter + 1;
  }

  // Convergence telemetry: how hard the binary search worked and how wide
  // the capacity bracket was when it stopped.
  obs::counter("scheduler.bisections").inc(static_cast<double>(bisections));
  obs::gauge("scheduler.last_bisections").set(static_cast<double>(bisections));
  obs::gauge("scheduler.last_capacity_gap").set(ub > 0.0 ? (ub - lb) / ub : 0.0);
  // Fig. 12(b)'s partition count: the pieces of every job split over two
  // or more phones (a job assigned whole counts 0).
  const JobLookup job_by_id(jobs);
  std::vector<std::uint32_t> pieces_of(jobs.size(), 0);
  for (const PhonePlan& plan : best->plans) {
    for (const JobPiece& piece : plan.pieces) ++pieces_of[*job_by_id.find(piece.job)];
  }
  std::size_t partitions = 0;
  for (const std::uint32_t pieces : pieces_of) partitions += pieces >= 2 ? pieces : 0;
  obs::counter("scheduler.partitions_created").inc(static_cast<double>(partitions));

  annotate_costs(*best, jobs, phones, prediction);
  return *best;
}

}  // namespace cwc::core
