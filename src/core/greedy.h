// CWC's greedy makespan scheduler (Section 5, Algorithm 1).
//
// The SCH quadratic integer program generalizes unrelated-machines minimum
// makespan scheduling and is NP-hard, so CWC solves the *complementary bin
// packing problem* (CBP): pack the jobs into at most |P| bins of capacity C
// such that all fit, and binary-search the minimum feasible C. Rotating the
// bins 90 degrees turns bin height into phone completion time, so the
// minimum feasible capacity is the (approximate) minimum makespan.
//
// Greedy packing rules, as in the paper:
//   - items are kept sorted by decreasing remaining execution time on the
//     slowest phone (R_j * c_sj);
//   - pack the first item that fits in any *opened* bin, into the opened
//     bin of minimum height; pack it whole when possible, otherwise its
//     largest fitting partition (fewer partitions = less server-side
//     aggregation);
//   - when nothing fits, open the bin that can take the largest item with
//     the minimum increase in height (minimum Equation-1 cost);
//   - fail if items remain and no bin can be opened.
//
// Extensions implemented here from the paper's footnotes: partitions
// respect each phone's RAM (l_ij <= r_i), and a job's executable is shipped
// to a phone at most once even when several of its partitions land there.
//
// Hot-path structure: everything a packing attempt needs that does not
// depend on the trial capacity — above all the c_ij prediction matrix,
// whose PredictionModel::predict calls (string-keyed map lookups) dominate
// a naive implementation — is hoisted into a PackProblem built once per
// build() and shared read-only by every bisection attempt.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace cwc::core {

class GreedyScheduler final : public Scheduler {
 public:
  struct Options {
    /// Relative capacity gap at which the binary search stops.
    double capacity_tolerance = 1e-3;
    std::size_t max_bisections = 48;
    /// Smallest breakable partition worth shipping (KB). Prevents the
    /// packer from filling bins with unboundedly small slivers.
    Kilobytes min_partition_kb = 1.0;
    /// Warm start: when a capacity hint packs, one downward probe at
    /// hint * warm_start_shrink tightens the bracket to [shrunk, hint] so
    /// steady-state reschedules converge in a handful of bisections.
    double warm_start_shrink = 0.9;
  };

  GreedyScheduler() : options_(Options{}) {}
  explicit GreedyScheduler(Options options) : options_(options) {}

  /// The capacity-independent view of one scheduling instance, built once
  /// per build() and shared (read-only) across all packing attempts and the
  /// capacity bounds: the c_ij matrix, the slowest phone, the items'
  /// initial packing order, per-phone starting heights from the initial
  /// load, and the binary search's initial bounds. Holds pointers into the
  /// caller's vectors: `jobs` and `phones` must outlive the problem.
  struct PackProblem {
    const std::vector<JobSpec>* jobs = nullptr;
    const std::vector<PhoneSpec>* phones = nullptr;
    /// Row-major c_ij: cost[job * phones->size() + phone].
    std::vector<MsPerKb> cost;
    /// Index of the slowest phone (sort keys are R_j * c_sj).
    std::size_t slowest = 0;
    /// Starting height per bin (0 for unloaded phones); loaded bins start
    /// open.
    std::vector<Millis> initial_height;
    /// Job indices sorted by decreasing sort key (ties: lower index first).
    std::vector<std::uint32_t> order;
    /// Binary search bounds: ub = every item in the single worst bin (plus
    /// its initial load); lb = one "magical" bin with the aggregate
    /// bandwidth and processing capability of all phones and no executable
    /// cost.
    Millis lb = 0.0;
    Millis ub = 0.0;
    /// Row-major one-time first-placement cost (ms) per (job, phone):
    /// exec_kb * b_i minus the bound LocalityProvider's cached-bytes credit
    /// (so it goes *negative* when a phone holds input chunks — input
    /// locality then out-competes otherwise-equal phones). Empty when no
    /// provider is bound; the packer falls back to exec_kb * b_i, keeping
    /// the locality-blind fast path allocation-free and byte-identical.
    std::vector<Millis> first_ms;

    MsPerKb c(std::size_t job, std::size_t phone) const {
      return cost[job * phones->size() + phone];
    }
  };

  const char* name() const override { return "cwc-greedy"; }
  Schedule build(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                 const PredictionModel& prediction,
                 const InitialLoad& initial_load = {}) const override;
  Schedule build_with_hint(const std::vector<JobSpec>& jobs,
                           const std::vector<PhoneSpec>& phones,
                           const PredictionModel& prediction, const InitialLoad& initial_load,
                           std::optional<Millis> capacity_hint) const override;

  /// Cached-bytes credit: prepare() folds the provider into first_ms (see
  /// PackProblem), generalizing the executable discount. Null restores the
  /// locality-blind behaviour.
  void bind_locality(const LocalityProvider* locality) override { locality_ = locality; }

  /// Builds the shared problem: one O(tasks x phones) predict sweep (rows
  /// are shared by jobs of the same task), the item order, and both
  /// capacity bounds in a single pass over the matrix.
  PackProblem prepare(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                      const PredictionModel& prediction,
                      const InitialLoad& initial_load = {}) const;

  /// One packing attempt at a fixed capacity (Algorithm 1 proper); nullopt
  /// when the capacity is infeasible. Exposed for tests and benches. Bins
  /// start at their initial load (and count as opened when loaded).
  /// Thread-safe: only reads the problem.
  std::optional<Schedule> pack_with_capacity(const PackProblem& problem, Millis capacity) const;

  /// An item (or remainder) that fit nowhere at the attempted capacity.
  struct Leftover {
    std::uint32_t job_index = 0;   ///< index into the problem's jobs vector
    Kilobytes remaining_kb = 0.0;  ///< unplaced input (atomic: the whole job)
  };

  /// Result of a best-effort packing attempt (see pack_partial).
  struct PartialPack {
    Schedule schedule;             ///< plans in phone order, not annotated
    std::vector<Millis> heights;   ///< final bin height per phone (incl. initial load)
    /// Flat jobs x phones matrix of placed KB; negative sentinel = the job
    /// has no piece on that phone (its executable cost is still owed).
    std::vector<Kilobytes> placed;
    std::vector<Leftover> leftovers;
    bool complete() const { return leftovers.empty(); }
  };

  /// Best-effort variant of pack_with_capacity for hierarchical packers:
  /// instead of failing when an item fits nowhere and no bin can open, the
  /// item's remainder is moved to `leftovers` and packing continues, so a
  /// caller can re-home the leftovers elsewhere (cross-pod rebalancing).
  /// Identical placement decisions to pack_with_capacity when the capacity
  /// is feasible. Thread-safe: only reads the problem.
  PartialPack pack_partial(const PackProblem& problem, Millis capacity) const;

  /// Convenience overload that prepares a fresh problem first. Prefer the
  /// PackProblem overload when packing the same instance repeatedly.
  std::optional<Schedule> pack_with_capacity(const std::vector<JobSpec>& jobs,
                                             const std::vector<PhoneSpec>& phones,
                                             const PredictionModel& prediction,
                                             Millis capacity,
                                             const InitialLoad& initial_load = {}) const;

  /// The binary search's initial bounds (see PackProblem::lb/ub); prepares
  /// a fresh problem internally.
  std::pair<Millis, Millis> capacity_bounds(const std::vector<JobSpec>& jobs,
                                            const std::vector<PhoneSpec>& phones,
                                            const PredictionModel& prediction,
                                            const InitialLoad& initial_load = {}) const;

 private:
  /// Shared core of pack_with_capacity / pack_partial. With `partial` null
  /// the attempt fails fast (nullopt) the moment an item cannot be placed;
  /// with `partial` set it never fails: unplaceable remainders are recorded
  /// as leftovers and the bin state is exported through `partial`.
  std::optional<Schedule> pack_attempt(const PackProblem& problem, Millis capacity,
                                       PartialPack* partial) const;

  Options options_;
  const LocalityProvider* locality_ = nullptr;  ///< not owned; may be null
};

}  // namespace cwc::core
