// Hierarchical pod packing — scaling Algorithm 1 past the flat packer's
// superlinear wall (ROADMAP: the 10k-100k-phone fleet).
//
// The flat greedy packer re-examines every (item, bin) pair per packing
// attempt, so its cost grows superlinearly with the fleet (BENCH: 128/1024
// in ~52 ms, 512/2048 in ~2.2 s). This module decomposes the fleet into
// *pods* — groups of phones homogeneous in declared zone, link class
// (bucketed b_i), and live health band — and runs the capacity search over
// per-pod summaries instead of the whole fleet:
//
//   1. Partition. Quarantined phones (per the bound HealthProvider) are
//      dropped; the rest are sorted by (zone, link class, health band) and
//      sliced into P contiguous pods.
//   2. Job shares. Each breakable job is LPT-assigned whole to the pod
//      where it finishes earliest (keeping per-pod instances jobs/P-sized);
//      a job too large for any single pod is split across pods proportional
//      to their aggregate service rate. Atomic jobs follow classic LPT over
//      individual phones (RAM-feasible ones) and land in that phone's pod.
//   3. Per-pod summaries. Each pod's PackProblem is prepared concurrently;
//      its combinatorial lower bound is tightened with the LP relaxation
//      (src/lp simplex) when the pod is small enough to solve cheaply.
//   4. Global bisection. One binary search over capacity C, bracketed by
//      max-of-pod bounds, so a pod whose LP bound exceeds C is never probed
//      (hopeless pods are pruned early). Each trial packs every pod at C
//      concurrently via GreedyScheduler::pack_partial.
//   5. Cross-pod rebalance. Leftover pieces from saturated pods are
//      re-homed onto minimum-height bins of pods with slack, still under C
//      and per-phone RAM, with the executable-cost discount preserved.
//
// Determinism: trial capacities and pod sub-instances are fixed before any
// worker thread runs, workers write only their own pod's slot, and every
// cross-pod decision (job shares, rebalance order, bin choice) is made on
// the main thread in index order — so two same-seed builds are
// byte-identical regardless of thread timing. The differential suite
// (tests/core/pod_packing_diff_test.cc) pins this packer against the flat
// reference on hundreds of seeded instances.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/scheduler.h"

namespace cwc::core {

class PodPackingScheduler final : public Scheduler {
 public:
  struct Options {
    /// Pod count; 0 = auto (one pod per auto_pod_phones schedulable
    /// phones, capped at max_pods). Values > the schedulable pool clamp.
    std::size_t pods = 0;
    std::size_t max_pods = 64;
    std::size_t auto_pod_phones = 128;
    /// Worker threads packing pods concurrently within one capacity trial
    /// (<= 1: sequential).
    std::size_t parallel_pods = 8;
    /// Relative capacity gap at which the global summary bisection stops.
    double capacity_tolerance = 1e-3;
    std::size_t max_bisections = 48;
    /// Warm start, as in GreedyScheduler: a feasible capacity hint becomes
    /// the upper bound and one shrunken probe tightens the bracket.
    double warm_start_shrink = 0.9;
    /// Per-pod LP lower bounds are solved only when the pod's jobs x
    /// phones cell count is at most this (the simplex tableau is dense;
    /// larger pods rely on the combinatorial bound alone). 0 disables the
    /// LP bounds entirely.
    std::size_t lp_bound_max_cells = 6144;
    /// Simplex pivot cap per pod bound; an unfinished solve just skips the
    /// pruning (a partial simplex value is not a valid bound).
    std::size_t lp_bound_max_iterations = 20000;
    /// A breakable job is split across pods (proportional to aggregate
    /// rate) instead of assigned whole when its best single-pod duration
    /// exceeds this fraction of the batch's ideal parallel time.
    double split_threshold = 0.5;
    /// Knobs of the per-pod packer (min_partition_kb etc.).
    GreedyScheduler::Options greedy;
  };

  /// How one build cuts the fleet and the batch (exposed for tests).
  struct PodLayout {
    /// Per pod: indices into the phones vector passed to build().
    std::vector<std::vector<std::size_t>> phone_indices;
    /// Per pod: its share of the batch. Job ids are preserved; a split job
    /// appears in several pods with its input divided among them.
    std::vector<std::vector<JobSpec>> job_shares;
    /// Phones excluded up front (quarantined per the bound HealthProvider).
    std::vector<std::size_t> excluded_phones;
  };

  /// Introspection of one build (exposed for tests and tools).
  struct Diagnostics {
    std::size_t pods = 0;
    Millis capacity = 0.0;  ///< achieved global capacity C*
    std::size_t bisections = 0;
    std::size_t rebalance_attempts = 0;  ///< trials that needed a rebalance pass
    std::size_t rebalanced_pieces = 0;   ///< re-homed pieces in the final schedule
    Kilobytes rebalanced_kb = 0.0;
    std::size_t lp_bounds_solved = 0;
    std::size_t lp_bounds_tightened = 0;  ///< pods where the LP beat the packing lb
    std::vector<Millis> pod_lower_bounds;  ///< per pod max(combinatorial, LP)
    std::vector<Millis> pod_makespans;     ///< per pod achieved height at C*
  };

  PodPackingScheduler() : PodPackingScheduler(Options{}) {}
  explicit PodPackingScheduler(Options options);

  const char* name() const override { return "cwc-pods"; }
  Schedule build(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                 const PredictionModel& prediction,
                 const InitialLoad& initial_load = {}) const override;
  Schedule build_with_hint(const std::vector<JobSpec>& jobs,
                           const std::vector<PhoneSpec>& phones,
                           const PredictionModel& prediction, const InitialLoad& initial_load,
                           std::optional<Millis> capacity_hint) const override;
  /// Quarantined phones (provider->schedulable false) are excluded from
  /// every pod; if *every* phone is quarantined the filter is waived (the
  /// controller's parole valve needs probe pieces to flow).
  void bind_health(const HealthProvider* health) override { health_ = health; }

  /// Locality flows three ways: into the inner per-pod packer (credit in
  /// each pod's PackProblem), into the atomic-job LPT routing (a warm phone
  /// wins the tie), and into the per-pod LP bounds (conservative credit so
  /// pruning stays valid).
  void bind_locality(const LocalityProvider* locality) override {
    locality_ = locality;
    inner_.bind_locality(locality);
  }

  /// The partition a build would use — pool filtering, pod keying, job
  /// shares — without packing anything. Exposed for the differential,
  /// property, and LP-bound suites.
  PodLayout layout(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                   const PredictionModel& prediction,
                   const InitialLoad& initial_load = {}) const;

  /// build_with_hint plus diagnostics (null `diag` is allowed).
  Schedule build_diagnosed(const std::vector<JobSpec>& jobs,
                           const std::vector<PhoneSpec>& phones,
                           const PredictionModel& prediction, const InitialLoad& initial_load,
                           std::optional<Millis> capacity_hint, Diagnostics* diag) const;

  /// Link-class bucket of a measured bandwidth cost (pod key component):
  /// 0 = clean WiFi ... 4 = EDGE and worse.
  static std::size_t link_class(MsPerKb b);

 private:
  /// layout() plus the internals packing needs: per-task c_ij rows over
  /// *all* phones (for cross-pod rebalance fits) and each pod share's
  /// global job index.
  PodLayout make_layout(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                        const PredictionModel& prediction, const InitialLoad& initial_load,
                        std::map<std::string, std::vector<MsPerKb>>* task_rows,
                        std::vector<std::vector<std::uint32_t>>* job_global) const;

  /// Flat fallback over the schedulable pool (single pod / empty batch),
  /// expanded back to one plan per input phone.
  Schedule delegate_flat(const std::vector<JobSpec>& jobs, const std::vector<PhoneSpec>& phones,
                         const PredictionModel& prediction, const InitialLoad& initial_load,
                         std::optional<Millis> capacity_hint,
                         const std::vector<std::size_t>& pool, Diagnostics* diag) const;

  Options options_;
  GreedyScheduler inner_;
  const HealthProvider* health_ = nullptr;
  const LocalityProvider* locality_ = nullptr;
};

}  // namespace cwc::core
