// Streaming (work-conserving) dispatch policy: FIFO placement of queued
// SYRK jobs onto the free rank intervals of one world, sdpb-style.
//
// sdpb precomputes a Blas_Job_Schedule that maps many block SYRKs onto the
// available ranks instead of serializing whole-pool runs; plan_stream_step
// is the analogous step here, taken every time the service's executor
// wakes up. Given the FIFO queue of admitted jobs — each already priced by
// the planner's modeled αβγ cost — and the ranks no in-flight job holds,
// it picks the queue prefix to launch right now:
//
//   - placement is contiguous: a job occupies ranks [base, base + P) inside
//     one free interval, so every job sees the same rank-relative structure
//     it would see running solo;
//   - strictly FIFO: placement stops at the first job that does not fit (no
//     skipping ahead), so dispatch order is submission order;
//   - admission-bounded: in-flight plus newly placed modeled seconds may
//     not exceed the budget, so one huge request cannot ride along and
//     starve the queue behind it — except that the queue head always
//     dispatches onto an idle world, so nothing starves forever;
//   - solo jobs (folded plans, whose accounting needs a dedicated world)
//     are never placed; the caller quiesces the stream and runs them alone.
//
// plan_stream_step is pure (no service state, no clocks) so the dispatch
// policy is unit-testable without running a single job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parsyrk::service {

/// Admission limits on the work in flight at once. Defaults are sized for
/// small/medium jobs on the modeled machine (alpha = 1us): ~50ms of modeled
/// work in flight admits dozens of small SYRKs but only a couple of medium
/// ones.
struct AdmissionLimits {
  /// Summed modeled seconds in flight (queue head exempt on an idle world).
  double modeled_seconds_per_round = 0.05;
  /// Cap on jobs in flight regardless of modeled cost (1 = one at a time).
  std::size_t max_jobs_per_round = 16;
};

/// One queued job as the dispatcher sees it.
struct JobSpec {
  /// World ranks the job's plan occupies (plan.logical_ranks()).
  std::uint64_t ranks = 0;
  /// Planner-modeled runtime (core::plan_modeled_seconds).
  double modeled_seconds = 0.0;
  /// Must run alone on the session (folded plans).
  bool solo = false;
};

/// One dispatched job's slot: queue index and first world rank.
struct Placement {
  std::size_t job = 0;  // index into the queue plan_stream_step was given
  int base_rank = 0;
};

/// One maximal run of currently-free consecutive world ranks.
struct RankInterval {
  int base = 0;
  int extent = 0;
};

/// Picks the FIFO prefix of `queue` to dispatch right now onto the free
/// intervals. Strictly FIFO (stops at the first job that does not fit — a
/// later job never overtakes), first-fit leftmost within the free
/// intervals, admission-bounded: in-flight modeled seconds plus the newly
/// placed sum may not exceed the budget, and in-flight plus placed jobs may
/// not exceed the job cap. When nothing is in flight the queue head is
/// exempt from the cost budget (the no-starvation rule), and an oversized
/// head does not consume follower budget. Solo jobs are never placed (the
/// caller quiesces the stream and runs them alone). Placement base ranks
/// refer to world ranks; `job` indexes into `queue`.
std::vector<Placement> plan_stream_step(const std::vector<JobSpec>& queue,
                                        const std::vector<RankInterval>& free,
                                        double inflight_modeled_seconds,
                                        std::size_t inflight_jobs,
                                        const AdmissionLimits& limits);

}  // namespace parsyrk::service
