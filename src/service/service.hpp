// High-throughput SYRK service: an asynchronous, streaming front end over
// core::Session.
//
//   service::SyrkService svc({.procs = 12});
//   auto t1 = svc.submit(core::SyrkRequest(a).on_procs(3));
//   auto t2 = svc.submit(core::SyrkRequest(b).on_procs(6).with_trace());
//   const SyrkResult& r1 = t1.wait();          // blocks until executed
//
// Three cooperating pieces (docs/SERVICE.md has the full architecture):
//
//   - a PlanCache installed as the session's plan resolver, so repeated
//     shapes skip the PR 3 enumerator (hit/miss counters in stats());
//   - a streaming executor (plan_stream_step in scheduler.hpp) that
//     launches queued small/medium requests FIFO onto disjoint free rank
//     subsets of the session's world the moment ranks drain
//     (World::launch_ranks), while folded and topology'd jobs run solo;
//   - admission control bounding the modeled αβγ cost and the number of
//     jobs in flight, so a huge request cannot starve the small ones queued
//     behind it.
//
// Every accounting guarantee of the solo path survives streaming: a job
// launched at any base rank produces bitwise-identical result matrices,
// per-job ledger summaries (rank-range-restricted snapshot diffs), and
// per-job traces (rank-range extraction with rebasing) to the same request
// run solo on an equally sized session. test_scheduler_stream pins this
// down.
//
// Blocking use is submit+wait — SyrkService::syrk(req) is exactly that. The
// service runs core::syrk's steps: admission is its resolve step
// (core::internal::resolve_request, the one plan resolution per ticket);
// solo jobs run the admitted plan through core::internal::run_resolved, and
// streamed jobs take the same launch step (core::internal::launch_request)
// at their placement and end in the same collect step
// (core::internal::collect_run).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/session.hpp"
#include "service/plan_cache.hpp"
#include "service/scheduler.hpp"
#include "trace/audit.hpp"
#include "trace/timeline.hpp"

namespace parsyrk::service {

enum class TicketStatus {
  kQueued,   // submitted, not yet dispatched
  kRunning,  // dispatched, executing on its rank subset
  kDone,     // result available
  kFailed,   // wait()/try_get() rethrow the error
};

const char* ticket_status_name(TicketStatus s);

/// Wall-clock latency decomposition of one request, plus its modeled cost.
struct RequestLatency {
  double queue_seconds = 0.0;    // submit -> dispatch
  double service_seconds = 0.0;  // dispatch -> completion
  double total_seconds = 0.0;    // submit -> completion
  /// Planner-modeled runtime of the executed plan (admission currency).
  double modeled_seconds = 0.0;
};

/// What a ticket resolves to.
struct SyrkResult {
  core::SyrkRun run;
  /// Theorem-1 bound audit, present when the request asked with_audit().
  std::optional<trace::AuditReport> audit;
  RequestLatency latency;
  /// Whether another job was in flight on the world at any point of this
  /// job's flight (false for solo jobs).
  bool batched = false;
  /// First world rank of the job's subset (0 for solo).
  int base_rank = 0;
  /// 1-based completion sequence number across the service's lifetime,
  /// distinct per job. Dispatch is FIFO; completion is not (a short job
  /// launched after a straggler may finish first).
  std::uint64_t completion_seq = 0;
};

namespace detail {
struct TicketState;
}  // namespace detail

/// Future-like handle to a submitted request. Cheap to copy; all copies
/// observe the same state.
class SyrkTicket {
 public:
  SyrkTicket() = default;

  bool valid() const { return state_ != nullptr; }
  TicketStatus status() const;

  /// Blocks until the request completes; returns the result or rethrows
  /// the request's failure. Idempotent.
  const SyrkResult& wait();

  /// Non-blocking: the result if done, nullptr while queued/running.
  /// Rethrows if the request failed.
  const SyrkResult* try_get();

 private:
  friend class SyrkService;
  explicit SyrkTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

struct ServiceOptions {
  /// Worker (world) size of the service's session. Required.
  int procs = 0;
  /// What may be in flight at once. max_jobs_per_round = 1 runs one job
  /// at a time.
  AdmissionLimits admission;
  /// Plan-search options for planner-path requests (and the cache key).
  /// Services that want maximal concurrency typically disable folding —
  /// folded plans run solo.
  core::PlanSearchOptions plan_options;
  /// Worker pool to lease from (nullptr = the process-shared pool).
  comm::WorkerPool* pool = nullptr;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;  // jobs dispatched (streamed or solo)
  /// Completed jobs that shared the world with another in-flight job.
  std::uint64_t batched_jobs = 0;
  std::uint64_t solo_jobs = 0;
  /// Jobs rerun solo after a failing job poisoned the world under them.
  std::uint64_t retried_jobs = 0;
  /// Jobs executed with pipelined chunked collectives (with_pipeline).
  std::uint64_t pipelined_jobs = 0;
  /// Streamed jobs dispatched while at least one other job was mid-flight.
  std::uint64_t interleaved_jobs = 0;
  /// Work-conservation gap: summed idle rank-seconds between a rank
  /// becoming free (or the dispatched job being submitted, whichever is
  /// later) and its next streamed dispatch. Small values mean the
  /// scheduler is keeping freed ranks fed.
  double scheduler_gap_seconds = 0.0;
  double total_queue_seconds = 0.0;
  double total_service_seconds = 0.0;
  PlanCache::Stats plan_cache;
};

/// The concurrent SYRK front end. submit() is thread-safe; one internal
/// scheduler thread owns the session and dispatches jobs FIFO.
class SyrkService {
 public:
  explicit SyrkService(ServiceOptions options);
  /// Drains the queue (pending requests still execute), then stops.
  ~SyrkService();

  SyrkService(const SyrkService&) = delete;
  SyrkService& operator=(const SyrkService&) = delete;

  /// Enqueues one request and returns immediately. The request's matrix is
  /// referenced, not copied — it must stay alive until the ticket
  /// completes. Invalid requests (oversized plan, bad root, impossible
  /// memory limit) fail at execution: the error surfaces at wait().
  SyrkTicket submit(core::SyrkRequest request);

  /// Blocking call: submit + wait. The service-side spelling of
  /// core::syrk(session, request).
  SyrkResult syrk(core::SyrkRequest request);

  /// Blocks until every submitted request has completed or failed.
  void drain();

  /// Drains, then re-points the service at a session of `procs` workers.
  /// Cached plans are invalidated (PlanCache::bind_worker_count): fold
  /// factors enumerated for the old worker count are stale at the new one.
  void resize(int procs);

  int procs() const;
  ServiceStats stats() const;
  /// Per-rank busy/idle lanes of every dispatched job (wall-clock seconds
  /// since service construction). Copied out under the service lock.
  trace::ServiceTimeline timeline() const;
  PlanCache& plan_cache() { return cache_; }

  /// The underlying session. Only safe to touch when the queue is drained
  /// (the scheduler thread owns it while requests are in flight).
  core::Session& session() { return *session_; }

 private:
  struct StreamJob;

  /// The scheduler thread's body: dispatches FIFO jobs onto freed rank
  /// subsets via World::launch_ranks, reaping completions as they land.
  void streaming_loop(std::unique_lock<std::mutex>& lock);
  /// Finalizes one cleanly-completed streamed job: core::internal::
  /// collect_run over the job's rank range, then finish(). Runs on the
  /// scheduler thread without holding mu_.
  void finalize_stream_job(StreamJob& job);
  /// Resolves the ticket's plan and options (core::internal::
  /// resolve_request) and prices them against the current session.
  /// Returns false (ticket failed) when the request is invalid.
  bool admit(detail::TicketState& st);
  /// Runs one admitted job alone (core::internal::run_resolved): folded and
  /// topology'd jobs, and casualties of a poisoned stream (retry = true).
  void run_solo(const std::shared_ptr<detail::TicketState>& st, bool retry);
  void finish(const std::shared_ptr<detail::TicketState>& st,
              core::SyrkRun run, bool batched, int base_rank);
  void fail(const std::shared_ptr<detail::TicketState>& st,
            std::exception_ptr error);
  void install_cache_resolver();

  ServiceOptions options_;
  comm::WorkerPool* pool_;
  std::unique_ptr<core::Session> session_;
  PlanCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // scheduler wakeup
  std::condition_variable idle_cv_;  // drain() wakeup
  std::deque<std::shared_ptr<detail::TicketState>> queue_;
  bool work_in_flight_ = false;
  bool stop_ = false;
  ServiceStats stats_;
  std::uint64_t completion_seq_ = 0;
  /// Streamed jobs whose last rank returned, awaiting the scheduler
  /// thread's reap (raw pointers into streaming_loop's in-flight set; only
  /// the scheduler thread dereferences them).
  std::vector<StreamJob*> stream_completed_;
  trace::ServiceTimeline timeline_;
  std::chrono::steady_clock::time_point epoch_;

  std::thread scheduler_;  // last member: joins before the rest tears down
};

}  // namespace parsyrk::service
