#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace parsyrk::service {

namespace detail {

/// Shared state behind a SyrkTicket. The submitter writes request and
/// submitted_at; the scheduler thread owns everything else until the status
/// flips to kDone/kFailed under `mu`.
struct TicketState {
  explicit TicketState(core::SyrkRequest req) : request(std::move(req)) {}

  std::mutex mu;
  std::condition_variable cv;
  TicketStatus status = TicketStatus::kQueued;
  SyrkResult result;
  std::exception_ptr error;

  core::SyrkRequest request;
  std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point dispatched_at;

  // Admission-time resolution (scheduler thread only). Sticky: a ticket is
  // resolved and priced once, even if it waits several dispatch steps for
  // its turn, and it runs the plan it was priced at.
  bool admitted = false;
  core::internal::ResolvedRequest resolved;
  double modeled_seconds = 0.0;
};

}  // namespace detail

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* ticket_status_name(TicketStatus s) {
  switch (s) {
    case TicketStatus::kQueued: return "queued";
    case TicketStatus::kRunning: return "running";
    case TicketStatus::kDone: return "done";
    case TicketStatus::kFailed: return "failed";
  }
  return "?";
}

// ---- SyrkTicket ----

TicketStatus SyrkTicket::status() const {
  PARSYRK_REQUIRE(state_ != nullptr, "status() on an empty ticket");
  std::lock_guard lock(state_->mu);
  return state_->status;
}

const SyrkResult& SyrkTicket::wait() {
  PARSYRK_REQUIRE(state_ != nullptr, "wait() on an empty ticket");
  detail::TicketState& s = *state_;
  std::unique_lock lock(s.mu);
  s.cv.wait(lock, [&] {
    return s.status == TicketStatus::kDone || s.status == TicketStatus::kFailed;
  });
  if (s.status == TicketStatus::kFailed) std::rethrow_exception(s.error);
  return s.result;
}

const SyrkResult* SyrkTicket::try_get() {
  PARSYRK_REQUIRE(state_ != nullptr, "try_get() on an empty ticket");
  detail::TicketState& s = *state_;
  std::lock_guard lock(s.mu);
  if (s.status == TicketStatus::kFailed) std::rethrow_exception(s.error);
  return s.status == TicketStatus::kDone ? &s.result : nullptr;
}

// ---- SyrkService ----

SyrkService::SyrkService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &comm::WorkerPool::shared()) {
  PARSYRK_REQUIRE(options_.procs >= 1, "service needs at least one worker");
  session_ = std::make_unique<core::Session>(options_.procs, *pool_);
  cache_.bind_worker_count(options_.procs);
  install_cache_resolver();
  epoch_ = std::chrono::steady_clock::now();
  timeline_.set_ranks(options_.procs);
  scheduler_ = std::thread([this] {
    std::unique_lock lock(mu_);
    streaming_loop(lock);
  });
}

SyrkService::~SyrkService() {
  drain();
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  scheduler_.join();
}

void SyrkService::install_cache_resolver() {
  session_->set_plan_options(options_.plan_options);
  session_->set_plan_resolver(
      [this](std::uint64_t n1, std::uint64_t n2, std::uint64_t max_procs,
             const core::PlanSearchOptions& opts) {
        return cache_.resolve(n1, n2, max_procs, opts);
      });
}

SyrkTicket SyrkService::submit(core::SyrkRequest request) {
  PARSYRK_REQUIRE(request.a != nullptr, "request has no input matrix");
  auto st = std::make_shared<detail::TicketState>(std::move(request));
  st->submitted_at = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(mu_);
    PARSYRK_REQUIRE(!stop_, "submit() on a stopped service");
    queue_.push_back(st);
    ++stats_.submitted;
  }
  work_cv_.notify_one();
  return SyrkTicket(std::move(st));
}

SyrkResult SyrkService::syrk(core::SyrkRequest request) {
  return submit(std::move(request)).wait();
}

void SyrkService::drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && !work_in_flight_; });
}

void SyrkService::resize(int procs) {
  PARSYRK_REQUIRE(procs >= 1, "service needs at least one worker");
  std::unique_lock lock(mu_);
  // Wait out in-flight work: the scheduler only touches the session while
  // work is in flight or under this lock, so once idle the swap is safe.
  idle_cv_.wait(lock, [&] { return queue_.empty() && !work_in_flight_; });
  options_.procs = procs;
  session_ = std::make_unique<core::Session>(procs, *pool_);
  // Stale-fold guard: plans enumerated for the old worker count may fold
  // differently (or not at all) at the new one; rebinding drops them.
  cache_.bind_worker_count(procs);
  install_cache_resolver();
}

int SyrkService::procs() const {
  std::lock_guard lock(mu_);
  return session_->size();
}

ServiceStats SyrkService::stats() const {
  std::lock_guard lock(mu_);
  ServiceStats s = stats_;
  s.plan_cache = cache_.stats();
  return s;
}

trace::ServiceTimeline SyrkService::timeline() const {
  std::lock_guard lock(mu_);
  return timeline_;
}

bool SyrkService::admit(detail::TicketState& st) {
  // Resolution goes through the session's resolver, i.e. the plan cache —
  // this is the one resolve every request pays: the solo and streamed paths
  // both run the admitted plan. Admission is the service's last validation
  // point before the executor, so malformed or conflicting options fail
  // the ticket here, loudly, instead of surfacing as a mid-flight executor
  // REQUIRE.
  try {
    st.resolved = core::internal::resolve_request(*session_, st.request);
    const core::Plan& plan = st.resolved.plan;
    const std::uint64_t n1 = st.request.a->rows();
    const std::uint64_t n2 = st.request.a->cols();
    const int chunks = st.resolved.options.pipeline_chunks;
    const int rpn = st.resolved.options.ranks_per_node;
    // Pipelined jobs are priced at their overlapped makespan, so the
    // admission budget sees the time they actually occupy their ranks. The
    // ×S latency term inside uses the *effective* segment count (chunks
    // clamped to the plan's available segments).
    st.modeled_seconds =
        chunks >= 1
            ? core::plan_modeled_seconds_pipelined(
                  n1, n2, plan, chunks, options_.plan_options.machine, rpn)
            : core::plan_modeled_seconds(n1, n2, plan,
                                         options_.plan_options.machine, rpn);
    st.admitted = true;
    return true;
  } catch (...) {
    st.error = std::current_exception();
    return false;
  }
}

/// Per-job execution state of one streamed dispatch. Heap-pinned for its
/// whole flight: the rank bodies capture a raw pointer into it.
struct SyrkService::StreamJob {
  std::shared_ptr<detail::TicketState> st;
  comm::RangeJob handle;
  int base = 0;
  int procs = 0;
  core::internal::ExecBuffers exec;  // padded A + result assembly target
  /// Ledger snapshot at launch; the job's range is idle then, so
  /// rank-range summaries against it are exact even while other ranges run.
  comm::CostLedger::Snapshot before;
  /// Shared the world with another in-flight job at any point of its
  /// flight (reported as SyrkResult::batched).
  bool batched = false;
};

void SyrkService::streaming_loop(std::unique_lock<std::mutex>& lock) {
  // All owned by this thread. StreamJobs live here from dispatch to reap;
  // completion callbacks hand back raw pointers through stream_completed_.
  std::vector<std::unique_ptr<StreamJob>> inflight;
  std::vector<std::chrono::steady_clock::time_point> free_at;
  bool episode_failed = false;
  std::vector<std::shared_ptr<detail::TicketState>> to_retry;

  for (;;) {
    // Anything that changes schedulable state this iteration (a reap, a
    // recovery, a solo run, a launch) warrants another pass before
    // sleeping: the queue head may have become dispatchable.
    bool progressed = false;

    // ---- Reap: finalize streamed jobs whose last rank returned ----
    while (!stream_completed_.empty()) {
      progressed = true;
      StreamJob* done = stream_completed_.back();
      stream_completed_.pop_back();
      auto it = std::find_if(
          inflight.begin(), inflight.end(),
          [&](const std::unique_ptr<StreamJob>& j) { return j.get() == done; });
      PARSYRK_CHECK(it != inflight.end());
      std::unique_ptr<StreamJob> job = std::move(*it);
      inflight.erase(it);
      // Hold drain()/resize() off while the job finalizes outside the lock.
      work_in_flight_ = true;
      lock.unlock();
      job->handle.wait();  // returns immediately; runs the drained check
      const bool job_failed = job->handle.failed() || job->handle.aborted();
      if (!job_failed) finalize_stream_job(*job);
      lock.lock();
      if (job_failed) {
        // A failure poisons the whole world: stop dispatching, collect the
        // casualties (guilty and innocent alike), recover once drained.
        episode_failed = true;
        to_retry.push_back(job->st);
      }
      const auto now = std::chrono::steady_clock::now();
      for (int r = job->base;
           r < job->base + job->procs &&
           r < static_cast<int>(free_at.size());
           ++r) {
        free_at[static_cast<std::size_t>(r)] = now;
      }
    }

    // ---- Failure recovery: rerun the casualties solo once drained ----
    if (episode_failed && inflight.empty()) {
      progressed = true;
      work_in_flight_ = true;
      lock.unlock();
      session_->world().recover_after_failure();
      // The guilty job reports its real error from its solo rerun; the
      // innocent ones complete normally.
      for (const auto& st : to_retry) run_solo(st, /*retry=*/true);
      lock.lock();
      to_retry.clear();
      episode_failed = false;
      const auto now = std::chrono::steady_clock::now();
      for (auto& t : free_at) t = now;
    }

    // ---- Dispatch: admit and launch the FIFO prefix that fits ----
    if (!episode_failed && !queue_.empty()) {
      comm::World& world = session_->world();
      const int world_size = world.size();
      if (free_at.size() != static_cast<std::size_t>(world_size)) {
        free_at.assign(static_cast<std::size_t>(world_size),
                       std::chrono::steady_clock::now());
      }

      // Admission: price the FIFO window the dispatcher may look at.
      // Requests that fail resolution (oversized plan, bad root,
      // impossible memory limit) fail their ticket here and leave the
      // queue.
      const std::size_t window =
          std::max<std::size_t>(1, options_.admission.max_jobs_per_round);
      std::vector<std::shared_ptr<detail::TicketState>> candidates;
      std::vector<JobSpec> specs;
      std::size_t i = 0;
      while (i < queue_.size() && candidates.size() < window) {
        std::shared_ptr<detail::TicketState> st = queue_[i];
        if (!st->admitted && !admit(*st)) {
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
          ++stats_.failed;
          fail(st, std::move(st->error));
          continue;
        }
        const core::internal::ResolvedRequest& resolved = st->resolved;
        JobSpec spec;
        spec.ranks = resolved.plan.logical_ranks();
        spec.modeled_seconds = st->modeled_seconds;
        spec.solo =
            resolved.plan.folded() || resolved.options.ranks_per_node > 1;
        candidates.push_back(std::move(st));
        specs.push_back(spec);
        ++i;
      }

      if (!candidates.empty()) {
        // Quiesce gates: solo jobs need the whole world to themselves, and
        // enabling the trace sink (first traced job) or the protocol
        // verifier (first verify-mode job) must happen between jobs. Strict
        // FIFO means nothing behind them dispatches early.
        const bool head_trace_enable =
            candidates[0]->request.trace && !world.tracing();
        const bool head_verify_enable =
            candidates[0]->request.verify && !world.verifying();
        if (specs[0].solo || head_trace_enable || head_verify_enable) {
          if (inflight.empty()) {
            if (head_trace_enable) world.enable_tracing();
            if (head_verify_enable) world.enable_verify();
            if (specs[0].solo) {
              std::shared_ptr<detail::TicketState> head = candidates[0];
              queue_.pop_front();
              head->dispatched_at = std::chrono::steady_clock::now();
              {
                std::lock_guard ticket_lock(head->mu);
                head->status = TicketStatus::kRunning;
              }
              ++stats_.rounds;
              work_in_flight_ = true;
              progressed = true;
              lock.unlock();
              run_solo(head, /*retry=*/false);
              lock.lock();
              const auto now = std::chrono::steady_clock::now();
              for (auto& t : free_at) t = now;
            }
          }
          // else: wait for the stream to drain, then handle the head.
        }
        if (!specs[0].solo) {
          // Streamed placement onto the currently free rank intervals.
          // A traced job can only launch once the sink is live; truncation
          // keeps FIFO (jobs behind it wait too).
          if (world.ranks_per_node() != 1 && inflight.empty()) {
            // A preceding solo topology'd request stamped the shared
            // world; streamed jobs run flat.
            world.set_topology(1);
          }
          std::vector<char> rank_busy(static_cast<std::size_t>(world_size), 0);
          double inflight_modeled = 0.0;
          for (const auto& j : inflight) {
            for (int r = j->base; r < j->base + j->procs; ++r) {
              rank_busy[static_cast<std::size_t>(r)] = 1;
            }
            inflight_modeled += j->st->modeled_seconds;
          }
          std::vector<RankInterval> holes;
          for (int r = 0; r < world_size;) {
            if (rank_busy[static_cast<std::size_t>(r)]) {
              ++r;
              continue;
            }
            int e = r;
            while (e < world_size && !rank_busy[static_cast<std::size_t>(e)]) {
              ++e;
            }
            holes.push_back({r, e - r});
            r = e;
          }
          std::vector<Placement> placed = plan_stream_step(
              specs, holes, inflight_modeled, inflight.size(),
              options_.admission);
          std::size_t launchable = placed.size();
          for (std::size_t k = 0; k < placed.size(); ++k) {
            const detail::TicketState& c = *candidates[placed[k].job];
            if ((c.request.trace && !world.tracing()) ||
                (c.request.verify && !world.verifying())) {
              launchable = k;
              break;
            }
          }
          const auto dispatched_at = std::chrono::steady_clock::now();
          if (launchable > 0) progressed = true;
          for (std::size_t k = 0; k < launchable; ++k) {
            const Placement& p = placed[k];
            std::shared_ptr<detail::TicketState> st = candidates[p.job];
            queue_.pop_front();
            st->dispatched_at = dispatched_at;
            {
              std::lock_guard ticket_lock(st->mu);
              st->status = TicketStatus::kRunning;
            }

            auto job = std::make_unique<StreamJob>();
            job->st = st;
            job->base = p.base_rank;
            job->procs = static_cast<int>(st->resolved.plan.logical_ranks());
            job->exec =
                core::internal::ExecBuffers(*st->request.a, st->resolved.plan);
            job->before = world.ledger().snapshot();

            ++stats_.rounds;
            if (!inflight.empty()) {
              ++stats_.interleaved_jobs;
              job->batched = true;
              for (auto& other : inflight) other->batched = true;
            }
            // Work-conservation gap: idle time of the job's ranks since
            // they last freed — or since the job was submitted, if later
            // (a rank cannot run work that does not exist yet).
            for (int r = job->base; r < job->base + job->procs; ++r) {
              const auto could_start =
                  std::max(free_at[static_cast<std::size_t>(r)],
                           st->submitted_at);
              stats_.scheduler_gap_seconds +=
                  std::max(0.0, seconds_between(could_start, dispatched_at));
            }

            StreamJob* raw = job.get();
            job->handle = world.launch_ranks(
                job->base, job->base + job->procs,
                [raw](comm::Comm& c) {
                  const core::internal::ResolvedRequest& r = raw->st->resolved;
                  core::internal::run_syrk_plan_rank(c, raw->exec.a(), r.plan,
                                                     r.options, raw->exec.c());
                },
                [this, raw] {
                  // Notify while holding the lock: this callback runs on a
                  // pool-worker thread, and the scheduler (then ~SyrkService)
                  // may otherwise reap the completion and destroy work_cv_
                  // while the broadcast is still touching it. Holding mu_
                  // orders the broadcast before any waiter can return.
                  std::lock_guard completion_lock(mu_);
                  stream_completed_.push_back(raw);
                  work_cv_.notify_all();
                });
            inflight.push_back(std::move(job));
          }
        }
      }
    }

    work_in_flight_ = !inflight.empty();
    if (queue_.empty() && !work_in_flight_) idle_cv_.notify_all();
    if (stop_ && queue_.empty() && inflight.empty() &&
        stream_completed_.empty()) {
      return;
    }
    if (progressed) continue;  // re-examine the queue before sleeping
    // Sleep until something can change the schedule: a completion, a new
    // submission, or a stop. Waking on a bare non-empty queue would spin
    // when the queue head cannot dispatch yet (busy ranks, full budget).
    const std::uint64_t seen_submitted = stats_.submitted;
    const bool seen_stop = stop_;
    work_cv_.wait(lock, [&] {
      return !stream_completed_.empty() ||
             stats_.submitted != seen_submitted || stop_ != seen_stop;
    });
  }
}

void SyrkService::finalize_stream_job(StreamJob& job) {
  finish(job.st,
         core::internal::collect_run(session_->world(), job.st->request,
                                     job.st->resolved.plan, job.exec,
                                     job.before, job.base,
                                     job.base + job.procs,
                                     job.handle.job_id()),
         job.batched, job.base);
}

void SyrkService::run_solo(const std::shared_ptr<detail::TicketState>& st,
                           bool retry) {
  if (retry) {
    std::lock_guard lock(mu_);
    ++stats_.retried_jobs;
  }
  try {
    finish(st,
           core::internal::run_resolved(*session_, st->request, st->resolved),
           /*batched=*/false, /*base_rank=*/0);
  } catch (...) {
    {
      std::lock_guard lock(mu_);
      ++stats_.failed;
    }
    fail(st, std::current_exception());
  }
}

void SyrkService::finish(const std::shared_ptr<detail::TicketState>& st,
                         core::SyrkRun run, bool batched, int base_rank) {
  const auto now = std::chrono::steady_clock::now();
  SyrkResult res;
  res.run = std::move(run);
  res.batched = batched;
  res.base_rank = base_rank;
  res.latency.queue_seconds = seconds_between(st->submitted_at,
                                              st->dispatched_at);
  res.latency.service_seconds = seconds_between(st->dispatched_at, now);
  res.latency.total_seconds = seconds_between(st->submitted_at, now);
  res.latency.modeled_seconds = st->modeled_seconds;
  if (st->request.audit) {
    const comm::JobTrace* tr =
        res.run.trace.has_value() ? &*res.run.trace : nullptr;
    res.audit = trace::BoundAuditor().audit(st->request.a->rows(),
                                            st->request.a->cols(), res.run,
                                            tr);
  }
  {
    std::lock_guard lock(mu_);
    res.completion_seq = ++completion_seq_;
    ++stats_.completed;
    if (batched) {
      ++stats_.batched_jobs;
    } else {
      ++stats_.solo_jobs;
    }
    if (st->request.options.pipeline_chunks >= 1) ++stats_.pipelined_jobs;
    stats_.total_queue_seconds += res.latency.queue_seconds;
    stats_.total_service_seconds += res.latency.service_seconds;
    trace::TimelineInterval iv;
    iv.job_id = res.completion_seq;
    iv.rank_begin = base_rank;
    iv.rank_end =
        base_rank + static_cast<int>(st->resolved.plan.logical_ranks());
    iv.start_seconds = seconds_between(epoch_, st->dispatched_at);
    iv.end_seconds = seconds_between(epoch_, now);
    iv.solo = !batched;
    timeline_.add(iv);
  }
  {
    std::lock_guard lock(st->mu);
    st->result = std::move(res);
    st->status = TicketStatus::kDone;
  }
  st->cv.notify_all();
}

void SyrkService::fail(const std::shared_ptr<detail::TicketState>& st,
                       std::exception_ptr error) {
  {
    std::lock_guard lock(st->mu);
    st->error = std::move(error);
    st->status = TicketStatus::kFailed;
  }
  st->cv.notify_all();
}

}  // namespace parsyrk::service
