// Streaming (work-conserving) scheduler tests: plan_stream_step's pure
// dispatch policy and the SyrkService streaming executor end-to-end —
// bitwise solo equivalence of results/ledgers/traces under interleaved
// completion, poisoned-job recovery mid-stream, pipelined 3D jobs with
// chunked gathers, bound audits, and the per-rank timeline observability.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "service/scheduler.hpp"
#include "service/service.hpp"
#include "support/check.hpp"

namespace parsyrk {
namespace {

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.data() + i * x.ld(), y.data() + i * y.ld(),
                    x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

service::JobSpec spec(std::uint64_t ranks, double modeled = 1e-6,
                      bool solo = false) {
  service::JobSpec s;
  s.ranks = ranks;
  s.modeled_seconds = modeled;
  s.solo = solo;
  return s;
}

// ---- plan_stream_step: the per-wakeup dispatch policy ----

TEST(PlanStreamStep, PlacesFifoPrefixFirstFitAcrossHoles) {
  const std::vector<service::RankInterval> free = {{0, 4}, {8, 4}};
  const std::vector<service::JobSpec> q = {spec(4), spec(2), spec(4)};
  const auto placed = service::plan_stream_step(q, free, 0.0, 1, {});
  // Job 0 fills the left hole, job 1 takes the leftmost remaining fit;
  // job 2 needs 4 contiguous ranks and only 2 remain -> strict FIFO stops.
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_EQ(placed[0].job, 0u);
  EXPECT_EQ(placed[0].base_rank, 0);
  EXPECT_EQ(placed[1].job, 1u);
  EXPECT_EQ(placed[1].base_rank, 8);
}

TEST(PlanStreamStep, FragmentedHolesCannotHostAContiguousJob) {
  // 6 free ranks exist but no hole is 6 wide: the head does not fit, and
  // FIFO forbids skipping to the 2-rank follower.
  const std::vector<service::RankInterval> free = {{0, 3}, {9, 3}};
  const std::vector<service::JobSpec> q = {spec(6), spec(2)};
  EXPECT_TRUE(service::plan_stream_step(q, free, 0.0, 1, {}).empty());
}

TEST(PlanStreamStep, BudgetCountsInflightWork) {
  service::AdmissionLimits limits;
  limits.modeled_seconds_per_round = 0.05;
  const std::vector<service::RankInterval> free = {{4, 8}};
  const std::vector<service::JobSpec> q = {spec(2, 0.02)};
  // 0.04 already in flight: 0.04 + 0.02 busts the budget.
  EXPECT_TRUE(service::plan_stream_step(q, free, 0.04, 1, limits).empty());
  // 0.02 in flight leaves room.
  EXPECT_EQ(service::plan_stream_step(q, free, 0.02, 1, limits).size(), 1u);
}

TEST(PlanStreamStep, JobCapCountsInflightJobs) {
  service::AdmissionLimits limits;
  limits.max_jobs_per_round = 2;
  const std::vector<service::RankInterval> free = {{0, 12}};
  const std::vector<service::JobSpec> q = {spec(2), spec(2)};
  EXPECT_TRUE(service::plan_stream_step(q, free, 0.0, 2, limits).empty());
  EXPECT_EQ(service::plan_stream_step(q, free, 0.0, 1, limits).size(), 1u);
}

TEST(PlanStreamStep, HeadExemptionOnlyOnIdleWorld) {
  service::AdmissionLimits limits;
  limits.modeled_seconds_per_round = 1e-9;
  const std::vector<service::RankInterval> free = {{0, 12}};
  const std::vector<service::JobSpec> q = {spec(4, 1.0), spec(2, 1e-12)};
  // Idle world: the over-budget head is exempt AND does not consume the
  // follower budget — both jobs dispatch (the no-starvation rule).
  const auto idle = service::plan_stream_step(q, free, 0.0, 0, limits);
  ASSERT_EQ(idle.size(), 2u);
  EXPECT_EQ(idle[1].base_rank, 4);
  // A follower that itself exceeds the budget still ends the step: the
  // exemption is for the head only.
  const std::vector<service::JobSpec> q2 = {spec(4, 1.0), spec(2, 1.0)};
  const auto head_only = service::plan_stream_step(q2, free, 0.0, 0, limits);
  ASSERT_EQ(head_only.size(), 1u);
  EXPECT_EQ(head_only[0].job, 0u);
  // With anything in flight the head waits its turn like everyone else:
  // the in-flight job's completion is the next dispatch opportunity.
  EXPECT_TRUE(service::plan_stream_step(q, free, 1e-12, 1, limits).empty());
}

// A round is what one plan_stream_step places onto an idle world (the
// AdmissionLimits "per round" fields bound it).
TEST(PlanRound, HeadIsAlwaysPlacedEvenOverBudget) {
  service::AdmissionLimits limits;
  limits.modeled_seconds_per_round = 1e-9;
  const std::vector<service::RankInterval> idle = {{0, 12}};
  const std::vector<service::JobSpec> q = {spec(4, 1.0), spec(2, 1e-12)};
  const auto round = service::plan_stream_step(q, idle, 0.0, 0, limits);
  // The over-budget head is exempt (it must run eventually and blocking it
  // forever would deadlock) AND it does not consume the round budget: the
  // tiny follower fits on the leftover ranks instead of stalling behind it.
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0].job, 0u);
  EXPECT_EQ(round[0].base_rank, 0);
  EXPECT_EQ(round[1].job, 1u);
  EXPECT_EQ(round[1].base_rank, 4);

  // A follower that itself exceeds the budget still breaks the round: the
  // exemption is for the head only.
  const std::vector<service::JobSpec> q2 = {spec(4, 1.0), spec(2, 1.0)};
  ASSERT_EQ(service::plan_stream_step(q2, idle, 0.0, 0, limits).size(), 1u);
}

TEST(PlanStreamStep, SoloJobsStopTheStream) {
  const std::vector<service::RankInterval> free = {{0, 12}};
  const std::vector<service::JobSpec> q1 = {spec(2, 1e-6, true)};
  EXPECT_TRUE(service::plan_stream_step(q1, free, 0.0, 0, {}).empty());
  const std::vector<service::JobSpec> q2 = {spec(2), spec(4, 1e-6, true),
                                            spec(2)};
  // Dispatch stops at the solo job; the jobs behind it must not overtake.
  EXPECT_EQ(service::plan_stream_step(q2, free, 0.0, 0, {}).size(), 1u);
}

// ---- SyrkService streaming executor end-to-end ----

service::ServiceOptions streaming_options(int procs) {
  service::ServiceOptions opts;
  opts.procs = procs;
  opts.plan_options.allow_folding = false;
  return opts;
}

TEST(SchedulerStream, StreamedJobsMatchSoloRunsBitwise) {
  // A mixed-size traced workload: completion order under streaming is
  // whatever the rank subsets produce (short jobs legitimately finish
  // ahead of stragglers), but every job's result matrix, rank-range ledger
  // summaries, and rank-range trace must be bitwise-identical to the same
  // request run solo on an equally sized session.
  service::SyrkService svc(streaming_options(12));
  const std::uint64_t caps[] = {6, 2, 3, 2, 4, 3, 6, 2};
  const int jobs = 16;
  std::vector<Matrix> inputs;
  inputs.reserve(jobs);
  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < jobs; ++j) {
    // Mixed shapes: straggler-sized heads among quick small jobs.
    const std::size_t n1 = caps[j % 8] >= 4 ? 48 : 16;
    inputs.push_back(random_matrix(n1, 32, 500 + static_cast<unsigned>(j)));
    tickets.push_back(svc.submit(
        core::SyrkRequest(inputs.back()).on_procs(caps[j % 8]).with_trace()));
  }
  std::vector<service::SyrkResult> results;
  for (auto& t : tickets) results.push_back(t.wait());
  svc.drain();

  core::Session solo(12);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  for (int j = 0; j < jobs; ++j) {
    const auto ref = core::syrk(
        solo, core::SyrkRequest(inputs[static_cast<std::size_t>(j)])
                  .on_procs(caps[j % 8])
                  .with_trace());
    const auto& run = results[static_cast<std::size_t>(j)].run;
    EXPECT_TRUE(bitwise_equal(run.c, ref.c)) << "job " << j;
    EXPECT_EQ(run.total.total, ref.total.total) << "job " << j;
    EXPECT_EQ(run.total.max, ref.total.max) << "job " << j;
    EXPECT_EQ(run.gather_a.total, ref.gather_a.total) << "job " << j;
    EXPECT_EQ(run.reduce_c.total, ref.reduce_c.total) << "job " << j;
    ASSERT_TRUE(run.trace.has_value()) << "job " << j;
    ASSERT_TRUE(ref.trace.has_value()) << "job " << j;
    EXPECT_EQ(run.trace->phases, ref.trace->phases) << "job " << j;
    EXPECT_EQ(run.trace->events, ref.trace->events) << "job " << j;
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GE(st.scheduler_gap_seconds, 0.0);
  // Every completion_seq was handed out exactly once.
  std::vector<bool> seen(jobs + 1, false);
  for (const auto& r : results) {
    ASSERT_GE(r.completion_seq, 1u);
    ASSERT_LE(r.completion_seq, static_cast<std::uint64_t>(jobs));
    EXPECT_FALSE(seen[r.completion_seq]) << "duplicate completion seq";
    seen[r.completion_seq] = true;
  }
}

TEST(SchedulerStream, AuditedJobsPassTheoremOneBoundMidStream) {
  // BoundAuditor still audits each streamed job independently: the
  // rank-range trace and ledger it sees must be self-consistent even while
  // other subsets are mid-flight.
  service::SyrkService svc(streaming_options(12));
  const std::uint64_t caps[] = {4, 2, 6, 3};
  std::vector<Matrix> inputs;
  inputs.reserve(8);
  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < 8; ++j) {
    inputs.push_back(random_matrix(24, 48, 700 + static_cast<unsigned>(j)));
    tickets.push_back(svc.submit(
        core::SyrkRequest(inputs.back()).on_procs(caps[j % 4]).with_audit()));
  }
  for (auto& t : tickets) {
    const auto& res = t.wait();
    ASSERT_TRUE(res.audit.has_value());
    EXPECT_TRUE(res.audit->ok());
  }
}

TEST(SchedulerStream, PoisonedJobRecoversMidStream) {
  // The guilty job fails inside the SPMD body while innocents are (or may
  // be) mid-flight on other subsets. Recovery: quiesce, clear poison,
  // retry casualties solo — every innocent still matches its reference,
  // and the stream keeps serving afterwards.
  service::SyrkService svc(streaming_options(12));
  Matrix bad_a = random_matrix(18, 8, 5);  // 18 % 2² != 0: rejected in-body
  std::vector<Matrix> goods;
  goods.reserve(5);
  for (int j = 0; j < 5; ++j) {
    goods.push_back(random_matrix(24, 48, 900 + static_cast<unsigned>(j)));
  }
  std::vector<service::SyrkTicket> good_tickets;
  good_tickets.push_back(
      svc.submit(core::SyrkRequest(goods[0]).on_procs(4)));
  auto bad = svc.submit(core::SyrkRequest(bad_a).use_2d(2));
  for (int j = 1; j < 5; ++j) {
    good_tickets.push_back(svc.submit(
        core::SyrkRequest(goods[static_cast<std::size_t>(j)]).on_procs(3)));
  }
  EXPECT_THROW(bad.wait(), InvalidArgument);
  for (std::size_t j = 0; j < good_tickets.size(); ++j) {
    const auto& ok = good_tickets[j].wait();
    EXPECT_LT(max_abs_diff(ok.run.c.view(),
                           syrk_reference(goods[j].view()).view()),
              1e-9)
        << "job " << j;
  }
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 5u);

  // The stream stays healthy: a fresh streamed batch completes normally.
  auto again = svc.submit(core::SyrkRequest(goods[0]).on_procs(6));
  EXPECT_LT(max_abs_diff(again.wait().run.c.view(),
                         syrk_reference(goods[0].view()).view()),
            1e-9);
}

TEST(SchedulerStream, Pipelined3DChunkedGatherMatchesSoloBitwise) {
  // A pipelined 3D job — whose all-gather phase now executes through the
  // segmented nonblocking path — streamed next to small 1D jobs. Result,
  // ledger totals, and trace must match the same request run solo.
  service::SyrkService svc(streaming_options(16));
  Matrix big = random_matrix(24, 16, 31);   // 3D on c=2, p2=2: 12 ranks
  Matrix small = random_matrix(16, 24, 32);
  auto t3d = svc.submit(
      core::SyrkRequest(big).use_3d(2, 2).with_pipeline(3).with_trace());
  std::vector<service::SyrkTicket> smalls;
  for (int j = 0; j < 6; ++j) {
    smalls.push_back(svc.submit(core::SyrkRequest(small).use_1d(2)));
  }
  const auto r3d = t3d.wait();
  for (auto& t : smalls) t.wait();
  svc.drain();

  core::Session solo(16);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  const auto ref = core::syrk(
      solo,
      core::SyrkRequest(big).use_3d(2, 2).with_pipeline(3).with_trace());
  EXPECT_TRUE(bitwise_equal(r3d.run.c, ref.c));
  EXPECT_EQ(r3d.run.total.total, ref.total.total);
  EXPECT_EQ(r3d.run.total.max, ref.total.max);
  ASSERT_TRUE(r3d.run.trace.has_value());
  ASSERT_TRUE(ref.trace.has_value());
  // Chunked runs record events in completion order, which is not
  // deterministic even solo-to-solo (test_pipeline pins the same contract):
  // the streamed trace must carry the same message count, the same phase
  // table, and live overlap windows from the segmented gather.
  EXPECT_EQ(r3d.run.trace->events.size(), ref.trace->events.size());
  EXPECT_EQ(r3d.run.trace->phases, ref.trace->phases);
  EXPECT_FALSE(r3d.run.trace->overlaps.empty());
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GE(st.pipelined_jobs, 1u);
}

TEST(SchedulerStream, TimelineRecordsEveryDispatchedJob) {
  service::SyrkService svc(streaming_options(12));
  Matrix a = random_matrix(24, 48, 77);
  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < 6; ++j) {
    tickets.push_back(svc.submit(core::SyrkRequest(a).on_procs(3)));
  }
  for (auto& t : tickets) t.wait();
  svc.drain();

  const auto tl = svc.timeline();
  ASSERT_EQ(tl.intervals().size(), 6u);
  EXPECT_GE(tl.ranks(), 12);
  EXPECT_GT(tl.horizon_seconds(), 0.0);
  double busy = 0.0;
  for (const auto& iv : tl.intervals()) {
    EXPECT_GE(iv.rank_begin, 0);
    EXPECT_LE(iv.rank_end, 12);
    EXPECT_EQ(iv.rank_end - iv.rank_begin, 3);
    EXPECT_GE(iv.end_seconds, iv.start_seconds);
  }
  for (int r = 0; r < 12; ++r) {
    busy += tl.busy_seconds(r);
    EXPECT_GE(tl.idle_seconds(r), 0.0);
  }
  EXPECT_GT(busy, 0.0);
  const std::string json = tl.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace parsyrk
