// Service-layer tests: PlanCache hit/miss and invalidation semantics, and
// SyrkService end-to-end — ticket lifecycle, FIFO dispatch order,
// streamed-vs-solo bitwise equivalence, poisoned-job retry, and a
// multithreaded submitter stress (the tsan preset runs this suite).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "service/plan_cache.hpp"
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

// ---- PlanCache ----

TEST(PlanCache, MissesCountEnumeratorRunsHitsShareReports) {
  service::PlanCache cache;
  core::PlanSearchOptions opts;
  const auto r1 = cache.resolve(48, 96, 6, opts);
  const auto r2 = cache.resolve(48, 96, 6, opts);
  EXPECT_EQ(r1.get(), r2.get());  // shared immutable report
  const auto s1 = cache.stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 1u);
  EXPECT_EQ(s1.entries, 1u);

  cache.resolve(48, 96, 12, opts);  // different cap: different key
  opts.allow_folding = false;
  cache.resolve(48, 96, 6, opts);  // different options: different key
  const auto s2 = cache.stats();
  EXPECT_EQ(s2.misses, 3u);
  EXPECT_EQ(s2.entries, 3u);
}

TEST(PlanCache, RebindingWorkerCountInvalidates) {
  service::PlanCache cache;
  core::PlanSearchOptions opts;
  cache.bind_worker_count(12);  // first bind: no invalidation
  cache.resolve(48, 96, 6, opts);
  cache.bind_worker_count(12);  // same count: entries survive
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.bind_worker_count(8);  // resize: stale fold factors dropped
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.resolve(48, 96, 6, opts);
  EXPECT_EQ(cache.stats().misses, 2u);  // re-enumerated after the drop
}

// ---- SyrkService end-to-end ----

service::ServiceOptions packable_options(int procs) {
  service::ServiceOptions opts;
  opts.procs = procs;
  // Folded plans are solo-only; disabling folding keeps every job in this
  // suite's workloads packable.
  opts.plan_options.allow_folding = false;
  return opts;
}

TEST(SyrkService, TicketLifecycleAndBlockingSyrkAgree) {
  service::SyrkService svc(packable_options(12));
  Matrix a = random_matrix(32, 64, 7);

  auto ticket = svc.submit(core::SyrkRequest(a).on_procs(4));
  ASSERT_TRUE(ticket.valid());
  const service::SyrkResult& res = ticket.wait();
  EXPECT_EQ(ticket.status(), service::TicketStatus::kDone);
  ASSERT_NE(ticket.try_get(), nullptr);  // idempotent after wait
  EXPECT_EQ(ticket.try_get(), &res);
  EXPECT_GT(res.completion_seq, 0u);
  EXPECT_GE(res.latency.total_seconds, res.latency.service_seconds);
  EXPECT_GT(res.latency.modeled_seconds, 0.0);

  // Blocking use is submit+wait: same plan, bitwise-identical result.
  const service::SyrkResult blocking =
      svc.syrk(core::SyrkRequest(a).on_procs(4));
  EXPECT_EQ(blocking.run.plan.algorithm, res.run.plan.algorithm);
  EXPECT_EQ(blocking.run.plan.procs, res.run.plan.procs);
  EXPECT_TRUE(bitwise_equal(blocking.run.c, res.run.c));
  EXPECT_LT(max_abs_diff(res.run.c.view(), syrk_reference(a.view()).view()),
            1e-9);

  EXPECT_FALSE(service::SyrkTicket().valid());
}

TEST(SyrkService, InvalidRequestFailsAtWait) {
  service::SyrkService svc(packable_options(12));
  Matrix a = random_matrix(30, 8, 3);
  // use_2d(5) needs 30 ranks; the 12-rank service rejects it at admission.
  auto ticket = svc.submit(core::SyrkRequest(a).use_2d(5));
  EXPECT_THROW(ticket.wait(), InvalidArgument);
  EXPECT_EQ(ticket.status(), service::TicketStatus::kFailed);
  EXPECT_THROW(ticket.try_get(), InvalidArgument);
  svc.drain();
  EXPECT_EQ(svc.stats().failed, 1u);

  // The service stays healthy for later requests.
  const auto ok = svc.syrk(core::SyrkRequest(a).on_procs(3));
  EXPECT_LT(max_abs_diff(ok.run.c.view(), syrk_reference(a.view()).view()),
            1e-9);
}

TEST(SyrkService, CacheCountsOneMissPerDistinctShape) {
  service::SyrkService svc(packable_options(12));
  const std::uint64_t shapes[][3] = {{16, 64, 2}, {24, 96, 3}, {32, 64, 4}};
  const int repeats = 4;
  std::vector<Matrix> inputs;
  inputs.reserve(3 * repeats);
  std::vector<service::SyrkTicket> tickets;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& s : shapes) {
      inputs.push_back(random_matrix(s[0], s[1], s[0] + s[1]));
      tickets.push_back(
          svc.submit(core::SyrkRequest(inputs.back()).on_procs(s[2])));
    }
  }
  for (auto& t : tickets) t.wait();
  const auto st = svc.stats();
  // Misses == enumerator runs == distinct (shape, cap) keys; every repeat
  // lands in the cache.
  EXPECT_EQ(st.plan_cache.misses, 3u);
  EXPECT_GE(st.plan_cache.hits,
            static_cast<std::uint64_t>(3 * repeats - 3));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(3 * repeats));
}

TEST(SyrkService, ResizeInvalidatesCachedPlans) {
  service::ServiceOptions opts;
  opts.procs = 12;  // default options: folding allowed, like production use
  service::SyrkService svc(opts);
  Matrix a = random_matrix(48, 96, 11);
  svc.syrk(core::SyrkRequest(a));  // planner path at cap 12
  EXPECT_EQ(svc.plan_cache().stats().entries, 1u);

  svc.resize(6);
  EXPECT_EQ(svc.procs(), 6);
  const auto after = svc.plan_cache().stats();
  EXPECT_GE(after.invalidations, 1u);
  EXPECT_EQ(after.entries, 0u);

  // Same request re-plans against the new worker count: fresh enumeration,
  // and the chosen plan must fit the smaller session.
  const auto rerun = svc.syrk(core::SyrkRequest(a));
  EXPECT_LE(rerun.run.plan.procs, 6u);
  EXPECT_GE(svc.plan_cache().stats().misses, 2u);
  EXPECT_LT(max_abs_diff(rerun.run.c.view(), syrk_reference(a.view()).view()),
            1e-9);
}

TEST(SyrkService, DispatchOrderIsFifoAcrossMixedSizes) {
  // Full-size jobs interleaved with small ones. Completion order is free (a
  // small job launched beside a straggler may finish first), but dispatch
  // is strictly FIFO: no job may start before one submitted ahead of it.
  service::SyrkService svc(packable_options(12));
  const std::uint64_t caps[] = {2, 12, 3, 6, 4, 2, 12, 3};
  const int jobs = 24;
  std::vector<Matrix> inputs;
  inputs.reserve(jobs);
  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < jobs; ++j) {
    inputs.push_back(random_matrix(24, 48, 100 + static_cast<unsigned>(j)));
    tickets.push_back(svc.submit(
        core::SyrkRequest(inputs.back()).on_procs(caps[j % 8])));
  }
  std::vector<std::uint64_t> seqs;
  for (auto& t : tickets) seqs.push_back(t.wait().completion_seq);
  svc.drain();

  // Each timeline interval carries its job's completion_seq as job_id.
  const auto tl = svc.timeline();
  ASSERT_EQ(tl.intervals().size(), static_cast<std::size_t>(jobs));
  std::map<std::uint64_t, double> start_of;
  for (const auto& iv : tl.intervals()) {
    EXPECT_TRUE(start_of.emplace(iv.job_id, iv.start_seconds).second)
        << "duplicate job_id " << iv.job_id;
  }
  double prev_start = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < jobs; ++j) {
    const auto it = start_of.find(seqs[static_cast<std::size_t>(j)]);
    ASSERT_NE(it, start_of.end()) << "job " << j << " has no interval";
    EXPECT_GE(it->second, prev_start)
        << "job " << j << " started before job " << j - 1;
    prev_start = it->second;
  }
}

TEST(SyrkService, TimelineLanesOfAFoldedJobAreItsPhysicalRanks) {
  // The planner folds 512x16 on 4 workers to 2D's 6 logical ranks; the job
  // occupies the service's 4 ranks, not 6.
  service::ServiceOptions opts;
  opts.procs = 4;
  service::SyrkService svc(opts);
  const Matrix a = random_matrix(512, 16, 21);
  const service::SyrkResult res = svc.syrk(core::SyrkRequest(a));
  ASSERT_TRUE(res.run.plan.folded());
  ASSERT_EQ(res.run.plan.logical_ranks(), 6u);
  const auto tl = svc.timeline();
  ASSERT_EQ(tl.intervals().size(), 1u);
  EXPECT_EQ(tl.intervals()[0].rank_begin, 0);
  EXPECT_EQ(tl.intervals()[0].rank_end, 4);
  EXPECT_EQ(tl.ranks(), 4);
  EXPECT_EQ(tl.busy_seconds(5), 0.0);
}

TEST(SyrkService, BatchedJobsMatchSoloRunsBitwise) {
  service::SyrkService svc(packable_options(12));
  const std::uint64_t caps[] = {2, 3, 4, 3};
  std::vector<Matrix> inputs;
  inputs.reserve(4);
  for (int j = 0; j < 4; ++j) {
    inputs.push_back(random_matrix(24, 48, 40 + static_cast<unsigned>(j)));
  }
  // A topology'd head runs solo on the scheduler thread, so the four small
  // jobs, submitted back to back behind it, queue until it finishes and then
  // leave together in one placement step (12 ranks fit all four): every job
  // after the first is launched with another in flight, however the
  // submitting thread is scheduled against theirs.
  Matrix head_a = random_matrix(1024, 512, 39);
  service::SyrkTicket head =
      svc.submit(core::SyrkRequest(head_a).on_procs(12).with_topology(4));
  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < 4; ++j) {
    tickets.push_back(svc.submit(
        core::SyrkRequest(inputs[static_cast<std::size_t>(j)])
            .on_procs(caps[j])
            .with_trace()));
  }
  EXPECT_FALSE(head.wait().batched);
  std::vector<service::SyrkResult> results;
  for (auto& t : tickets) results.push_back(t.wait());
  svc.drain();
  EXPECT_GE(svc.stats().interleaved_jobs, 1u);

  // Solo references on an equally sized session with the same options.
  core::Session solo(12);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  bool any_batched = false;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const auto ref = core::syrk(
        solo, core::SyrkRequest(inputs[j]).on_procs(caps[j]).with_trace());
    const auto& run = results[j].run;
    any_batched = any_batched || results[j].batched;
    EXPECT_TRUE(bitwise_equal(run.c, ref.c)) << "job " << j;
    // Per-job ledger scope: rank-range summaries of the shared world equal
    // the solo run's whole-world summaries, counter for counter.
    EXPECT_EQ(run.total.total, ref.total.total) << "job " << j;
    EXPECT_EQ(run.total.max, ref.total.max) << "job " << j;
    EXPECT_EQ(run.gather_a.total, ref.gather_a.total) << "job " << j;
    EXPECT_EQ(run.reduce_c.total, ref.reduce_c.total) << "job " << j;
    // Per-job trace: rank-range extraction rebased to the job's base rank
    // reproduces the solo event stream and phase table exactly.
    ASSERT_TRUE(run.trace.has_value());
    ASSERT_TRUE(ref.trace.has_value());
    EXPECT_EQ(run.trace->phases, ref.trace->phases) << "job " << j;
    EXPECT_EQ(run.trace->events, ref.trace->events) << "job " << j;
  }
  EXPECT_TRUE(any_batched);
}

TEST(SyrkService, PoisonedRoundRetriesInnocentJobsSolo) {
  service::SyrkService svc(packable_options(12));
  // 18 % 2² != 0: the 2D kernel rejects this inside the SPMD body, after
  // dispatch decisions are made — the failure poisons the whole world.
  Matrix bad_a = random_matrix(18, 8, 5);
  Matrix good_a = random_matrix(24, 48, 6);
  auto bad = svc.submit(core::SyrkRequest(bad_a).use_2d(2));
  auto good = svc.submit(core::SyrkRequest(good_a).on_procs(6));
  EXPECT_THROW(bad.wait(), InvalidArgument);
  const auto& ok = good.wait();
  EXPECT_LT(max_abs_diff(ok.run.c.view(),
                         syrk_reference(good_a.view()).view()),
            1e-9);
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 1u);
  // Interleaved, the guilty job is retried solo, where it fails for real.
  // The innocent one is retried too when the poisoning caught it in
  // flight; when it finished first it completed in the stream, batched.
  if (st.interleaved_jobs > 0) {
    const std::uint64_t casualty = ok.batched ? 0 : 1;
    EXPECT_EQ(st.retried_jobs, 1u + casualty);
  }

  // The session world recovered: later jobs run normally.
  const auto again = svc.syrk(core::SyrkRequest(good_a).on_procs(4));
  EXPECT_LT(max_abs_diff(again.run.c.view(),
                         syrk_reference(good_a.view()).view()),
            1e-9);
}

TEST(SyrkService, MultithreadedSubmittersAllComplete) {
  service::SyrkService svc(packable_options(12));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  const std::uint64_t caps[kThreads] = {2, 3, 4, 6};

  std::vector<std::vector<Matrix>> inputs(kThreads);
  std::vector<double> max_err(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    inputs[t].reserve(kPerThread);
    threads.emplace_back([&, t] {
      std::vector<service::SyrkTicket> tickets;
      for (int j = 0; j < kPerThread; ++j) {
        inputs[t].push_back(random_matrix(
            16 + 8 * static_cast<std::size_t>(t), 32,
            static_cast<std::uint64_t>(t * 100 + j)));
        tickets.push_back(svc.submit(
            core::SyrkRequest(inputs[t].back()).on_procs(caps[t])));
      }
      for (int j = 0; j < kPerThread; ++j) {
        const auto& res = tickets[static_cast<std::size_t>(j)].wait();
        max_err[t] = std::max(
            max_err[t],
            max_abs_diff(res.run.c.view(),
                         syrk_reference(
                             inputs[t][static_cast<std::size_t>(j)].view())
                             .view()));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_LT(max_err[t], 1e-9);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.failed, 0u);
}

// ---------------------------------------------------------------------------
// Pipelined jobs through the service (overlap stress + poisoned world)
// ---------------------------------------------------------------------------

TEST(SyrkService, PipelinedJobsOverlapStressMatchesSoloBitwise) {
  // Concurrent submitters flood the service with with_pipeline jobs at
  // mixed chunk counts; streamed jobs execute their chunked collectives
  // with overlap. Every result must still be bitwise-identical to the same
  // request run solo, and the ledger scoping must survive the in-flight
  // chunk traffic (the eager-posting attribution rule).
  service::SyrkService svc(packable_options(12));
  constexpr int kThreads = 3;
  constexpr int kPerThread = 6;
  const std::uint64_t caps[kThreads] = {2, 4, 6};
  const int chunk_counts[kThreads] = {2, 3, 5};

  std::vector<std::vector<Matrix>> inputs(kThreads);
  std::vector<std::vector<service::SyrkResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    inputs[static_cast<std::size_t>(t)].reserve(kPerThread);
    threads.emplace_back([&, t] {
      auto& in = inputs[static_cast<std::size_t>(t)];
      std::vector<service::SyrkTicket> tickets;
      for (int j = 0; j < kPerThread; ++j) {
        in.push_back(random_matrix(
            24, 32, static_cast<std::uint64_t>(t * 977 + j)));
        tickets.push_back(svc.submit(core::SyrkRequest(in.back())
                                         .on_procs(caps[t])
                                         .with_pipeline(chunk_counts[t])));
      }
      for (auto& tk : tickets) {
        results[static_cast<std::size_t>(t)].push_back(tk.wait());
      }
    });
  }
  for (auto& th : threads) th.join();
  svc.drain();

  core::Session solo(12);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kPerThread; ++j) {
      const auto& res =
          results[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
      const auto ref = core::syrk(
          solo, core::SyrkRequest(
                    inputs[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(j)])
                    .on_procs(caps[t])
                    .with_pipeline(chunk_counts[t]));
      EXPECT_TRUE(bitwise_equal(res.run.c, ref.c)) << t << "/" << j;
      EXPECT_EQ(res.run.total.total, ref.total.total) << t << "/" << j;
      EXPECT_EQ(res.run.total.max, ref.total.max) << t << "/" << j;
    }
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.pipelined_jobs,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(SyrkService, PoisonedRoundRetriesPipelinedInnocentsBitwise) {
  // The guilty job is itself pipelined: the 2D kernel's n1 % c² rejection
  // fires inside the SPMD body, after dispatch — so the world is poisoned
  // while the innocent's chunked collectives are (potentially) in flight.
  // Recovery must tear every in-flight job down, and the innocent's solo
  // retry must be bitwise-identical to a clean solo run.
  service::SyrkService svc(packable_options(12));
  Matrix bad_a = random_matrix(18, 8, 5);     // 18 % 2² != 0
  Matrix good_1d = random_matrix(24, 48, 6);
  Matrix good_2d = random_matrix(16, 8, 7);
  auto bad =
      svc.submit(core::SyrkRequest(bad_a).use_2d(2).with_pipeline(3));
  auto g1 =
      svc.submit(core::SyrkRequest(good_1d).on_procs(4).with_pipeline(2));
  EXPECT_THROW(bad.wait(), InvalidArgument);
  const auto r1 = g1.wait();
  svc.drain();
  // With exactly two jobs submitted and interleaved, the guilty one is
  // retried solo; the innocent one too unless it completed in the stream
  // (batched) before the poisoning.
  const auto st_mid = svc.stats();
  if (st_mid.interleaved_jobs > 0) {
    const std::uint64_t casualty = r1.batched ? 0 : 1;
    EXPECT_EQ(st_mid.retried_jobs, 1u + casualty);
  }

  // Post-recovery: a fresh pipelined job runs on the recovered world.
  auto g2 =
      svc.submit(core::SyrkRequest(good_2d).use_2d(2).with_pipeline(4));
  const auto r2 = g2.wait();
  svc.drain();

  core::Session solo(12);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  const auto ref1 = core::syrk(
      solo, core::SyrkRequest(good_1d).on_procs(4).with_pipeline(2));
  const auto ref2 = core::syrk(
      solo, core::SyrkRequest(good_2d).use_2d(2).with_pipeline(4));
  EXPECT_TRUE(bitwise_equal(r1.run.c, ref1.c));
  EXPECT_TRUE(bitwise_equal(r2.run.c, ref2.c));
  EXPECT_EQ(r1.run.total.total, ref1.total.total);
  EXPECT_EQ(r2.run.total.total, ref2.total.total);

  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 1u);
  // Only completed jobs count as pipelined; the guilty one failed.
  EXPECT_EQ(st.pipelined_jobs, 2u);
}

TEST(SyrkService, HandAssembledNegativeChunksRejectedAtAdmission) {
  // SyrkOptions is an open aggregate: with_pipeline validates, but a
  // directly-stamped negative chunk count must still fail at admission
  // (not silently run blocking), and must not poison the service.
  service::SyrkService svc(packable_options(8));
  Matrix a = random_matrix(16, 32, 11);
  core::SyrkRequest bad(a);
  bad.options.pipeline_chunks = -1;
  auto ticket = svc.submit(std::move(bad));
  EXPECT_THROW(ticket.wait(), InvalidArgument);
  EXPECT_EQ(ticket.status(), service::TicketStatus::kFailed);

  // Same guard for a hand-stamped bogus topology.
  core::SyrkRequest bad_topo(a);
  bad_topo.options.ranks_per_node = 0;
  auto t2 = svc.submit(std::move(bad_topo));
  EXPECT_THROW(t2.wait(), InvalidArgument);

  // The service stays healthy for well-formed follow-ups.
  auto ok = svc.submit(core::SyrkRequest(a).on_procs(4).with_pipeline(2));
  const auto& res = ok.wait();
  EXPECT_LT(max_abs_diff(res.run.c.view(), syrk_reference(a.view()).view()),
            1e-9);
  svc.drain();
  EXPECT_EQ(svc.stats().failed, 2u);
}

TEST(SyrkService, TopologyParticipatesInPlanCacheKey) {
  // Same shape, different ranks_per_node: distinct plan-cache entries (the
  // two-tier pricing can pick different plans). Repeats of each must hit.
  service::SyrkService svc(packable_options(8));
  Matrix a = random_matrix(24, 48, 3);
  for (int repeat = 0; repeat < 2; ++repeat) {
    svc.submit(core::SyrkRequest(a)).wait();
    svc.submit(core::SyrkRequest(a).with_topology(2)).wait();
  }
  svc.drain();
  const auto st = svc.stats();
  // One miss per distinct (shape, topology) key — a single miss here would
  // mean ranks_per_node leaked out of the cache key. Each request resolves
  // once, at admission, so repeats only add hits.
  EXPECT_EQ(st.plan_cache.misses, 2u);
  EXPECT_EQ(st.plan_cache.entries, 2u);
  EXPECT_GE(st.plan_cache.hits, 2u);
}

TEST(SyrkService, TopologyRequestsRunSoloWithNodeAccounting) {
  // A topology'd request stamps its rpn on the shared session world, so it
  // must never share the world; the result carries the node count and the
  // per-node inter summary, and streamed flat jobs are unaffected.
  service::SyrkService svc(packable_options(8));
  Matrix a = random_matrix(16, 24, 9);
  Matrix b = random_matrix(20, 12, 4);
  auto topo =
      svc.submit(core::SyrkRequest(a).use_1d().on_procs(8).with_topology(2));
  auto flat1 = svc.submit(core::SyrkRequest(b).on_procs(4));
  auto flat2 = svc.submit(core::SyrkRequest(b).on_procs(4));
  const auto rt = topo.wait();
  const auto r1 = flat1.wait();
  const auto r2 = flat2.wait();
  svc.drain();

  EXPECT_FALSE(rt.batched);
  EXPECT_EQ(rt.run.nodes, 4);
  EXPECT_GT(rt.run.total_inter.max.words_sent, 0u);
  // Flat jobs (whether streamed or solo) never report a topology.
  EXPECT_EQ(r1.run.nodes, 0);
  EXPECT_EQ(r2.run.nodes, 0);

  core::Session solo(8);
  const auto ref = core::syrk(
      solo, core::SyrkRequest(a).use_1d().on_procs(8).with_topology(2));
  EXPECT_TRUE(bitwise_equal(rt.run.c, ref.c));
  EXPECT_LT(max_abs_diff(r1.run.c.view(), syrk_reference(b.view()).view()),
            1e-9);
}

TEST(SyrkService, AdmissionPricesThePlanThatRuns) {
  // An explicit hierarchical reduce on a topology runs the hierarchical
  // strategy; the admission price must be that plan's, not the pairwise
  // tier split's.
  service::ServiceOptions opts;
  opts.procs = 8;
  service::SyrkService svc(opts);
  Matrix a = random_matrix(64, 32, 6);
  const service::SyrkResult r =
      svc.syrk(core::SyrkRequest(a)
                   .use_1d(8)
                   .with_reduce(core::ReduceKind::kHierarchical)
                   .with_topology(4));
  EXPECT_EQ(r.run.plan.strategy, core::CollectiveStrategy::kHierarchical);
  EXPECT_EQ(r.latency.modeled_seconds,
            core::plan_modeled_seconds(64, 32, r.run.plan,
                                       opts.plan_options.machine, 4));
}

TEST(SyrkService, EachTicketResolvesItsPlanOnce) {
  // Admission resolves a planner-path ticket through the plan cache; the
  // streamed and the solo paths both run the admitted plan, so every kind
  // of ticket costs exactly one cache lookup.
  service::ServiceOptions opts;
  opts.procs = 4;
  service::SyrkService svc(opts);
  Matrix flat = random_matrix(24, 48, 2);
  Matrix skinny = random_matrix(192, 16, 3);  // folds 6 logical ranks onto 4
  auto lookups = [&] {
    const service::PlanCache::Stats s = svc.stats().plan_cache;
    return s.hits + s.misses;
  };
  auto expect_one_lookup = [&](const core::SyrkRequest& req) {
    const std::uint64_t before = lookups();
    const service::SyrkResult r = svc.syrk(req);
    EXPECT_EQ(lookups() - before, 1u);
    return r;
  };
  for (int repeat = 0; repeat < 2; ++repeat) {
    SCOPED_TRACE(testing::Message() << "repeat " << repeat);
    const auto streamed =
        expect_one_lookup(core::SyrkRequest(flat).on_procs(2));
    EXPECT_FALSE(streamed.run.plan.folded());
    const auto topology =
        expect_one_lookup(core::SyrkRequest(flat).with_topology(2));
    EXPECT_EQ(topology.run.nodes, 2);
    const auto folded = expect_one_lookup(core::SyrkRequest(skinny));
    EXPECT_TRUE(folded.run.plan.folded());
  }
  EXPECT_EQ(svc.stats().plan_cache.misses, 3u);
}

}  // namespace
}  // namespace parsyrk
