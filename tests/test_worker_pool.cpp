// Persistent worker-pool executor: leases, warm dispatch, and back-to-back
// jobs on one warm world.
//
// The load-bearing property: after a World's construction, running jobs
// creates NO threads — bodies are handed to already-parked workers. These
// tests pin that down with a private pool whose thread-creation counter is
// observable, and exercise per-job ledger scoping (snapshot before each
// World::run, summary_since after), per-job phase attribution, and failure
// isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/check.hpp"

namespace parsyrk::comm {
namespace {

TEST(WorkerPool, DispatchRunsEveryTask) {
  WorkerPool pool;
  std::atomic<int> sum{0};
  {
    auto lease = pool.acquire(8);
    ASSERT_EQ(lease.size(), 8);
    for (int i = 0; i < 8; ++i) {
      lease.dispatch(i, [&sum, i] { sum += i + 1; });
    }
    lease.wait();
  }
  EXPECT_EQ(sum.load(), 36);
  EXPECT_EQ(pool.threads_created(), 8u);
}

TEST(WorkerPool, LeasesReuseParkedWorkers) {
  WorkerPool pool;
  for (int round = 0; round < 5; ++round) {
    auto lease = pool.acquire(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i) lease.dispatch(i, [&ran] { ++ran; });
    lease.wait();
    EXPECT_EQ(ran.load(), 4);
  }
  // Workers were created once and parked between leases.
  EXPECT_EQ(pool.threads_created(), 4u);
  EXPECT_EQ(pool.idle(), 4);
}

TEST(WorkerPool, GrowsOnlyByTheShortfall) {
  WorkerPool pool;
  { auto lease = pool.acquire(3); }
  EXPECT_EQ(pool.threads_created(), 3u);
  { auto lease = pool.acquire(7); }
  EXPECT_EQ(pool.threads_created(), 7u);
  { auto lease = pool.acquire(5); }
  EXPECT_EQ(pool.threads_created(), 7u);
}

TEST(WorkerPool, ConcurrentLeasesAreDisjoint) {
  WorkerPool pool;
  auto a = pool.acquire(3);
  auto b = pool.acquire(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    a.dispatch(i, [&ran] { ++ran; });
    b.dispatch(i, [&ran] { ++ran; });
  }
  a.wait();
  b.wait();
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(pool.threads_created(), 6u);
}

TEST(WorkerPool, WorldRunCreatesNoThreadsAfterWarmup) {
  // The tentpole acceptance check: 100 jobs on one World, zero thread
  // creation after the lease at construction.
  WorkerPool pool;
  World world(6, pool);
  const std::uint64_t warm = pool.threads_created();
  EXPECT_EQ(warm, 6u);
  for (int job = 0; job < 100; ++job) {
    world.run([&](Comm& comm) {
      auto all = comm.all_gather(std::vector<double>{1.0 * comm.rank()});
      ASSERT_EQ(all.size(), 6u);
      for (int r = 0; r < 6; ++r) ASSERT_DOUBLE_EQ(all[r], 1.0 * r);
    });
  }
  EXPECT_EQ(world.jobs_run(), 100u);
  EXPECT_EQ(pool.threads_created(), warm);
}

TEST(WorkerPool, WorldsShareOneProcessPool) {
  // Sequential Worlds of the same size lease the same parked threads from
  // the shared pool rather than spawning their own.
  { World warmup(4); }
  const std::uint64_t before = WorkerPool::shared().threads_created();
  for (int i = 0; i < 10; ++i) {
    World world(4);
    world.run([](Comm& comm) { comm.barrier(); });
  }
  EXPECT_EQ(WorkerPool::shared().threads_created(), before);
}

/// One job on a warm world, scoped the way Session scopes a request: the
/// ledger is snapshotted before World::run and diffed after, and a job that
/// throws leaves its error here instead of propagating.
struct ScopedJob {
  CostSummary cost;
  std::exception_ptr error;
};

ScopedJob run_scoped(World& world, const std::function<void(Comm&)>& body) {
  ScopedJob job;
  const CostLedger::Snapshot before = world.ledger().snapshot();
  try {
    world.run(body);
  } catch (...) {
    job.error = std::current_exception();
  }
  job.cost = world.ledger().summary_since(before);
  return job;
}

TEST(WarmWorld, RunsJobsInOrderWithScopedCosts) {
  WorkerPool pool;
  World world(4, pool);
  // Job 1: every rank sends 3 words to its successor. Job 2: 5 words.
  std::vector<ScopedJob> results;
  for (const int words : {3, 5}) {
    results.push_back(run_scoped(world, [words](Comm& comm) {
      const int p = comm.size();
      const int dst = (comm.rank() + 1) % p;
      const int src = (comm.rank() + p - 1) % p;
      comm.send(dst, 0, std::vector<double>(words, 1.0));
      auto got = comm.recv(src, 0);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(words));
    }));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(world.jobs_run(), 2u);

  EXPECT_EQ(results[0].error, nullptr);
  EXPECT_EQ(results[0].cost.total.words_sent, 12u);  // 4 ranks x 3 words
  EXPECT_EQ(results[0].cost.max.msgs_sent, 1u);
  EXPECT_EQ(results[1].cost.total.words_sent, 20u);  // scoped: not 12+20
  // The world's cumulative ledger still holds both jobs.
  EXPECT_EQ(world.ledger().summary().total.words_sent, 32u);
}

TEST(WarmWorld, FailingJobPoisonsOnlyItself) {
  WorkerPool pool;
  World world(5, pool);
  const std::uint64_t warm = pool.threads_created();
  std::vector<ScopedJob> results;
  results.push_back(run_scoped(world, [](Comm& comm) { comm.barrier(); }));
  results.push_back(run_scoped(world, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
    // Peers block in a collective and must unwind via poisoning.
    comm.all_gather(std::vector<double>{1.0});
  }));
  results.push_back(run_scoped(world, [](Comm& comm) {
    auto all = comm.all_gather(std::vector<double>{2.0});
    ASSERT_EQ(all.size(), 5u);
  }));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].error, nullptr);
  ASSERT_NE(results[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::runtime_error);
  EXPECT_EQ(results[2].error, nullptr);
  // The pool survived the poisoned job: same threads, still reusable.
  EXPECT_EQ(pool.threads_created(), warm);
  world.run([](Comm& comm) { comm.barrier(); });
}

TEST(WarmWorld, ScopedCostsMatchFreshWorlds) {
  // Per-job ledger scoping on a reused world reports exactly what a fresh
  // world per job would: same words, same messages, per job.
  auto body = [](int words) {
    return [words](Comm& comm) {
      std::vector<double> data(static_cast<std::size_t>(words) *
                               static_cast<std::size_t>(comm.size()));
      auto mine = comm.reduce_scatter_equal(data);
      auto all = comm.all_gather(mine);
      ASSERT_EQ(all.size(), data.size());
    };
  };
  const int kJobs[] = {2, 7, 3, 7, 2};

  std::vector<CostSummary> fresh;
  for (int words : kJobs) {
    World world(6);
    world.run(body(words));
    fresh.push_back(world.ledger().summary());
  }

  World warm(6);
  std::vector<ScopedJob> results;
  for (int words : kJobs) results.push_back(run_scoped(warm, body(words)));
  ASSERT_EQ(results.size(), std::size(kJobs));
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].error, nullptr);
    EXPECT_EQ(results[i].cost.total, fresh[i].total) << "job " << i;
    EXPECT_EQ(results[i].cost.max, fresh[i].max) << "job " << i;
  }
}

// Job 1 names phase "x" and rank 0 sends 5 words to rank 1; job 2 names no
// phase and sends 7. Job 2's words belong in "default", as on a fresh world.
void send_words(Comm& comm, int words) {
  if (comm.rank() == 0) {
    comm.send(1, 0, std::vector<double>(static_cast<std::size_t>(words), 1.0));
  } else {
    comm.recv(0, 0);
  }
}

void named_job(Comm& comm) {
  comm.set_phase("x");
  send_words(comm, 5);
}

void unnamed_job(Comm& comm) { send_words(comm, 7); }

TEST(LedgerPhases, EveryJobStartsInDefault) {
  World fresh(2);
  fresh.enable_tracing();
  fresh.run(unnamed_job);
  EXPECT_EQ(fresh.ledger().summary("default").total.words_sent, 7u);
  const JobTrace fresh_trace = fresh.trace_sink()->drain(false);
  ASSERT_EQ(fresh_trace.phases, std::vector<std::string>{"default"});

  World warm(2);
  warm.enable_tracing();
  warm.run(named_job);
  const CostLedger::Snapshot before = warm.ledger().snapshot();
  warm.run(unnamed_job);
  const CostLedger& ledger = warm.ledger();
  EXPECT_EQ(ledger.summary_since(before, "default").total.words_sent, 7u);
  EXPECT_EQ(ledger.summary_since(before, "x").total.words_sent, 0u);
  EXPECT_EQ(ledger.summary("x").total.words_sent, 5u);
  // phases() lists only the names jobs passed to set_phase.
  EXPECT_EQ(ledger.phases(), std::vector<std::string>{"x"});
  // Job 2's trace, phase table included, equals the fresh world's.
  const JobTrace trace = warm.trace_sink()->drain(false);
  EXPECT_EQ(trace.phases, fresh_trace.phases);
  EXPECT_EQ(trace.events, fresh_trace.events);
}

TEST(LedgerPhases, LaunchedRangeStartsInDefault) {
  World world(4);
  world.enable_tracing();
  RangeJob first = world.launch_ranks(2, 4, named_job);
  first.wait();
  ASSERT_FALSE(first.failed());
  const CostLedger::Snapshot before = world.ledger().snapshot();
  RangeJob second = world.launch_ranks(2, 4, unnamed_job);
  second.wait();
  ASSERT_FALSE(second.failed());
  const CostLedger& ledger = world.ledger();
  EXPECT_EQ(ledger.summary_since(before, "default", 2, 4).total.words_sent,
            7u);
  EXPECT_EQ(ledger.summary_since(before, "x", 2, 4).total.words_sent, 0u);
  const JobTrace trace = extract_rank_range(
      world.trace_sink()->drain_ranks(false, 2, 4, second.job_id()), 2, 4);
  EXPECT_EQ(trace.phases, std::vector<std::string>{"default"});
}

// A whole-world job's results, ledger readings and trace.
struct WholeWorldJob {
  std::vector<std::vector<double>> out;  // per rank
  std::vector<CostSummary> summaries;    // all phases, then each phase
  CostSummary inter;                     // topology'd worlds only
  JobTrace trace;
};

/// Runs one body — pairwise and hierarchical collectives under three
/// phases — on a fresh world of `logical` ranks folded onto `physical`,
/// with `ranks_per_node` ranks per node, either through World::run or
/// through launch_ranks(0, size()) and RangeJob::wait.
WholeWorldJob run_whole_world(int logical, int physical, int ranks_per_node,
                              bool launched) {
  World world(logical, physical);
  world.set_topology(ranks_per_node);
  world.enable_tracing();
  WholeWorldJob job;
  job.out.resize(static_cast<std::size_t>(logical));
  auto body = [&](Comm& comm) {
    const int p = comm.size();
    const double r = comm.rank();
    std::vector<double>& out = job.out[static_cast<std::size_t>(comm.rank())];
    comm.set_phase("gather");
    out = comm.all_gather(std::vector<double>(3, r + 1.0));
    comm.set_phase("reduce");
    std::vector<double> buf(static_cast<std::size_t>(2 * p));
    std::iota(buf.begin(), buf.end(), 10.0 * r);
    for (double v : comm.reduce_scatter_hier(
             buf, std::vector<std::size_t>(static_cast<std::size_t>(p), 2))) {
      out.push_back(v);
    }
    comm.set_phase("exchange");
    std::vector<std::vector<double>> send(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      send[static_cast<std::size_t>(q)].assign(static_cast<std::size_t>(q + 1),
                                               r);
    }
    for (const auto& part : comm.all_to_all_v_hier(send)) {
      out.insert(out.end(), part.begin(), part.end());
    }
  };
  if (launched) {
    RangeJob range = world.launch_ranks(0, world.size(), body);
    range.wait();
    EXPECT_FALSE(range.failed());
    EXPECT_FALSE(range.aborted());
    job.trace = world.trace_sink()->drain_ranks(false, 0, world.size(),
                                                range.job_id());
  } else {
    world.run(body);
    job.trace = world.trace_sink()->drain(false);
  }
  const CostLedger& ledger = world.ledger();
  job.summaries.push_back(ledger.summary());
  for (const char* phase : {"gather", "reduce", "exchange"}) {
    job.summaries.push_back(ledger.summary(phase));
  }
  if (ranks_per_node > 1) job.inter = ledger.inter_summary();
  return job;
}

void expect_same_summary(const CostSummary& a, const CostSummary& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.ranks, b.ranks);
}

TEST(WholeWorldLaunch, MatchesWorldRunOnFoldedAndTopologyWorlds) {
  struct Shape {
    int logical, physical, ranks_per_node;
  };
  for (const Shape s : {Shape{6, 4, 1}, Shape{4, 4, 2}}) {
    SCOPED_TRACE(testing::Message() << s.logical << " on " << s.physical
                                    << ", " << s.ranks_per_node
                                    << " ranks per node");
    const WholeWorldJob run =
        run_whole_world(s.logical, s.physical, s.ranks_per_node, false);
    const WholeWorldJob launched =
        run_whole_world(s.logical, s.physical, s.ranks_per_node, true);
    EXPECT_EQ(run.out, launched.out);
    ASSERT_EQ(run.summaries.size(), launched.summaries.size());
    for (std::size_t i = 0; i < run.summaries.size(); ++i) {
      expect_same_summary(run.summaries[i], launched.summaries[i]);
    }
    expect_same_summary(run.inter, launched.inter);
    EXPECT_GT(run.summaries[0].total.words_sent, 0u);
    if (s.ranks_per_node > 1) {
      EXPECT_GT(run.inter.total.words_sent, 0u);
    }
    EXPECT_EQ(run.trace.job_id, launched.trace.job_id);
    EXPECT_EQ(run.trace.ranks, launched.trace.ranks);
    EXPECT_EQ(run.trace.physical_ranks, launched.trace.physical_ranks);
    EXPECT_EQ(run.trace.ranks_per_node, launched.trace.ranks_per_node);
    EXPECT_EQ(run.trace.phases, launched.trace.phases);
    EXPECT_EQ(run.trace.events, launched.trace.events);
    EXPECT_FALSE(run.trace.events.empty());
  }
}

TEST(WholeWorldLaunch, PartialRangesNeedAnUnfoldedFlatWorld) {
  World folded(6, 4);
  World topology(4);
  topology.set_topology(2);
  const auto idle = [](Comm&) {};
  EXPECT_THROW(folded.launch_ranks(0, 3, idle), InvalidArgument);
  EXPECT_THROW(folded.launch_ranks(3, 6, idle), InvalidArgument);
  EXPECT_THROW(topology.launch_ranks(0, 2, idle), InvalidArgument);
  EXPECT_THROW(topology.launch_ranks(2, 4, idle), InvalidArgument);
  // The rejected launches left both worlds idle and usable.
  EXPECT_EQ(folded.jobs_run(), 0u);
  EXPECT_EQ(topology.jobs_run(), 0u);
  folded.run(idle);
  topology.run(idle);
  EXPECT_EQ(folded.jobs_run(), 1u);
  EXPECT_EQ(topology.jobs_run(), 1u);
}

TEST(LedgerSnapshots, SinceDiffsAreExact) {
  CostLedger ledger(2);
  ledger.set_phase(0, "a");
  ledger.record(0, ledger.phase_of(0), Dir::kSend, 10, Tier::kInter);
  auto snap = ledger.snapshot();
  ledger.record(0, ledger.phase_of(0), Dir::kSend, 7, Tier::kInter);
  ledger.set_phase(1, "b");
  ledger.record(1, ledger.phase_of(1), Dir::kRecv, 4, Tier::kInter);

  const auto since = ledger.summary_since(snap);
  EXPECT_EQ(since.total.words_sent, 7u);
  EXPECT_EQ(since.total.words_recv, 4u);
  EXPECT_EQ(ledger.summary().total.words_sent, 17u);

  const auto phase_a = ledger.summary_since(snap, "a");
  EXPECT_EQ(phase_a.total.words_sent, 7u);
  const auto per_rank = ledger.per_rank_since(snap);
  ASSERT_EQ(per_rank.size(), 2u);
  EXPECT_EQ(per_rank[0].words_sent, 7u);
  EXPECT_EQ(per_rank[1].words_recv, 4u);
}

}  // namespace
}  // namespace parsyrk::comm
