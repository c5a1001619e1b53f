// Tracing under failure isolation: a rank that throws mid-job poisons only
// its own job — the recorder must flush the poisoned job's partial events
// (flagged), stay internally consistent, and produce byte-identical traces
// for every surrounding job, exactly as the ledger does for costs.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/rng.hpp"
#include "trace/export.hpp"

namespace parsyrk::comm {
namespace {

/// `rounds` all-gathers; throws on `bad_rank` before round `fail_round`
/// (−1 = never). Mirrors the fuzz suite's failing-job machinery.
std::function<void(Comm&)> rounds_body(int rounds, int n, int fail_round,
                                       int bad_rank) {
  return [rounds, n, fail_round, bad_rank](Comm& comm) {
    for (int round = 0; round < rounds; ++round) {
      if (round == fail_round && comm.rank() == bad_rank) {
        throw std::runtime_error("traced failure");
      }
      comm.set_phase("round" + std::to_string(round));
      auto all = comm.all_gather(std::vector<double>(n, 1.0 * comm.rank()));
      ASSERT_EQ(all.size(), static_cast<std::size_t>(n) * comm.size());
    }
  };
}

/// One job on a warm traced world, with its job-scoped ledger cost and the
/// trace drained at the same boundary (flagged poisoned when the job
/// threw). A throwing job's error is kept here, not propagated.
struct TracedJob {
  CostSummary cost;
  std::exception_ptr error;
  JobTrace trace;
};

TracedJob run_traced(World& world, const std::function<void(Comm&)>& body) {
  TracedJob job;
  const CostLedger::Snapshot before = world.ledger().snapshot();
  try {
    world.run(body);
  } catch (...) {
    job.error = std::current_exception();
  }
  job.cost = world.ledger().summary_since(before);
  job.trace = world.trace_sink()->drain(/*poisoned=*/job.error != nullptr);
  return job;
}

/// The trace of one clean job on a fresh traced world, serialized.
std::string fresh_trace_bytes(int p, int rounds, int n) {
  World world(p);
  world.enable_tracing();
  world.run(rounds_body(rounds, n, -1, 0));
  return trace::to_binary(world.trace_sink()->drain(false));
}

TEST(TraceFailure, PoisonedJobFlushesFlaggedTrace) {
  const int p = 4;
  World world(p);
  world.enable_tracing();
  std::vector<TracedJob> results;
  results.push_back(run_traced(world, rounds_body(3, 2, -1, 0)));
  results.push_back(run_traced(
      world, rounds_body(3, 2, /*fail_round=*/1, /*bad_rank=*/2)));
  results.push_back(run_traced(world, rounds_body(3, 2, -1, 0)));
  ASSERT_EQ(results.size(), 3u);

  ASSERT_EQ(results[0].error, nullptr);
  ASSERT_NE(results[1].error, nullptr);
  ASSERT_EQ(results[2].error, nullptr);

  // Every job — including the poisoned one — drained a trace.
  for (std::size_t j = 0; j < results.size(); ++j) {
    ASSERT_EQ(results[j].trace.job_id, j + 1) << "job " << j;
  }

  const JobTrace& bad = results[1].trace;
  EXPECT_TRUE(bad.poisoned);
  EXPECT_EQ(bad.dropped, 0u);
  // Round 0 completed on all ranks before the failure, so the partial
  // flush holds at least that round's traffic.
  EXPECT_FALSE(bad.events.empty());
  for (const TraceEvent& e : bad.events) {
    EXPECT_EQ(e.kind, OpKind::kAllGather);
  }

  // The surrounding jobs are untouched: byte-identical to each other and
  // to a fresh world's run of the same body, and consistent with their own
  // job-scoped ledger costs.
  const std::string fresh = fresh_trace_bytes(p, 3, 2);
  EXPECT_EQ(trace::to_binary(results[0].trace), fresh);
  EXPECT_EQ(trace::to_binary(results[2].trace), fresh);
  for (const int j : {0, 2}) {
    const trace::Rollup roll(results[j].trace);
    EXPECT_EQ(roll.summary().total, results[j].cost.total) << "job " << j;
    EXPECT_EQ(roll.summary().max, results[j].cost.max) << "job " << j;
  }
  EXPECT_FALSE(results[0].trace.poisoned);
  EXPECT_FALSE(results[2].trace.poisoned);
}

TEST(TraceFailure, ImmediateFailureYieldsEmptyPoisonedTrace) {
  World world(3);
  world.enable_tracing();
  const TracedJob result =
      run_traced(world, rounds_body(2, 1, /*fail_round=*/0, /*bad_rank=*/0));
  ASSERT_NE(result.error, nullptr);
  EXPECT_TRUE(result.trace.poisoned);
  // Rank 0 threw before any message; peers may or may not have started
  // their sends — whatever was recorded must still round-trip cleanly.
  const JobTrace parsed = trace::from_binary(trace::to_binary(result.trace));
  EXPECT_TRUE(parsed.poisoned);
  EXPECT_EQ(parsed.events, result.trace.events);
}

class TraceFailureFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFailureFuzz, RandomFailingSequencesKeepRecorderConsistent) {
  // Random job sequences with one failing job, run back to back on one
  // traced warm world: every clean job's trace must match a fresh traced world's bytes,
  // and the world must keep producing fresh-identical traces afterwards.
  Rng planner(GetParam());
  const int p = static_cast<int>(planner.uniform_int(2, 8));
  const int jobs = static_cast<int>(planner.uniform_int(3, 6));
  const int bad_job = static_cast<int>(planner.uniform_int(0, jobs - 1));
  const int bad_rank = static_cast<int>(planner.uniform_int(0, p - 1));

  std::vector<int> sizes(jobs), fail_round(jobs, -1);
  for (int j = 0; j < jobs; ++j) {
    sizes[j] = static_cast<int>(planner.uniform_int(1, 5));
  }
  fail_round[bad_job] = static_cast<int>(planner.uniform_int(0, 2));

  std::vector<std::string> fresh(jobs);
  for (int j = 0; j < jobs; ++j) {
    if (j == bad_job) continue;
    fresh[j] = fresh_trace_bytes(p, 3, sizes[j]);
  }

  WorkerPool pool;
  World world(p, pool);
  world.enable_tracing();
  const std::uint64_t warm = pool.threads_created();
  for (int j = 0; j < jobs; ++j) {
    const TracedJob result = run_traced(
        world, rounds_body(3, sizes[j], fail_round[j], bad_rank));
    ASSERT_EQ(result.trace.job_id, static_cast<std::uint64_t>(j + 1))
        << "job " << j;
    if (j == bad_job) {
      EXPECT_NE(result.error, nullptr) << "job " << j;
      EXPECT_TRUE(result.trace.poisoned) << "job " << j;
      continue;
    }
    EXPECT_EQ(result.error, nullptr) << "job " << j;
    EXPECT_FALSE(result.trace.poisoned) << "job " << j;
    EXPECT_EQ(trace::to_binary(result.trace), fresh[j]) << "job " << j;
  }
  EXPECT_EQ(pool.threads_created(), warm);

  // Recorder (and runtime) fully recovered: one more traced job matches a
  // fresh world byte-for-byte.
  world.run(rounds_body(3, 2, -1, 0));
  EXPECT_EQ(trace::to_binary(world.trace_sink()->drain(false)),
            fresh_trace_bytes(p, 3, 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFailureFuzz,
                         ::testing::Values(61, 62, 63, 64, 65));

}  // namespace
}  // namespace parsyrk::comm
