// Randomized fuzz tests for the streaming scheduler stack, alongside
// test_simmpi_fuzz: plan_stream_step invariants over random hole/queue
// shapes, World::launch_ranks interleaving (random disjoint ranges running
// random collective scripts concurrently, validated against fresh solo
// worlds rank for rank), poison/recovery of in-flight ranges, and whole
// randomized workloads through the streaming SyrkService compared bitwise
// to solo runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "service/scheduler.hpp"
#include "service/service.hpp"
#include "simmpi/comm.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parsyrk {
namespace {

// Like test_simmpi_fuzz, this suite runs fully verified: the streaming
// scheduler's mid-flight rank-subset launches are exactly the interleavings
// most likely to trip a false positive in the verifier's scope handling.
const bool kVerifyEnabled = [] {
  setenv("PARSYRK_VERIFY", "1", /*overwrite=*/1);
  return true;
}();

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

// ---------------------------------------------------------------------------
// plan_stream_step invariants under random holes and queues
// ---------------------------------------------------------------------------

class FuzzStreamStep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzStreamStep, DispatchDecisionsKeepTheInvariants) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 200; ++iter) {
    const int world = static_cast<int>(rng.uniform_int(2, 24));
    // Random maximal free intervals: walk the world, flipping between
    // busy and free runs.
    std::vector<service::RankInterval> free;
    int at = 0;
    bool is_free = rng.uniform_int(0, 1) == 0;
    while (at < world) {
      const int len =
          static_cast<int>(rng.uniform_int(1, static_cast<std::uint64_t>(
                                                  world - at)));
      if (is_free) free.push_back({at, len});
      at += len;
      is_free = !is_free;
    }
    const std::size_t n_jobs = rng.uniform_int(1, 8);
    std::vector<service::JobSpec> queue(n_jobs);
    for (auto& j : queue) {
      j.ranks = rng.uniform_int(1, 8);
      j.modeled_seconds = static_cast<double>(rng.uniform_int(0, 100)) * 1e-3;
      j.solo = rng.uniform_int(0, 9) == 0;
    }
    service::AdmissionLimits limits;
    limits.modeled_seconds_per_round =
        static_cast<double>(rng.uniform_int(1, 200)) * 1e-3;
    limits.max_jobs_per_round = rng.uniform_int(1, 6);
    const double inflight_modeled =
        static_cast<double>(rng.uniform_int(0, 100)) * 1e-3;
    const std::size_t inflight_jobs = rng.uniform_int(0, 4);

    const auto placed = service::plan_stream_step(
        queue, free, inflight_modeled, inflight_jobs, limits);

    // FIFO prefix: placement i dispatches queue[i], nothing is skipped.
    for (std::size_t i = 0; i < placed.size(); ++i) {
      ASSERT_EQ(placed[i].job, i) << "seed " << seed << " iter " << iter;
      ASSERT_FALSE(queue[i].solo) << "solo job dispatched into the stream";
    }
    // Job cap honors in-flight jobs (the planner cannot shrink what is
    // already in flight; it may only refuse to add).
    const std::size_t cap = std::max<std::size_t>(1, limits.max_jobs_per_round);
    ASSERT_LE(placed.size(),
              inflight_jobs < cap ? cap - inflight_jobs : std::size_t{0})
        << "seed " << seed << " iter " << iter;
    // Every placement sits inside one free interval, and concurrently
    // placed jobs never overlap.
    std::vector<bool> used(static_cast<std::size_t>(world), true);
    for (const auto& iv : free) {
      for (int r = iv.base; r < iv.base + iv.extent; ++r) {
        used[static_cast<std::size_t>(r)] = false;
      }
    }
    for (const auto& pl : placed) {
      const auto ranks = queue[pl.job].ranks;
      ASSERT_GE(pl.base_rank, 0);
      ASSERT_LE(pl.base_rank + static_cast<int>(ranks), world);
      for (int r = pl.base_rank; r < pl.base_rank + static_cast<int>(ranks);
           ++r) {
        ASSERT_FALSE(used[static_cast<std::size_t>(r)])
            << "rank " << r << " double-booked (seed " << seed << ")";
        used[static_cast<std::size_t>(r)] = true;
      }
    }
    // Budget: every placement except the idle-world head (always exempt —
    // the no-starvation rule) passed the admission check at its dispatch
    // point; an over-budget exempt head additionally keeps its cost out of
    // the follower budget.
    double budget_used = inflight_modeled;
    for (const auto& pl : placed) {
      const bool exempt_head = pl.job == 0 && inflight_jobs == 0;
      if (!exempt_head) {
        ASSERT_LE(budget_used + queue[pl.job].modeled_seconds,
                  limits.modeled_seconds_per_round + 1e-12)
            << "seed " << seed << " iter " << iter;
      }
      if (!(exempt_head && queue[0].modeled_seconds >
                               limits.modeled_seconds_per_round)) {
        budget_used += queue[pl.job].modeled_seconds;
      }
    }
    // No starvation: an idle world with a packable non-solo head always
    // dispatches something.
    if (inflight_jobs == 0 && !queue[0].solo) {
      bool head_fits = false;
      for (const auto& iv : free) {
        head_fits = head_fits ||
                    static_cast<std::uint64_t>(iv.extent) >= queue[0].ranks;
      }
      if (head_fits) {
        ASSERT_FALSE(placed.empty()) << "seed " << seed << " iter " << iter;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStreamStep,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

// ---------------------------------------------------------------------------
// World::launch_ranks: random disjoint ranges, interleaved completion
// ---------------------------------------------------------------------------

/// Deterministic payload for (range, round, rank).
double val(int range, int round, int rank) {
  return range * 1e7 + round * 1e3 + rank;
}

/// A per-range collective script, identical on a range comm of a streamed
/// world and on rank-equivalent fresh solo worlds.
std::function<void(comm::Comm&)> range_script(int range, int rounds,
                                              const std::vector<int>& ops) {
  return [range, rounds, ops](comm::Comm& comm) {
    const int p = comm.size();
    for (int r = 0; r < rounds; ++r) {
      switch (ops[static_cast<std::size_t>(r)] % 3) {
        case 0: {
          auto all = comm.all_gather(
              std::vector<double>{val(range, r, comm.rank())});
          for (int s = 0; s < p; ++s) {
            ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(s)],
                             val(range, r, s));
          }
          break;
        }
        case 1: {
          std::vector<double> data(static_cast<std::size_t>(p), 1.0);
          auto mine = comm.reduce_scatter_equal(data);
          for (double x : mine) ASSERT_DOUBLE_EQ(x, 1.0 * p);
          break;
        }
        default: {
          comm::Comm sub = comm.split(comm.rank() % 2, comm.rank());
          auto ids = sub.all_gather(std::vector<double>{1.0 * comm.rank()});
          int expect = comm.rank() % 2;
          for (double x : ids) {
            ASSERT_DOUBLE_EQ(x, expect);
            expect += 2;
          }
          break;
        }
      }
    }
  };
}

class FuzzLaunchRanges : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzLaunchRanges, ConcurrentRangesMatchFreshWorldsRankForRank) {
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int p = static_cast<int>(planner.uniform_int(4, 16));

  // Random contiguous partition of [0, p) into 2+ ranges.
  std::vector<std::pair<int, int>> ranges;
  int at = 0;
  while (at < p) {
    const int extent = static_cast<int>(
        planner.uniform_int(1, static_cast<std::uint64_t>(
                                   std::max(1, (p - at) / 2 + 1))));
    ranges.emplace_back(at, at + extent);
    at += extent;
  }
  const int rounds = static_cast<int>(planner.uniform_int(3, 10));
  std::vector<std::vector<int>> ops(ranges.size());
  for (auto& o : ops) {
    o.resize(static_cast<std::size_t>(rounds));
    for (int& x : o) x = static_cast<int>(planner.uniform_int(0, 2));
  }

  // Per-rank reference counters from fresh solo worlds of each range size.
  comm::World streamed(p);
  std::vector<std::vector<comm::Counters>> fresh(ranges.size());
  for (std::size_t g = 0; g < ranges.size(); ++g) {
    comm::World solo(ranges[g].second - ranges[g].first);
    solo.run(range_script(static_cast<int>(g), rounds, ops[g]));
    fresh[g] = solo.ledger().per_rank();
  }

  // Launch every range concurrently — completion order is whatever the
  // pool produces — in randomized launch order, then wait in another
  // randomized order (so reaping interleaves with still-running ranges).
  std::vector<std::size_t> order(ranges.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  for (std::size_t g = order.size(); g > 1; --g) {
    std::swap(order[g - 1], order[planner.uniform_int(0, g - 1)]);
  }
  std::vector<comm::RangeJob> jobs(ranges.size());
  for (std::size_t g : order) {
    jobs[g] = streamed.launch_ranks(
        ranges[g].first, ranges[g].second,
        range_script(static_cast<int>(g), rounds, ops[g]));
  }
  for (std::size_t g = order.size(); g > 1; --g) {
    std::swap(order[g - 1], order[planner.uniform_int(0, g - 1)]);
  }
  for (std::size_t g : order) {
    jobs[g].wait();
    EXPECT_FALSE(jobs[g].failed());
    EXPECT_FALSE(jobs[g].aborted());
  }

  // Interleaved execution moved exactly the solo traffic, rank for rank.
  const auto per_rank = streamed.ledger().per_rank();
  for (std::size_t g = 0; g < ranges.size(); ++g) {
    for (int r = ranges[g].first; r < ranges[g].second; ++r) {
      const auto& got = per_rank[static_cast<std::size_t>(r)];
      const auto& want =
          fresh[g][static_cast<std::size_t>(r - ranges[g].first)];
      EXPECT_EQ(got.msgs_sent, want.msgs_sent) << "rank " << r;
      EXPECT_EQ(got.words_sent, want.words_sent) << "rank " << r;
      EXPECT_EQ(got.words_recv, want.words_recv) << "rank " << r;
    }
  }

  // The world still runs a whole-world job afterwards.
  streamed.run([&](comm::Comm& comm) {
    auto all = comm.all_gather(std::vector<double>{1.0});
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
  });
}

TEST_P(FuzzLaunchRanges, PoisonedRangeAbortsInflightAndRecovers) {
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int p = 12;
  const std::vector<std::pair<int, int>> ranges = {{0, 4}, {4, 8}, {8, 12}};
  const std::size_t bad =
      static_cast<std::size_t>(planner.uniform_int(0, 2));
  const int bad_rank = static_cast<int>(planner.uniform_int(0, 3));
  const int rounds = 6;
  std::vector<int> ops(rounds);
  for (int& x : ops) x = static_cast<int>(planner.uniform_int(0, 2));

  comm::World world(p);
  std::vector<comm::RangeJob> jobs(ranges.size());
  for (std::size_t g = 0; g < ranges.size(); ++g) {
    auto script = range_script(static_cast<int>(g), rounds, ops);
    std::function<void(comm::Comm&)> body = script;
    if (g == bad) {
      body = [script, bad_rank](comm::Comm& comm) {
        if (comm.rank() == bad_rank) {
          throw std::runtime_error("fuzzed range failure");
        }
        script(comm);
      };
    }
    jobs[g] = world.launch_ranks(ranges[g].first, ranges[g].second, body);
  }
  // Poison is world-wide: every job completes (failed or aborted), the
  // guilty range carries the real error.
  for (auto& j : jobs) j.wait();
  EXPECT_TRUE(jobs[bad].failed());
  EXPECT_THROW(std::rethrow_exception(jobs[bad].error()),
               std::runtime_error);
  for (std::size_t g = 0; g < ranges.size(); ++g) {
    if (g == bad) continue;
    // Innocents either finished before the poison landed or aborted.
    EXPECT_FALSE(jobs[g].failed()) << "range " << g;
  }

  // After recovery, the same ranges run cleanly.
  world.recover_after_failure();
  for (std::size_t g = 0; g < ranges.size(); ++g) {
    jobs[g] = world.launch_ranks(
        ranges[g].first, ranges[g].second,
        range_script(static_cast<int>(g), rounds, ops));
  }
  for (auto& j : jobs) {
    j.wait();
    EXPECT_FALSE(j.failed());
    EXPECT_FALSE(j.aborted());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLaunchRanges,
                         ::testing::Values(201, 202, 203, 204, 205, 206, 207,
                                           208, 209, 210, 211, 212));

// ---------------------------------------------------------------------------
// Randomized workloads through the streaming service
// ---------------------------------------------------------------------------

class FuzzStreamService : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzStreamService, RandomWorkloadsMatchSoloBitwise) {
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int procs = static_cast<int>(planner.uniform_int(8, 12));
  const int jobs = static_cast<int>(planner.uniform_int(6, 14));
  const bool inject_poison = planner.uniform_int(0, 2) == 0;
  const int bad_job =
      inject_poison ? static_cast<int>(planner.uniform_int(0, jobs - 1)) : -1;

  const std::uint64_t cap_pool[] = {2, 3, 4, 6};
  std::vector<std::uint64_t> caps(static_cast<std::size_t>(jobs));
  std::vector<int> chunks(static_cast<std::size_t>(jobs));
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    caps[static_cast<std::size_t>(j)] = cap_pool[planner.uniform_int(0, 3)];
    chunks[static_cast<std::size_t>(j)] =
        planner.uniform_int(0, 1) == 0
            ? 0
            : static_cast<int>(planner.uniform_int(2, 5));
    inputs.push_back(random_matrix(8 * planner.uniform_int(2, 6),
                                   planner.uniform_int(16, 48),
                                   seed * 1000 + static_cast<unsigned>(j)));
  }
  Matrix bad_a = random_matrix(18, 8, 5);  // 18 % 2² != 0: in-body failure

  service::ServiceOptions opts;
  opts.procs = procs;
  opts.plan_options.allow_folding = false;
  service::SyrkService svc(opts);

  std::vector<service::SyrkTicket> tickets;
  for (int j = 0; j < jobs; ++j) {
    if (j == bad_job) {
      tickets.push_back(svc.submit(core::SyrkRequest(bad_a).use_2d(2)));
      continue;
    }
    core::SyrkRequest req(inputs[static_cast<std::size_t>(j)]);
    req.on_procs(caps[static_cast<std::size_t>(j)]);
    if (chunks[static_cast<std::size_t>(j)] > 0) {
      req.with_pipeline(chunks[static_cast<std::size_t>(j)]);
    }
    tickets.push_back(svc.submit(std::move(req)));
  }

  core::Session solo(procs);
  core::PlanSearchOptions plan_opts;
  plan_opts.allow_folding = false;
  solo.set_plan_options(plan_opts);
  for (int j = 0; j < jobs; ++j) {
    if (j == bad_job) {
      EXPECT_THROW(tickets[static_cast<std::size_t>(j)].wait(),
                   InvalidArgument);
      continue;
    }
    const auto& res = tickets[static_cast<std::size_t>(j)].wait();
    core::SyrkRequest req(inputs[static_cast<std::size_t>(j)]);
    req.on_procs(caps[static_cast<std::size_t>(j)]);
    if (chunks[static_cast<std::size_t>(j)] > 0) {
      req.with_pipeline(chunks[static_cast<std::size_t>(j)]);
    }
    const auto ref = core::syrk(solo, std::move(req));
    EXPECT_TRUE(bitwise_equal(res.run.c, ref.c)) << "job " << j;
    EXPECT_EQ(res.run.total.total, ref.total.total) << "job " << j;
    EXPECT_EQ(res.run.total.max, ref.total.max) << "job " << j;
  }
  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.failed, inject_poison ? 1u : 0u);
  EXPECT_EQ(st.completed,
            static_cast<std::uint64_t>(jobs) - (inject_poison ? 1u : 0u));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStreamService,
                         ::testing::Values(301, 302, 303, 304, 305, 306, 307,
                                           308, 309, 310));

}  // namespace
}  // namespace parsyrk
