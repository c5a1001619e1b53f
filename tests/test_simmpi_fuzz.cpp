// Randomized fuzz tests for the message-passing runtime: random sequences
// of collectives over random sub-communicators, validated against a
// sequential oracle computed from the same seeds. Exercises collective
// interleaving, tag-space isolation between operations, and communicator
// splitting under load.
#include <gtest/gtest.h>

#include <exception>
#include <numeric>
#include <stdexcept>

#include "core/session.hpp"
#include "matrix/random.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/rng.hpp"

namespace parsyrk::comm {
namespace {

// The fuzz suite doubles as the verifier's zero-false-positive gate: every
// randomized world below runs with full SPMD protocol verification on, so
// any over-eager invariant (collective matching, watchdog, leak or ledger
// checks) fails loudly here before it can reject a correct program.
const bool kVerifyEnabled = [] {
  setenv("PARSYRK_VERIFY", "1", /*overwrite=*/1);
  return true;
}();

/// Deterministic payload for (round, rank, slot).
double val(int round, int rank, int slot) {
  return round * 1e6 + rank * 1e3 + slot;
}

class FuzzWorlds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzWorlds, RandomCollectiveSequences) {
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int p = static_cast<int>(planner.uniform_int(2, 13));
  const int rounds = static_cast<int>(planner.uniform_int(5, 25));
  // Pre-plan the operation sequence so every rank follows the same script.
  std::vector<int> ops(rounds);
  std::vector<int> sizes(rounds);
  std::vector<int> roots(rounds);
  for (int r = 0; r < rounds; ++r) {
    ops[r] = static_cast<int>(planner.uniform_int(0, 5));
    sizes[r] = static_cast<int>(planner.uniform_int(1, 9));
    roots[r] = static_cast<int>(planner.uniform_int(0, p - 1));
  }

  World world(p);
  world.run([&](Comm& comm) {
    for (int r = 0; r < rounds; ++r) {
      const int n = sizes[r];
      switch (ops[r]) {
        case 0: {  // all_gather
          std::vector<double> mine(n, val(r, comm.rank(), 0));
          auto all = comm.all_gather(mine);
          for (int s = 0; s < p; ++s) {
            for (int t = 0; t < n; ++t) {
              ASSERT_DOUBLE_EQ(all[s * n + t], val(r, s, 0));
            }
          }
          break;
        }
        case 1: {  // reduce_scatter_equal
          std::vector<double> data(n * p);
          for (int b = 0; b < p; ++b) {
            for (int t = 0; t < n; ++t) {
              data[b * n + t] = val(r, comm.rank(), b);
            }
          }
          auto mine = comm.reduce_scatter_equal(data);
          double expect = 0.0;
          for (int s = 0; s < p; ++s) expect += val(r, s, comm.rank());
          for (double x : mine) ASSERT_DOUBLE_EQ(x, expect);
          break;
        }
        case 2: {  // all_to_all_v with rank-dependent sizes
          std::vector<std::vector<double>> send(p);
          for (int d = 0; d < p; ++d) {
            send[d].assign((comm.rank() + d) % 3 + 1, val(r, comm.rank(), d));
          }
          auto recv = comm.all_to_all_v(send);
          for (int s = 0; s < p; ++s) {
            ASSERT_EQ(recv[s].size(),
                      static_cast<std::size_t>((s + comm.rank()) % 3 + 1));
            for (double x : recv[s]) {
              ASSERT_DOUBLE_EQ(x, val(r, s, comm.rank()));
            }
          }
          break;
        }
        case 3: {  // bcast
          std::vector<double> data(n);
          if (comm.rank() == roots[r]) {
            for (int t = 0; t < n; ++t) data[t] = val(r, roots[r], t);
          }
          comm.bcast(data, roots[r]);
          for (int t = 0; t < n; ++t) {
            ASSERT_DOUBLE_EQ(data[t], val(r, roots[r], t));
          }
          break;
        }
        case 4: {  // reduce
          std::vector<double> data(n, comm.rank() + 1.0);
          auto out = comm.reduce(data, roots[r]);
          if (comm.rank() == roots[r]) {
            for (double x : out) ASSERT_DOUBLE_EQ(x, p * (p + 1) / 2.0);
          }
          break;
        }
        case 5: {  // split + nested collective + implicit merge
          const int color = comm.rank() % 2;
          Comm sub = comm.split(color, comm.rank());
          auto ids = sub.all_gather(std::vector<double>{
              static_cast<double>(comm.rank())});
          // Members of my color, in rank order.
          int expect = color;
          for (double x : ids) {
            ASSERT_DOUBLE_EQ(x, expect);
            expect += 2;
          }
          break;
        }
        default:
          FAIL();
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzWorlds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(FuzzStress, ManySmallMessagesInterleaved) {
  // Point-to-point storm: every rank sends `k` tagged messages to every
  // other rank, then receives them in reverse tag order.
  const int p = 6, k = 20;
  World world(p);
  world.run([&](Comm& comm) {
    for (int d = 0; d < p; ++d) {
      if (d == comm.rank()) continue;
      for (int t = 0; t < k; ++t) {
        comm.send(d, t, std::vector<double>{val(t, comm.rank(), d)});
      }
    }
    for (int s = 0; s < p; ++s) {
      if (s == comm.rank()) continue;
      for (int t = k - 1; t >= 0; --t) {
        auto msg = comm.recv(s, t);
        ASSERT_EQ(msg.size(), 1u);
        ASSERT_DOUBLE_EQ(msg[0], val(t, s, comm.rank()));
      }
    }
  });
  // Ledger sanity: every rank sent exactly (p-1)*k messages of 1 word.
  for (const auto& r : world.ledger().per_rank()) {
    EXPECT_EQ(r.msgs_sent, static_cast<std::uint64_t>((p - 1) * k));
    EXPECT_EQ(r.words_sent, static_cast<std::uint64_t>((p - 1) * k));
  }
}

TEST(FuzzStress, RepeatedSplitsReuseGroups) {
  // Splitting with identical colors many times must neither leak nor
  // confuse message routing.
  const int p = 8;
  World world(p);
  world.run([&](Comm& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      Comm sub = comm.split(comm.rank() / 4, comm.rank());
      auto sum = sub.reduce(std::vector<double>{1.0}, 0);
      if (sub.rank() == 0) ASSERT_DOUBLE_EQ(sum[0], 4.0);
      sub.barrier();
    }
  });
}

TEST(FuzzStress, ConcurrentDisjointSubcommunicators) {
  // Four disjoint groups run different collectives simultaneously.
  const int p = 12;
  World world(p);
  world.run([&](Comm& comm) {
    const int color = comm.rank() % 4;
    Comm sub = comm.split(color, comm.rank());
    ASSERT_EQ(sub.size(), 3);
    for (int iter = 0; iter < 5; ++iter) {
      switch (color) {
        case 0: {
          auto v = sub.all_gather(std::vector<double>{1.0 * sub.rank()});
          ASSERT_EQ(v.size(), 3u);
          break;
        }
        case 1: {
          auto v = sub.reduce_scatter_equal(std::vector<double>(6, 1.0));
          for (double x : v) ASSERT_DOUBLE_EQ(x, 3.0);
          break;
        }
        case 2: {
          std::vector<double> d(2, sub.rank() == 1 ? 9.0 : 0.0);
          sub.bcast(d, 1);
          ASSERT_DOUBLE_EQ(d[0], 9.0);
          break;
        }
        default: {
          auto v = sub.all_gather_bruck(std::vector<double>{5.0});
          ASSERT_EQ(v.size(), 3u);
          break;
        }
      }
    }
  });
}

class FuzzJobQueues : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzJobQueues, RandomJobSequencesWithFailures) {
  // Random sequences of SPMD jobs run back to back on one warm world, each
  // scoped by a ledger snapshot; one randomly chosen job throws on a random
  // rank at a random point. Exactly that job must error, every other job
  // must produce the same results and per-job costs as on a fresh world,
  // and the pool must survive (no threads created after warmup).
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int p = static_cast<int>(planner.uniform_int(2, 11));
  const int jobs = static_cast<int>(planner.uniform_int(4, 13));
  const int bad_job = static_cast<int>(planner.uniform_int(0, jobs - 1));
  const int bad_rank = static_cast<int>(planner.uniform_int(0, p - 1));

  std::vector<int> kinds(jobs), sizes(jobs), fail_round(jobs, -1);
  for (int j = 0; j < jobs; ++j) {
    kinds[j] = static_cast<int>(planner.uniform_int(0, 2));
    sizes[j] = static_cast<int>(planner.uniform_int(1, 7));
  }
  fail_round[bad_job] = static_cast<int>(planner.uniform_int(0, 2));

  // Each job runs 3 rounds of one collective kind; a failing job throws on
  // bad_rank before its fail_round-th round, leaving peers blocked inside
  // the collective to be unwound by poisoning.
  auto make_body = [&](int j) {
    const int kind = kinds[j], n = sizes[j], fail = fail_round[j];
    return [kind, n, fail, bad_rank, p](Comm& comm) {
      for (int round = 0; round < 3; ++round) {
        if (round == fail && comm.rank() == bad_rank) {
          throw std::runtime_error("fuzzed failure");
        }
        switch (kind) {
          case 0: {
            auto all =
                comm.all_gather(std::vector<double>(n, 1.0 * comm.rank()));
            ASSERT_EQ(all.size(), static_cast<std::size_t>(n * p));
            break;
          }
          case 1: {
            auto mine = comm.reduce_scatter_equal(
                std::vector<double>(static_cast<std::size_t>(n) * p, 1.0));
            for (double x : mine) ASSERT_DOUBLE_EQ(x, 1.0 * p);
            break;
          }
          default: {
            Comm sub = comm.split(comm.rank() % 2, comm.rank());
            auto ids = sub.all_gather(
                std::vector<double>{1.0 * comm.world_rank()});
            ASSERT_EQ(ids.size(), static_cast<std::size_t>(sub.size()));
            break;
          }
        }
      }
    };
  };

  // Reference per-job costs from fresh worlds (skipping the poisoned job —
  // its partial traffic is unspecified).
  std::vector<CostSummary> fresh(jobs);
  for (int j = 0; j < jobs; ++j) {
    if (j == bad_job) continue;
    World world(p);
    world.run(make_body(j));
    fresh[j] = world.ledger().summary();
  }

  WorkerPool pool;
  World world(p, pool);
  const std::uint64_t warm = pool.threads_created();
  for (int j = 0; j < jobs; ++j) {
    const CostLedger::Snapshot before = world.ledger().snapshot();
    std::exception_ptr error;
    try {
      world.run(make_body(j));
    } catch (...) {
      error = std::current_exception();
    }
    if (j == bad_job) {
      ASSERT_NE(error, nullptr) << "job " << j;
      EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
      continue;
    }
    EXPECT_EQ(error, nullptr) << "job " << j;
    const CostSummary cost = world.ledger().summary_since(before);
    EXPECT_EQ(cost.total, fresh[j].total) << "job " << j;
    EXPECT_EQ(cost.max, fresh[j].max) << "job " << j;
  }
  EXPECT_EQ(pool.threads_created(), warm);
  // The world stays fully usable after the drained failure.
  world.run([](Comm& comm) {
    auto all = comm.all_gather(std::vector<double>{3.0});
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJobQueues,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28, 29,
                                           30, 31, 32));

// ---------------------------------------------------------------------------
// Nonblocking-interleaving fuzzer
// ---------------------------------------------------------------------------

class FuzzNonblocking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzNonblocking, RandomizedTestWaitOrderings) {
  // Every rank posts a batch of nonblocking collectives up front, then
  // drives them with an independently seeded RANDOM test() ordering —
  // receives complete out of order across handles and within rounds. The
  // engine's round discipline must keep results equal to the blocking
  // oracle and the ledger volume equal to a blocking reference run,
  // regardless of the interleaving.
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int p = static_cast<int>(planner.uniform_int(2, 9));
  const int n_ops = static_cast<int>(planner.uniform_int(2, 7));
  std::vector<int> kinds(n_ops), sizes(n_ops);
  for (int i = 0; i < n_ops; ++i) {
    kinds[i] = static_cast<int>(planner.uniform_int(0, 3));
    sizes[i] = static_cast<int>(planner.uniform_int(1, 6));
  }

  // Per-op result checkers against the deterministic payload oracle.
  auto verify = [&](Comm& comm, int i, Request& req) {
    const int n = sizes[i];
    switch (kinds[i]) {
      case 0: {  // iall_gather
        auto all = req.take();
        ASSERT_EQ(all.size(), static_cast<std::size_t>(n * p));
        for (int s = 0; s < p; ++s) {
          for (int t = 0; t < n; ++t) {
            ASSERT_DOUBLE_EQ(all[s * n + t], val(i, s, 0));
          }
        }
        break;
      }
      case 1: {  // ireduce_scatter (equal blocks)
        auto mine = req.take();
        ASSERT_EQ(mine.size(), static_cast<std::size_t>(n));
        double expect = 0.0;
        for (int s = 0; s < p; ++s) expect += val(i, s, comm.rank());
        for (double x : mine) ASSERT_DOUBLE_EQ(x, expect);
        break;
      }
      case 2: {  // iall_to_all_v with rank-dependent sizes
        auto recv = req.take_parts();
        for (int s = 0; s < p; ++s) {
          ASSERT_EQ(recv[s].size(),
                    static_cast<std::size_t>((s + comm.rank()) % 3 + 1));
          for (double x : recv[s]) ASSERT_DOUBLE_EQ(x, val(i, s, comm.rank()));
        }
        break;
      }
      default: {  // irecv of the ring isend
        auto msg = req.take();
        const int src = (comm.rank() - 1 + p) % p;
        ASSERT_EQ(msg.size(), static_cast<std::size_t>(n));
        for (double x : msg) ASSERT_DOUBLE_EQ(x, val(i, src, 0));
        break;
      }
    }
  };

  auto post_all = [&](Comm& comm, std::vector<Request>& reqs) {
    for (int i = 0; i < n_ops; ++i) {
      const int n = sizes[i];
      switch (kinds[i]) {
        case 0: {
          std::vector<double> mine(n, val(i, comm.rank(), 0));
          reqs.push_back(comm.iall_gather(mine));
          break;
        }
        case 1: {
          std::vector<double> data(static_cast<std::size_t>(n) * p);
          for (int b = 0; b < p; ++b) {
            for (int t = 0; t < n; ++t) data[b * n + t] = val(i, comm.rank(), b);
          }
          reqs.push_back(comm.ireduce_scatter(
              data, std::vector<std::size_t>(p, static_cast<std::size_t>(n))));
          break;
        }
        case 2: {
          std::vector<std::vector<double>> send(p);
          for (int d = 0; d < p; ++d) {
            send[d].assign((comm.rank() + d) % 3 + 1, val(i, comm.rank(), d));
          }
          reqs.push_back(comm.iall_to_all_v(send));
          break;
        }
        default: {
          std::vector<double> payload(n, val(i, comm.rank(), 0));
          (void)comm.isend((comm.rank() + 1) % p, /*tag=*/i, payload);
          reqs.push_back(comm.irecv((comm.rank() - 1 + p) % p, /*tag=*/i));
          break;
        }
      }
    }
  };

  // Blocking reference: same script, wait immediately in posting order.
  World ref(p);
  ref.run([&](Comm& comm) {
    std::vector<Request> reqs;
    post_all(comm, reqs);
    for (int i = 0; i < n_ops; ++i) verify(comm, i, reqs[i]);
  });
  const CostSummary ref_cost = ref.ledger().summary();

  World world(p);
  world.run([&](Comm& comm) {
    Rng rng(seed * 977 + static_cast<std::uint64_t>(comm.rank()) + 1);
    std::vector<Request> reqs;
    post_all(comm, reqs);
    // Random polling until every handle completes (no blocking wait, so
    // completions interleave arbitrarily across handles and ranks).
    int incomplete = n_ops;
    std::uint64_t spins = 0;
    while (incomplete > 0) {
      const int i = static_cast<int>(rng.uniform_int(0, n_ops - 1));
      if (reqs[i].done()) continue;
      if (reqs[i].test()) --incomplete;
      ASSERT_LT(++spins, 100000000ull) << "nonblocking progress stalled";
    }
    for (int i = 0; i < n_ops; ++i) verify(comm, i, reqs[i]);
  });

  // Total moved volume is schedule-invariant.
  const CostSummary cost = world.ledger().summary();
  EXPECT_EQ(cost.total, ref_cost.total);
  EXPECT_EQ(cost.max, ref_cost.max);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzNonblocking,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48, 49,
                                           50, 51, 52, 53, 54, 55, 56));

// ---------------------------------------------------------------------------
// Chunked-SYRK fuzzer: pipelined == blocking across all three grids
// ---------------------------------------------------------------------------

class FuzzChunkedSyrk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzChunkedSyrk, MatchesBlockingAcrossGridsAndChunkCounts) {
  namespace core = ::parsyrk::core;
  const std::uint64_t seed = GetParam();
  Rng planner(seed);
  const int grid = static_cast<int>(planner.uniform_int(0, 2));
  const int chunks = static_cast<int>(planner.uniform_int(1, 9));

  std::size_t n1 = 0, n2 = 0;
  int ranks = 0;
  std::uint64_t c = 2, p2 = 2;
  switch (grid) {
    case 0:  // 1D
      ranks = static_cast<int>(planner.uniform_int(2, 8));
      n1 = planner.uniform_int(6, 20);
      n2 = planner.uniform_int(4, 24);
      break;
    case 1:  // 2D: c = 2 needs n1 % 4 == 0 on c(c+1) = 6 ranks
      ranks = 6;
      n1 = 4 * planner.uniform_int(2, 6);
      n2 = planner.uniform_int(4, 16);
      break;
    default:  // 3D: (c=2, p2) grid on 6·p2 ranks
      p2 = planner.uniform_int(2, 3);
      ranks = static_cast<int>(6 * p2);
      n1 = 4 * planner.uniform_int(2, 6);
      n2 = planner.uniform_int(static_cast<std::uint64_t>(p2), 16);
      break;
  }
  Matrix a = random_matrix(n1, n2, seed);

  auto run_once = [&](int pipeline_chunks) {
    core::Session session(ranks);
    core::SyrkRequest req(a);
    switch (grid) {
      case 0: req.use_1d(); break;
      case 1: req.use_2d(c); break;
      default: req.use_3d(c, p2); break;
    }
    if (pipeline_chunks > 0) req.with_pipeline(pipeline_chunks);
    return core::syrk(session, req);
  };

  const core::SyrkRun blocking = run_once(0);
  const core::SyrkRun piped = run_once(chunks);
  // Bitwise result equality for ANY chunk count (accumulation order is
  // preserved per entry), and exact word-volume equality.
  EXPECT_TRUE(piped.c == blocking.c)
      << "grid=" << grid << " chunks=" << chunks << " n1=" << n1
      << " n2=" << n2;
  EXPECT_EQ(piped.total.total.words_sent, blocking.total.total.words_sent);
  EXPECT_EQ(piped.total.total.words_recv, blocking.total.total.words_recv);
  EXPECT_EQ(piped.total.max.words_sent, blocking.total.max.words_sent);
  EXPECT_GE(piped.total.total.msgs_sent, blocking.total.total.msgs_sent);
  if (chunks == 1) {
    EXPECT_EQ(piped.total.total.msgs_sent, blocking.total.total.msgs_sent);
    EXPECT_EQ(piped.total.max.msgs_sent, blocking.total.max.msgs_sent);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzChunkedSyrk,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68, 69,
                                           70, 71, 72, 73, 74, 75, 76, 77, 78,
                                           79, 80));

}  // namespace
}  // namespace parsyrk::comm
