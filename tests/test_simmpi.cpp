// Tests for src/simmpi: point-to-point transport, collectives (pairwise
// exchange and §6 latency-efficient variants), sub-communicators, and the
// cost ledger's agreement with the closed-form collective costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "costmodel/model.hpp"
#include "simmpi/comm.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parsyrk::comm {
namespace {

/// Deterministic per-(rank, slot) payload value.
double val(int rank, int slot) { return rank * 1000.0 + slot; }

TEST(PointToPoint, SendRecvRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<double>{1.0, 2.0, 3.0});
      auto back = comm.recv(1, 8);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 42.0);
    } else {
      auto msg = comm.recv(0, 7);
      ASSERT_EQ(msg.size(), 3u);
      EXPECT_DOUBLE_EQ(msg[2], 3.0);
      comm.send(0, 8, std::vector<double>{42.0});
    }
  });
}

TEST(PointToPoint, TagMatchingOutOfOrder) {
  // A receive for tag 2 must match the tag-2 message even if a tag-1
  // message arrived first.
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<double>{111.0});
      comm.send(1, 2, std::vector<double>{222.0});
    } else {
      auto second = comm.recv(0, 2);
      auto first = comm.recv(0, 1);
      EXPECT_DOUBLE_EQ(second[0], 222.0);
      EXPECT_DOUBLE_EQ(first[0], 111.0);
    }
  });
}

TEST(PointToPoint, LedgerCountsWords) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(17, 1.0));
    } else {
      comm.recv(0, 0);
    }
  });
  auto per_rank = world.ledger().per_rank();
  EXPECT_EQ(per_rank[0].words_sent, 17u);
  EXPECT_EQ(per_rank[0].msgs_sent, 1u);
  EXPECT_EQ(per_rank[1].words_recv, 17u);
  EXPECT_EQ(per_rank[1].msgs_recv, 1u);
  EXPECT_EQ(per_rank[0].words_recv, 0u);
}

TEST(Barrier, AllRanksPass) {
  World world(7);
  std::atomic<int> before{0}, after{0};
  world.run([&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    // Every rank must have incremented `before` by the time any rank is
    // past the barrier.
    EXPECT_EQ(before.load(), 7);
    after.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(after.load(), 7);
  });
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, AllToAllVDeliversAndReorders) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<std::vector<double>> send(p);
    for (int d = 0; d < p; ++d) {
      send[d] = {val(comm.rank(), d), val(comm.rank(), d) + 0.5};
    }
    auto recv = comm.all_to_all_v(send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[s].size(), 2u);
      EXPECT_DOUBLE_EQ(recv[s][0], val(s, comm.rank()));
      EXPECT_DOUBLE_EQ(recv[s][1], val(s, comm.rank()) + 0.5);
    }
  });
}

TEST_P(CollectiveSizes, AllToAllVVariableAndEmptyBlocks) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r sends d words to destination d (zero-size blocks included).
    std::vector<std::vector<double>> send(p);
    for (int d = 0; d < p; ++d) {
      send[d].assign(d, val(comm.rank(), d));
    }
    auto recv = comm.all_to_all_v(send);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[s].size(), static_cast<std::size_t>(comm.rank()));
      for (double x : recv[s]) EXPECT_DOUBLE_EQ(x, val(s, comm.rank()));
    }
  });
}

TEST_P(CollectiveSizes, ReduceScatterEqualSumsBlocks) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r contributes value r+1 everywhere; each block sums to
    // p(p+1)/2 per word.
    std::vector<double> data(3 * p, comm.rank() + 1.0);
    auto mine = comm.reduce_scatter_equal(data);
    ASSERT_EQ(mine.size(), 3u);
    for (double x : mine) EXPECT_DOUBLE_EQ(x, p * (p + 1) / 2.0);
  });
}

TEST_P(CollectiveSizes, ReduceScatterVariableBlockSizes) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<std::size_t> sizes(p);
    std::size_t total = 0;
    for (int q = 0; q < p; ++q) {
      sizes[q] = q + 1;
      total += sizes[q];
    }
    // Word t of rank r's buffer is r*10000 + t; block q sum over ranks of
    // word t is sum_r (r*10000 + t) = 10000*p(p-1)/2 + p*t.
    std::vector<double> data(total);
    for (std::size_t t = 0; t < total; ++t) {
      data[t] = comm.rank() * 10000.0 + t;
    }
    auto mine = comm.reduce_scatter(data, sizes);
    ASSERT_EQ(mine.size(), sizes[comm.rank()]);
    std::size_t off = 0;
    for (int q = 0; q < comm.rank(); ++q) off += sizes[q];
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const double expect = 10000.0 * p * (p - 1) / 2.0 + p * (off + i);
      EXPECT_DOUBLE_EQ(mine[i], expect);
    }
  });
}

/// An all-reduce (sum) composed bandwidth-optimally from the runtime's
/// collectives: reduce-scatter, then all-gather of the reduced blocks.
std::vector<double> all_reduce(Comm& comm, std::span<const double> data) {
  return comm.all_gather(comm.reduce_scatter_equal(data));
}

TEST_P(CollectiveSizes, AllReduceSumsEverywhere) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<double> data(2 * p);
    for (std::size_t t = 0; t < data.size(); ++t) {
      data[t] = comm.rank() * 100.0 + t;
    }
    auto out = all_reduce(comm, data);
    ASSERT_EQ(out.size(), data.size());
    for (std::size_t t = 0; t < out.size(); ++t) {
      const double expect = 100.0 * p * (p - 1) / 2.0 + p * t;
      EXPECT_DOUBLE_EQ(out[t], expect);
    }
  });
}

TEST(LedgerFormulas, AllReduceMatchesComposedCost) {
  const int p = 8;
  const std::size_t w = 64;
  World world(p);
  world.run([w](Comm& comm) {
    all_reduce(comm, std::vector<double>(w, 1.0));
  });
  const auto expected = costmodel::reduce_scatter_pairwise(p, w) +
                        costmodel::all_gather_pairwise(p, w);
  for (const auto& r : world.ledger().per_rank()) {
    EXPECT_DOUBLE_EQ(static_cast<double>(r.words_sent), expected.words);
    EXPECT_DOUBLE_EQ(static_cast<double>(r.msgs_sent), expected.messages);
  }
}

TEST_P(CollectiveSizes, AllGatherConcatenatesInRankOrder) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<double> mine = {val(comm.rank(), 0), val(comm.rank(), 1)};
    auto all = comm.all_gather(mine);
    ASSERT_EQ(all.size(), 2u * p);
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(all[2 * r], val(r, 0));
      EXPECT_DOUBLE_EQ(all[2 * r + 1], val(r, 1));
    }
  });
}

TEST_P(CollectiveSizes, AllGatherVUnequalSizes) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<double> mine(comm.rank() + 1, val(comm.rank(), 9));
    auto all = comm.all_gather_v(mine);
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(all[r].size(), static_cast<std::size_t>(r) + 1);
      for (double x : all[r]) EXPECT_DOUBLE_EQ(x, val(r, 9));
    }
  });
}

TEST_P(CollectiveSizes, BruckReduceScatterMatchesPairwise) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<double> data(3 * p);
    for (std::size_t t = 0; t < data.size(); ++t) {
      data[t] = comm.rank() * 1000.0 + t * 1.25;
    }
    auto bruck = comm.reduce_scatter_bruck(data);
    auto pairwise = comm.reduce_scatter_equal(data);
    ASSERT_EQ(bruck.size(), pairwise.size());
    for (std::size_t t = 0; t < bruck.size(); ++t) {
      EXPECT_NEAR(bruck[t], pairwise[t], 1e-9) << "P=" << p << " t=" << t;
    }
  });
}

TEST(LedgerFormulas, BruckReduceScatterIsDoublyOptimal) {
  // The §6 observation: Bruck-style Reduce-Scatter reaches BOTH the
  // bandwidth optimum (1−1/P)·w and the latency optimum ceil(log2 P).
  for (int p : {5, 8, 12, 16}) {
    World world(p);
    const std::size_t block = 16;
    world.run([block, p](Comm& comm) {
      comm.reduce_scatter_bruck(std::vector<double>(block * p, 1.0));
    });
    const auto expected =
        costmodel::reduce_scatter_bruck(p, static_cast<double>(block * p));
    for (const auto& r : world.ledger().per_rank()) {
      EXPECT_DOUBLE_EQ(static_cast<double>(r.words_sent), expected.words)
          << "P=" << p;
      EXPECT_DOUBLE_EQ(static_cast<double>(r.msgs_sent), expected.messages)
          << "P=" << p;
    }
  }
}

TEST_P(CollectiveSizes, BruckAllGatherMatchesPairwise) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<double> mine = {val(comm.rank(), 3), val(comm.rank(), 4),
                                val(comm.rank(), 5)};
    auto bruck = comm.all_gather_bruck(mine);
    auto pairwise = comm.all_gather(mine);
    EXPECT_EQ(bruck, pairwise);
  });
}

TEST_P(CollectiveSizes, ButterflyAllToAllMatchesPairwise) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    const std::size_t block = 2;
    std::vector<double> send(block * p);
    std::vector<std::vector<double>> send_v(p);
    for (int d = 0; d < p; ++d) {
      send[d * block] = val(comm.rank(), d);
      send[d * block + 1] = val(comm.rank(), d) + 0.25;
      send_v[d] = {send[d * block], send[d * block + 1]};
    }
    auto bfly = comm.all_to_all_butterfly(send, block);
    auto pair = comm.all_to_all_v(send_v);
    for (int s = 0; s < p; ++s) {
      EXPECT_DOUBLE_EQ(bfly[s * block], pair[s][0]);
      EXPECT_DOUBLE_EQ(bfly[s * block + 1], pair[s][1]);
    }
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    World world(p);
    world.run([root](Comm& comm) {
      std::vector<double> data(4, comm.rank() == root ? 3.75 : -1.0);
      comm.bcast(data, root);
      for (double x : data) EXPECT_DOUBLE_EQ(x, 3.75);
    });
  }
}

TEST_P(CollectiveSizes, ReduceSumsToRoot) {
  const int p = GetParam();
  const int root = p / 2;
  World world(p);
  world.run([p, root](Comm& comm) {
    std::vector<double> data = {static_cast<double>(comm.rank()), 1.0};
    auto out = comm.reduce(data, root);
    if (comm.rank() == root) {
      ASSERT_EQ(out.size(), 2u);
      EXPECT_DOUBLE_EQ(out[0], p * (p - 1) / 2.0);
      EXPECT_DOUBLE_EQ(out[1], p);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST_P(CollectiveSizes, GatherScatterRoundTrip) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    const int root = 0;
    std::vector<double> mine(2, val(comm.rank(), 1));
    auto gathered = comm.gather(mine, root);
    if (comm.rank() == root) {
      ASSERT_EQ(static_cast<int>(gathered.size()), p);
      for (int r = 0; r < p; ++r) {
        EXPECT_DOUBLE_EQ(gathered[r][0], val(r, 1));
      }
    }
    auto back = comm.scatter(gathered, root);  // gathered empty off-root: ok
    ASSERT_EQ(back.size(), 2u);
    EXPECT_DOUBLE_EQ(back[0], val(comm.rank(), 1));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(LedgerFormulas, AllToAllMatchesPairwiseCost) {
  // Measured words per rank must equal §3.2's (1−1/P)·w exactly for equal
  // blocks, and messages must equal P−1.
  const int p = 8;
  const std::size_t block = 25;
  World world(p);
  world.run([p, block](Comm& comm) {
    std::vector<std::vector<double>> send(p, std::vector<double>(block, 1.0));
    comm.all_to_all_v(send);
  });
  const auto expected = costmodel::all_to_all_pairwise(p, block * p);
  for (const auto& r : world.ledger().per_rank()) {
    EXPECT_DOUBLE_EQ(static_cast<double>(r.words_sent), expected.words);
    EXPECT_DOUBLE_EQ(static_cast<double>(r.words_recv), expected.words);
    EXPECT_DOUBLE_EQ(static_cast<double>(r.msgs_sent), expected.messages);
  }
}

TEST(LedgerFormulas, ReduceScatterMatchesPairwiseCost) {
  const int p = 12;
  const std::size_t block = 10;
  World world(p);
  world.run([p, block](Comm& comm) {
    std::vector<double> data(block * p, 1.0);
    comm.reduce_scatter_equal(data);
  });
  const auto expected = costmodel::reduce_scatter_pairwise(p, block * p);
  for (const auto& r : world.ledger().per_rank()) {
    EXPECT_DOUBLE_EQ(static_cast<double>(r.words_sent), expected.words);
    EXPECT_DOUBLE_EQ(static_cast<double>(r.msgs_sent), expected.messages);
  }
}

TEST(LedgerFormulas, BruckLatencyIsLogP) {
  const int p = 16;
  World world(p);
  world.run([](Comm& comm) {
    std::vector<double> mine(8, 1.0);
    comm.all_gather_bruck(mine);
  });
  for (const auto& r : world.ledger().per_rank()) {
    EXPECT_EQ(r.msgs_sent, 4u);  // ceil(log2 16)
    EXPECT_EQ(r.words_sent, 8u * 15u);
  }
}

TEST(LedgerFormulas, PhaseAttribution) {
  World world(4);
  world.run([](Comm& comm) {
    comm.set_phase("one");
    comm.all_gather(std::vector<double>(5, 1.0));
    comm.set_phase("two");
    comm.reduce_scatter_equal(std::vector<double>(8, 1.0));
  });
  const auto one = world.ledger().summary("one");
  const auto two = world.ledger().summary("two");
  EXPECT_EQ(one.max.words_sent, 15u);  // 3 partners × 5 words
  EXPECT_EQ(two.max.words_sent, 6u);   // (1 − 1/4) × 8
  const auto total = world.ledger().summary();
  EXPECT_EQ(total.max.words_sent, 21u);
  EXPECT_EQ(world.ledger().phases().size(), 2u);
}

TEST(LedgerFormulas, CriticalPathWordsIsMaxOverRanks) {
  World world(3);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(100, 1.0));
      comm.send(2, 0, std::vector<double>(1, 1.0));
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_EQ(world.ledger().summary().critical_path_words(), 101u);
}

TEST(LedgerFormulas, ResetClears) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(9, 0.0));
    } else {
      comm.recv(0, 0);
    }
  });
  world.ledger().reset();
  EXPECT_EQ(world.ledger().summary().critical_path_words(), 0u);
}

TEST(Split, RowColumnGrids) {
  // 6 ranks as a 2×3 grid: rows {0,1,2}, {3,4,5}; columns {0,3}, {1,4}, {2,5}.
  World world(6);
  world.run([](Comm& comm) {
    const int row = comm.rank() / 3;
    const int col = comm.rank() % 3;
    Comm row_comm = comm.split(row, col);
    Comm col_comm = comm.split(col, row);
    EXPECT_EQ(row_comm.size(), 3);
    EXPECT_EQ(col_comm.size(), 2);
    EXPECT_EQ(row_comm.rank(), col);
    EXPECT_EQ(col_comm.rank(), row);
    // Collectives on the sub-communicators see only group members.
    auto ids = row_comm.all_gather(
        std::vector<double>{static_cast<double>(comm.rank())});
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(ids[j], row * 3 + j);
    auto cid = col_comm.all_gather(
        std::vector<double>{static_cast<double>(comm.rank())});
    for (int i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(cid[i], i * 3 + col);
  });
}

TEST(Split, KeyOverridesRankOrder) {
  World world(4);
  world.run([](Comm& comm) {
    // Reverse ordering via descending keys.
    Comm rev = comm.split(0, -comm.rank());
    EXPECT_EQ(rev.rank(), 3 - comm.rank());
  });
}

TEST(Split, NestedSplits) {
  World world(8);
  world.run([](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    auto sum = quarter.reduce(std::vector<double>{1.0}, 0);
    if (quarter.rank() == 0) EXPECT_DOUBLE_EQ(sum[0], 2.0);
  });
}

TEST(World, RunIsRepeatable) {
  World world(5);
  for (int iter = 0; iter < 3; ++iter) {
    world.run([](Comm& comm) {
      auto all = comm.all_gather(
          std::vector<double>{static_cast<double>(comm.rank())});
      EXPECT_EQ(all.size(), 5u);
    });
  }
  // 3 iterations × 4 partners × 1 word.
  EXPECT_EQ(world.ledger().per_rank()[0].words_sent, 12u);
}

TEST(World, ExceptionPropagates) {
  World world(3);
  auto thrower = [](Comm& comm) {
    if (comm.rank() == 1) {
      throw parsyrk::InvalidArgument("deliberate failure");
    }
  };
  EXPECT_THROW(world.run(thrower), parsyrk::InvalidArgument);
}

TEST(FailurePropagation, BlockedReceiversUnwind) {
  // Rank 2 fails while the others wait on messages that will never come;
  // everyone must unwind and the original error must surface.
  World world(4);
  auto body = [](Comm& comm) {
    if (comm.rank() == 2) {
      throw parsyrk::InvalidArgument("deliberate failure on rank 2");
    }
    comm.recv((comm.rank() + 1) % 4, 5);  // blocks forever without poison
  };
  EXPECT_THROW(world.run(body), parsyrk::InvalidArgument);
  // The runtime must remain usable after the failed run.
  world.run([](Comm& comm) {
    auto all = comm.all_gather(
        std::vector<double>{static_cast<double>(comm.rank())});
    EXPECT_EQ(all.size(), 4u);
  });
}

TEST(FailurePropagation, BlockedBarrierUnwinds) {
  World world(3);
  auto body = [](Comm& comm) {
    if (comm.rank() == 0) {
      throw parsyrk::InvalidArgument("rank 0 failed before the barrier");
    }
    comm.barrier();  // can never complete: rank 0 is gone
  };
  EXPECT_THROW(world.run(body), parsyrk::InvalidArgument);
  world.run([](Comm& comm) { comm.barrier(); });  // reusable
}

TEST(FailurePropagation, FailureInsideCollective) {
  // A rank dies mid-collective; peers inside the pairwise exchange unwind.
  World world(5);
  auto body = [](Comm& comm) {
    if (comm.rank() == 3) {
      throw parsyrk::InvalidArgument("rank 3 died before the collective");
    }
    comm.all_gather(std::vector<double>(8, 1.0));
  };
  EXPECT_THROW(world.run(body), parsyrk::InvalidArgument);
}

TEST(World, DeterministicReduction) {
  // Same seed, same P: the reduce-scatter accumulation order is fixed, so
  // results are bitwise identical across runs.
  auto run_once = [] {
    World world(6);
    std::vector<double> out;
    world.run([&](Comm& comm) {
      Rng rng(1000 + comm.rank());
      std::vector<double> data(12);
      for (auto& x : data) x = rng.uniform(-1, 1);
      auto mine = comm.reduce_scatter_equal(data);
      if (comm.rank() == 0) out = mine;
    });
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Nonblocking primitives
// ---------------------------------------------------------------------------

TEST(Nonblocking, IsendIrecvRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      Request s = comm.isend(1, /*tag=*/3, std::vector<double>{1.0, 2.0});
      EXPECT_TRUE(s.done());  // eager buffered: born complete
      s.wait();               // idempotent on a complete handle
    } else {
      Request r = comm.irecv(0, /*tag=*/3);
      auto msg = r.take();
      ASSERT_EQ(msg.size(), 2u);
      EXPECT_DOUBLE_EQ(msg[0], 1.0);
      EXPECT_DOUBLE_EQ(msg[1], 2.0);
      EXPECT_TRUE(r.done());
    }
  });
}

TEST(Nonblocking, EmptyRequestIsHarmless) {
  Request req;
  EXPECT_FALSE(req.valid());
  EXPECT_TRUE(req.done());  // nothing outstanding
}

TEST(Nonblocking, TestPollingCompletesCollectives) {
  // Driving handles purely via test() (never wait) completes them and
  // produces the same results as the blocking wrappers.
  const int p = 4;
  World world(p);
  world.run([&](Comm& comm) {
    std::vector<double> data(static_cast<std::size_t>(p) * 2);
    for (int b = 0; b < p; ++b) {
      data[b * 2] = 1.0 * comm.rank();
      data[b * 2 + 1] = 10.0 * b;
    }
    Request rs = comm.ireduce_scatter(
        data, std::vector<std::size_t>(p, 2));
    Request ag = comm.iall_gather(std::vector<double>{1.0 * comm.rank()});
    while (!rs.test() || !ag.test()) {
    }
    auto mine = rs.take();
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_DOUBLE_EQ(mine[0], p * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(mine[1], 10.0 * comm.rank() * p);
    auto all = ag.take();
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) EXPECT_DOUBLE_EQ(all[s], 1.0 * s);
  });
}

TEST(Nonblocking, TakePartsMovesPerRankResult) {
  const int p = 3;
  World world(p);
  world.run([&](Comm& comm) {
    std::vector<std::vector<double>> send(p);
    for (int d = 0; d < p; ++d) {
      send[d].assign(static_cast<std::size_t>(d) + 1, 1.0 * comm.rank());
    }
    Request req = comm.iall_to_all_v(send);
    auto parts = req.take_parts();
    ASSERT_EQ(parts.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(parts[s].size(), static_cast<std::size_t>(comm.rank()) + 1);
      for (double x : parts[s]) EXPECT_DOUBLE_EQ(x, 1.0 * s);
    }
  });
}

TEST(Nonblocking, BlockingWrappersMatchNonblockingResults) {
  // The blocking collectives are now thin create-then-wait wrappers; both
  // spellings must agree exactly.
  const int p = 4;
  World a(p), b(p);
  std::vector<double> blocking_out, nonblocking_out;
  a.run([&](Comm& comm) {
    auto mine = comm.reduce_scatter_equal(
        std::vector<double>(static_cast<std::size_t>(p) * 3,
                            1.0 + comm.rank()));
    if (comm.rank() == 1) blocking_out = mine;
  });
  b.run([&](Comm& comm) {
    Request req = comm.ireduce_scatter(
        std::vector<double>(static_cast<std::size_t>(p) * 3,
                            1.0 + comm.rank()),
        std::vector<std::size_t>(p, 3));
    auto mine = req.take();
    if (comm.rank() == 1) nonblocking_out = mine;
  });
  EXPECT_EQ(blocking_out, nonblocking_out);
  EXPECT_EQ(a.ledger().summary().total, b.ledger().summary().total);
}

}  // namespace
}  // namespace parsyrk::comm
