// Differential test over the SYRK option lattice: grid × reduce × exchange
// × pipeline (0, 1, 3) × fold × pad × root × topology, on seeded random
// shapes, through the public Session/SyrkRequest path. A plan resolver
// pins each grid (folded and padded plans included), so every request runs
// exactly the lattice point it names.
//
//   - Every legal combination matches syrk_reference.
//   - Every pipelined run equals its blocking twin bitwise.
//   - Every requested collective runs: a Bruck reduce-scatter sends
//     ceil(log2 p2) messages per rank and a butterfly exchange ceil(log2
//     p1), on 1D and 3D grids alike.
//   - Every illegal combination throws InvalidArgument with a message that
//     names both conflicting options.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/session.hpp"
#include "distribution/block1d.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parsyrk::core {
namespace {

constexpr double kTol = 1e-9;

struct Grid {
  const char* name;
  Algorithm algorithm;
  std::uint64_t procs;        // physical ranks (the session size)
  std::uint64_t c = 0;        // 2D/3D grid prime
  std::uint64_t p2 = 1;       // 3D slices
  std::uint64_t logical = 0;  // folded logical grid (0 = unfolded)
  int rpn = 1;                // the lattice's two-level topology
};

void PrintTo(const Grid& g, std::ostream* os) { *os << g.name; }

const Grid kGrids[] = {
    {"OneDOneRank", Algorithm::kOneD, 1},
    {"OneDFourRanks", Algorithm::kOneD, 4, 0, 1, 0, 2},
    {"OneDFiveRanks", Algorithm::kOneD, 5, 0, 1, 0, 5},
    {"TwoDPrimeTwo", Algorithm::kTwoD, 6, 2, 1, 0, 3},
    {"TwoDFoldedSixOnFour", Algorithm::kTwoD, 4, 2, 1, 6, 2},
    {"TwoDPrimeThree", Algorithm::kTwoD, 12, 3, 1, 0, 2},
    {"ThreeDTwoSlices", Algorithm::kThreeD, 12, 2, 2, 0, 2},
    {"ThreeDThreeSlices", Algorithm::kThreeD, 18, 2, 3, 0, 3},
};

Plan grid_plan(const Grid& g, std::uint64_t padded_n1) {
  Plan plan;
  plan.algorithm = g.algorithm;
  plan.procs = g.procs;
  plan.c = g.c;
  plan.p1 = g.algorithm == Algorithm::kOneD ? 1 : g.c * (g.c + 1);
  plan.p2 = g.algorithm == Algorithm::kOneD ? g.procs : g.p2;
  plan.logical = g.logical;
  plan.padded_n1 = padded_n1;
  return plan;
}

std::uint64_t ceil_log2(std::uint64_t p) {
  std::uint64_t rounds = 0;
  while ((std::uint64_t{1} << rounds) < p) ++rounds;
  return rounds;
}

/// Two words an error message must both contain: one per conflicting
/// option.
struct Conflict {
  const char* first;
  const char* second;
};

class OptionLattice : public ::testing::TestWithParam<Grid> {};

TEST_P(OptionLattice, LegalRunsMatchAndIllegalOnesNameTheConflict) {
  const Grid& g = GetParam();
  Session session(static_cast<int>(g.procs));
  Plan pinned;
  session.set_plan_resolver(
      [&pinned](std::uint64_t n1, std::uint64_t n2, std::uint64_t cap,
                const PlanSearchOptions&) {
        return std::make_shared<const PlanReport>(
            report_for_plan(n1, n2, cap, pinned, "lattice point"));
      });
  const bool one_d = g.algorithm == Algorithm::kOneD;
  const std::uint64_t p1 = one_d ? 1 : g.c * (g.c + 1);
  const std::uint64_t p2 = one_d ? g.procs : g.p2;
  Rng rng(0x1a771ce + g.procs * 31 + g.c * 7 + g.p2 + g.logical);
  int legal = 0;
  int illegal = 0;

  for (const bool pad : {false, true}) {
    if (pad && one_d) continue;  // padding rounds n1 up to a multiple of c²
    const std::uint64_t blocks = one_d ? 1 : g.c * g.c;
    const std::uint64_t m = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    const std::uint64_t n1 =
        one_d ? static_cast<std::uint64_t>(rng.uniform_int(2, 30))
              : blocks * m + (pad ? static_cast<std::uint64_t>(
                                        rng.uniform_int(1, blocks - 1))
                                  : 0);
    const auto n2 = static_cast<std::size_t>(rng.uniform_int(3, 20));
    pinned = grid_plan(g, pad ? blocks * (m + 1) : 0);
    const Matrix a = random_matrix(n1, n2, rng.next_u64());
    const Matrix ref = syrk_reference(a.view());
    // Butterfly needs every slice's chunks even: (n1/c²)·(slice columns)
    // divisible by c+1.
    bool butterfly_even = true;
    for (std::uint64_t l = 0; !one_d && l < g.p2; ++l) {
      const std::uint64_t width = dist::chunk_size(
          n2, static_cast<int>(g.p2), static_cast<int>(l));
      butterfly_even &=
          pinned.exec_n1(n1) / blocks * width % (g.c + 1) == 0;
    }

    std::vector<int> topologies = {1};
    if (g.rpn > 1) topologies.push_back(g.rpn);
    for (const int rpn : topologies) {
      Matrix twin;  // the blocking pairwise run of this shape and topology
      for (const bool root : {false, true}) {
        for (const auto reduce : {ReduceKind::kPairwise, ReduceKind::kBruck,
                                  ReduceKind::kHierarchical}) {
          for (const auto exchange :
               {ExchangeKind::kPairwise, ExchangeKind::kButterfly,
                ExchangeKind::kHierarchical}) {
            for (const int chunks : {0, 1, 3}) {
              const std::string point =
                  std::string(g.name) + " n1=" + std::to_string(n1) +
                  " n2=" + std::to_string(n2) + " pad=" +
                  std::to_string(pad) + " rpn=" + std::to_string(rpn) +
                  " root=" + std::to_string(root) + " reduce=" +
                  std::to_string(static_cast<int>(reduce)) + " exchange=" +
                  std::to_string(static_cast<int>(exchange)) +
                  " chunks=" + std::to_string(chunks);
              SyrkRequest req(a);
              req.with_reduce(reduce).with_exchange(exchange).with_topology(
                  rpn);
              if (chunks > 0) req.with_pipeline(chunks);
              if (root) req.from_root(static_cast<int>(g.procs) - 1);

              std::vector<Conflict> conflicts;
              if (root && !one_d) conflicts.push_back({"from_root", "1D"});
              if (chunks > 0 && root) {
                conflicts.push_back({"with_pipeline", "from_root"});
              }
              if (chunks > 0 && (reduce != ReduceKind::kPairwise ||
                                 exchange != ExchangeKind::kPairwise)) {
                conflicts.push_back({"with_pipeline", "collectives"});
              }
              if (rpn > 1 && g.logical != 0) {
                conflicts.push_back({"with_topology", "folded"});
              }
              if (!one_d && exchange == ExchangeKind::kButterfly &&
                  !butterfly_even) {
                conflicts.push_back({"butterfly", "divisible by c+1"});
              }

              if (!conflicts.empty()) {
                try {
                  syrk(session, req);
                  ADD_FAILURE() << point << ": illegal, but ran";
                } catch (const InvalidArgument& e) {
                  const std::string what = e.what();
                  bool named = false;
                  for (const Conflict& c : conflicts) {
                    named |= what.find(c.first) != std::string::npos &&
                             what.find(c.second) != std::string::npos;
                  }
                  EXPECT_TRUE(named) << point << ": " << what;
                }
                ++illegal;
                continue;
              }

              const SyrkRun run = syrk(session, req);
              ++legal;
              ASSERT_EQ(run.plan.algorithm, g.algorithm) << point;
              ASSERT_EQ(run.plan.logical, g.logical) << point;
              EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), kTol)
                  << point;
              const bool pairwise = reduce == ReduceKind::kPairwise &&
                                    exchange == ExchangeKind::kPairwise;
              if (pairwise && !root && chunks == 0) twin = run.c;
              if (chunks > 0) {
                EXPECT_TRUE(run.c == twin) << point;
              }
              // Counts on flat, unfolded grids (folding hides co-located
              // messages; root ingestion reduces pairwise).
              if (chunks == 0 && !root && rpn == 1 && g.logical == 0) {
                if (reduce == ReduceKind::kBruck && p2 > 1) {
                  EXPECT_EQ(run.reduce_c.max.msgs_sent, ceil_log2(p2))
                      << point;
                }
                if (exchange == ExchangeKind::kButterfly && p1 > 1) {
                  EXPECT_EQ(run.gather_a.max.msgs_sent, ceil_log2(p1))
                      << point;
                }
              }
            }
          }
        }
      }
    }
  }
  // Neither side of the lattice is empty.
  EXPECT_GT(legal, 0);
  EXPECT_GT(illegal, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, OptionLattice, ::testing::ValuesIn(kGrids),
    [](const ::testing::TestParamInfo<Grid>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace parsyrk::core
