// Tests for src/core: the 1D/2D/3D SYRK algorithms (correctness against the
// serial reference on shape/processor sweeps), measured communication versus
// the paper's closed-form algorithm costs and Theorem 1's lower bound, and
// the §5.4 planner.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/syrk.hpp"
#include "core/syrk_internal.hpp"
#include "costmodel/algorithm_costs.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"

namespace parsyrk::core {
namespace {

constexpr double kTol = 1e-10;

// ---------------------------------------------------------------------------
// 1D algorithm
// ---------------------------------------------------------------------------

class OneDShapes : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(OneDShapes, MatchesReference) {
  const auto [n1, n2, p] = GetParam();
  Matrix a = random_matrix(n1, n2, 101);
  Session session(p);
  const auto run = syrk(session, SyrkRequest(a).use_1d());
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneDShapes,
    ::testing::Values(std::make_tuple(8, 64, 4), std::make_tuple(16, 100, 7),
                      std::make_tuple(1, 50, 3), std::make_tuple(20, 20, 1),
                      std::make_tuple(13, 9, 5),   // n2 not divisible by P
                      std::make_tuple(5, 3, 8)));  // more ranks than columns

class OneDBruck : public ::testing::TestWithParam<int> {};

TEST_P(OneDBruck, DoublyOptimalReductionIsCorrect) {
  // §6: the Bruck-adapted Reduce-Scatter keeps the bandwidth optimum and
  // drops latency to ceil(log2 P); the 1D algorithm's result is unchanged.
  const int p = GetParam();
  const std::size_t n1 = 23, n2 = 64;  // packed triangle NOT divisible by p
  Matrix a = random_matrix(n1, n2, 111);
  Session session(p);
  const auto pairwise =
      syrk(session, SyrkRequest(a).use_1d().with_reduce(ReduceKind::kPairwise));
  const auto bruck =
      syrk(session, SyrkRequest(a).use_1d().with_reduce(ReduceKind::kBruck));
  EXPECT_LT(max_abs_diff(pairwise.c.view(), bruck.c.view()), kTol);
  if (p > 1) {
    EXPECT_EQ(bruck.total.max.msgs_sent,
              static_cast<std::uint64_t>(
                  std::ceil(std::log2(static_cast<double>(p)))));
    // Bandwidth within the padding slack of the pairwise volume.
    EXPECT_LE(bruck.total.max.words_sent, pairwise.total.max.words_sent + p);
  }
  // A 3-entry triangle: from P = 5 on, the trailing ranks' Bruck blocks
  // start past the triangle and assemble nothing.
  Matrix tiny = random_matrix(2, 16, 112);
  const auto tiny_bruck =
      syrk(session, SyrkRequest(tiny).use_1d().with_reduce(ReduceKind::kBruck));
  EXPECT_LT(max_abs_diff(tiny_bruck.c.view(),
                         syrk_reference(tiny.view()).view()),
            kTol);
}

INSTANTIATE_TEST_SUITE_P(Procs, OneDBruck, ::testing::Values(1, 2, 5, 8, 12));

TEST(OneD, CommunicationMatchesEq3) {
  // Eq. (3): each rank sends exactly (1 − 1/P)·n1(n1+1)/2 words in P−1
  // messages (packed-triangle Reduce-Scatter).
  const std::size_t n1 = 40, n2 = 640;
  const int p = 8;
  Matrix a = random_matrix(n1, n2, 102);
  Session session(p);
  syrk(session, SyrkRequest(a).use_1d());
  const auto expected = costmodel::syrk_1d_cost({n1, n2}, p);
  for (const auto& r : session.world().ledger().per_rank()) {
    EXPECT_NEAR(static_cast<double>(r.words_sent), expected.words, 1.0);
    EXPECT_EQ(static_cast<double>(r.msgs_sent), expected.messages);
  }
}

TEST(OneD, SingleRankAddsNoArithmeticToTheKernel) {
  // One rank: the local SYRK into the packed triangle, a Reduce-Scatter
  // that moves nothing, and the assembly into C. None of them adds or
  // reorders arithmetic, so C equals the dense kernel's result bitwise.
  // (9, 300) crosses the kKC = 256 k-block.
  Session session(1);
  for (const auto& [n1, n2] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {7, 3}, {9, 300}, {70, 64}, {2048, 64}}) {
    Matrix a = random_matrix(n1, n2, 5 + n1 + n2);
    const auto run = syrk(session, SyrkRequest(a).use_1d());
    Matrix want(n1, n1);
    syrk_lower(a.view(), want.view());
    symmetrize_from_lower(want.view());
    for (std::size_t i = 0; i < n1; ++i) {
      for (std::size_t j = 0; j < n1; ++j) {
        ASSERT_EQ(run.c(i, j), want(i, j))
            << n1 << "x" << n2 << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(OneD, AttainsCase1BoundAsymptotically) {
  // In case 1 the bound on communicated words is ~n1(n1−1)/2·(1−1/P); the
  // algorithm moves n1(n1+1)/2·(1−1/P): optimal to leading order.
  const std::size_t n1 = 60, n2 = 14400;
  const int p = 4;
  Matrix a = random_matrix(n1, n2, 103);
  Session session(p);
  const auto run = syrk(session, SyrkRequest(a).use_1d());
  const auto bound = bounds::syrk_lower_bound(n1, n2, p);
  ASSERT_EQ(bound.regime, bounds::Regime::kOneD);
  const double measured =
      static_cast<double>(run.total.critical_path_words());
  EXPECT_GE(measured, bound.communicated * 0.999);
  EXPECT_LT(measured / bound.communicated, 1.10);  // (n1+1)/(n1-1) slack
}

// ---------------------------------------------------------------------------
// 2D algorithm
// ---------------------------------------------------------------------------

class TwoDShapes : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(TwoDShapes, MatchesReference) {
  const auto [n1, n2, c] = GetParam();
  Matrix a = random_matrix(n1, n2, 201);
  Session session(static_cast<int>(c * (c + 1)));
  const auto run = syrk(session, SyrkRequest(a).use_2d(c));
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoDShapes,
    ::testing::Values(std::make_tuple(36, 8, 2),    // nb = 9
                      std::make_tuple(36, 5, 3),    // nb = 4
                      std::make_tuple(72, 16, 3),
                      std::make_tuple(100, 3, 5),   // nb = 4, skinny
                      std::make_tuple(49, 2, 7),    // nb = 1
                      std::make_tuple(8, 13, 2)));  // nb = 2, n2 > n1

TEST(TwoD, CommunicationNearEq10) {
  // Each rank exchanges c² chunks of w/P words (a few destinations get
  // empty messages), so measured words ≈ eq. (10)'s (1−1/P)·n1·n2/c.
  const std::size_t n1 = 108, n2 = 24;  // n1 % c² == 0 and (c+1) | nb·n2
  const std::uint64_t c = 3;
  Matrix a = random_matrix(n1, n2, 202);
  Session session(12);
  const auto run = syrk(session, SyrkRequest(a).use_2d(c));
  const auto& summary = run.total;
  const double eq10 = costmodel::syrk_2d_cost({n1, n2}, c).words;
  const double measured = static_cast<double>(summary.critical_path_words());
  // Exactly c² chunks of (n1·n2/c)/P words each:
  const double exact = static_cast<double>(c * c) *
                       (static_cast<double>(n1 * n2) / c / 12.0);
  EXPECT_NEAR(measured, exact, 1.0);
  EXPECT_LE(measured, eq10 + 1.0);
  // measured/eq10 = c²/(P−1): 9/11 here, approaching 1 as c grows.
  EXPECT_GT(measured, eq10 * 0.75);
  // Latency: the pairwise exchange posts P−1 messages per rank.
  EXPECT_EQ(summary.max.msgs_sent, 11u);
}

TEST(TwoD, AttainsCase2Bound) {
  // Tall-skinny problem in regime 2: measured / bound → (in the limit) 1.
  // With c = 5 (P = 30), the finite-P correction factors are ~(1 + 1/(2√P)).
  const std::size_t n1 = 600, n2 = 6;
  const std::uint64_t c = 5;
  Matrix a = random_matrix(n1, n2, 203);
  Session session(30);
  const auto run = syrk(session, SyrkRequest(a).use_2d(c));
  const auto bound = bounds::syrk_lower_bound(n1, n2, 30);
  ASSERT_EQ(bound.regime, bounds::Regime::kTwoD);
  const double measured =
      static_cast<double>(run.total.critical_path_words());
  const double ratio = measured / bound.communicated;
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.35);
}

TEST(TwoD, GatherPhaseIsAllTraffic) {
  // The 2D algorithm communicates only A; no reduce phase exists.
  const std::size_t n1 = 36, n2 = 10;
  Matrix a = random_matrix(n1, n2, 204);
  Session session(6);
  const auto run = syrk(session, SyrkRequest(a).use_2d(2));
  EXPECT_EQ(run.gather_a.total.words_sent, run.total.total.words_sent);
  EXPECT_GT(run.total.total.words_sent, 0u);
}

TEST(TwoD, RequiresMatchingSessionAndDivisibility) {
  Matrix a = random_matrix(36, 8, 205);
  Session small(5);  // c = 2 needs c(c+1) = 6 ranks
  EXPECT_THROW(syrk(small, SyrkRequest(a).use_2d(2)), InvalidArgument);
  Matrix bad = random_matrix(37, 8, 206);  // 37 % 4 != 0
  Session session(6);
  EXPECT_THROW(syrk(session, SyrkRequest(bad).use_2d(2)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// 3D algorithm
// ---------------------------------------------------------------------------

class ThreeDShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t, std::uint64_t>> {
};

TEST_P(ThreeDShapes, MatchesReference) {
  const auto [n1, n2, c, p2] = GetParam();
  Matrix a = random_matrix(n1, n2, 301);
  Session session(static_cast<int>(c * (c + 1) * p2));
  const auto run = syrk(session, SyrkRequest(a).use_3d(c, p2));
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeDShapes,
    ::testing::Values(std::make_tuple(24, 12, 2, 3),   // the Fig. 3 grid
                      std::make_tuple(36, 30, 3, 2),
                      std::make_tuple(16, 40, 2, 4),
                      std::make_tuple(8, 7, 2, 5),     // n2 not divisible
                      std::make_tuple(36, 9, 2, 1),    // degenerate p2 = 1
                      std::make_tuple(50, 64, 5, 2)));

TEST(ThreeD, CommunicationNearEq12) {
  // §5.3.2: All-to-All of A within slices + Reduce-Scatter of C across
  // slices; both volumes must appear in the ledger under their phases.
  const std::size_t n1 = 48, n2 = 36;
  const std::uint64_t c = 2, p2 = 3;
  Matrix a = random_matrix(n1, n2, 302);
  Session session(18);
  const auto run = syrk(session, SyrkRequest(a).use_3d(c, p2));
  const auto& gather = run.gather_a;
  const auto& reduce = run.reduce_c;
  // Gather phase: c² chunks of (n1·(n2/p2)/c)/p1 words.
  const double slice_cols = static_cast<double>(n2) / p2;
  const double exact_gather =
      static_cast<double>(c * c) * (n1 * slice_cols / c / 6.0);
  EXPECT_NEAR(static_cast<double>(gather.max.words_sent), exact_gather, 2.0);
  // Reduce phase: (1 − 1/p2) of the per-k triangle block words.
  const double nb = static_cast<double>(n1) / (c * c);
  const double tri = (c * (c - 1) / 2.0) * nb * nb + nb * (nb + 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(reduce.max.words_sent),
              tri * (1.0 - 1.0 / p2), 2.0);
}

TEST(ThreeD, AttainsCase3BoundWithOptimalGrid) {
  // Square-ish problem, large P, §5.4 grid: measured within a modest factor
  // of (3/2)(n1(n1−1)n2/P)^{2/3} (finite-P corrections shrink as P grows).
  const std::size_t n1 = 120, n2 = 120;
  const std::uint64_t c = 2, p2 = 4;  // P = 24, p1 = 6 ≈ P^{2/3}·(n1/n2)^{2/3}
  Matrix a = random_matrix(n1, n2, 303);
  Session session(24);
  const auto run = syrk(session, SyrkRequest(a).use_3d(c, p2));
  const auto bound = bounds::syrk_lower_bound(n1, n2, 24);
  ASSERT_EQ(bound.regime, bounds::Regime::kThreeD);
  const double measured =
      static_cast<double>(run.total.critical_path_words());
  const double ratio = measured / bound.communicated;
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 2.0);
}

TEST(ThreeD, HonoursReduceAndExchangeOptions) {
  // The reduce-scatter across slices and the gather within each slice run
  // the requested collectives, as the 1D and 2D algorithms do.
  Matrix a = random_matrix(48, 24, 311);
  const Matrix ref = syrk_reference(a.view());
  Session session(24);
  const auto pairwise = syrk(session, SyrkRequest(a).use_3d(2, 4));
  const auto bruck = syrk(
      session, SyrkRequest(a).use_3d(2, 4).with_reduce(ReduceKind::kBruck));
  EXPECT_LT(max_abs_diff(bruck.c.view(), ref.view()), kTol);
  EXPECT_EQ(pairwise.reduce_c.max.msgs_sent, 3u);  // p2 − 1
  EXPECT_EQ(bruck.reduce_c.max.msgs_sent, 2u);     // ceil(log2 p2)

  const auto butterfly =
      syrk(session, SyrkRequest(a).use_3d(2, 2).with_exchange(
                        ExchangeKind::kButterfly));
  EXPECT_LT(max_abs_diff(butterfly.c.view(), ref.view()), kTol);
  EXPECT_EQ(butterfly.gather_a.max.msgs_sent, 3u);  // ceil(log2 p1)
  // Each slice's exchange is 2D's butterfly on the slice's 12 columns.
  const Matrix slice =
      ConstMatrixView(a.view()).block(0, 0, 48, 12).to_matrix();
  const auto two_d = syrk(session, SyrkRequest(slice).use_2d(2).with_exchange(
                                       ExchangeKind::kButterfly));
  EXPECT_EQ(butterfly.gather_a.max.words_sent,
            two_d.gather_a.max.words_sent);
  EXPECT_EQ(butterfly.gather_a.max.msgs_sent, two_d.gather_a.max.msgs_sent);
}

TEST(ThreeD, ReducesToTwoDWhenP2IsOne) {
  // 2D owners compute in place into the result while a 3D slice computes
  // into per-block temporaries and scatters them; the kernels do not depend
  // on where C lives, so the two agree bitwise — pipelined 2D included.
  struct Shape {
    std::size_t n1, n2;
    std::uint64_t c;
  };
  Session session(30);
  for (const Shape s : {Shape{36, 10, 2}, Shape{2048, 64, 2},
                        Shape{100, 37, 5}, Shape{99, 70, 3}}) {
    SCOPED_TRACE(::testing::Message() << s.n1 << "x" << s.n2 << " c=" << s.c);
    Matrix a = random_matrix(s.n1, s.n2, 304);
    const auto run3 = syrk(session, SyrkRequest(a).use_3d(s.c, 1));
    const auto run2 = syrk(session, SyrkRequest(a).use_2d(s.c));
    EXPECT_TRUE(run3.c == run2.c);
    EXPECT_EQ(run3.total.max.words_sent, run2.total.max.words_sent);
    const auto piped =
        syrk(session, SyrkRequest(a).use_2d(s.c).with_pipeline(3));
    EXPECT_TRUE(piped.c == run2.c);
  }
}

// ---------------------------------------------------------------------------
// Result assembly into an uninitialised C
// ---------------------------------------------------------------------------
//
// Entry points allocate the result without a zero-fill and rely on the ranks
// writing every entry. The storage may be fresh pages, which read as zero,
// or a reused block holding a dropped matrix's entries, so a missed entry
// would go unnoticed or read stale data; these tests prefill C with NaN.

struct AssemblyCase {
  const char* name;
  Algorithm algorithm;
  std::size_t n1, n2;
  std::uint64_t procs;        // physical ranks
  std::uint64_t c = 0;        // 2D/3D grid prime
  std::uint64_t p2 = 1;       // 3D slices
  std::uint64_t logical = 0;  // folded logical grid (0 = unfolded)
  int ranks_per_node = 1;
  SyrkOptions opts = {};
};

void PrintTo(const AssemblyCase& t, std::ostream* os) { *os << t.name; }

Plan assembly_plan(const AssemblyCase& t) {
  Plan plan;
  plan.algorithm = t.algorithm;
  plan.procs = t.procs;
  plan.c = t.c;
  plan.p1 = t.algorithm == Algorithm::kOneD ? 1 : t.c * (t.c + 1);
  plan.p2 = t.algorithm == Algorithm::kOneD ? t.procs : t.p2;
  plan.logical = t.logical;
  return plan;
}

/// Every entry of `c` is finite and `c` matches the serial oracle.
void expect_complete(const Matrix& c, const Matrix& a) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(c(i, j))) << "C(" << i << ", " << j << ")";
    }
  }
  const Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), kTol);
}

class UninitialisedResult : public ::testing::TestWithParam<AssemblyCase> {};

TEST_P(UninitialisedResult, EveryEntryWritten) {
  const AssemblyCase& t = GetParam();
  const Plan plan = assembly_plan(t);
  Matrix a = random_matrix(t.n1, t.n2, 404);
  comm::World world(static_cast<int>(plan.logical_ranks()),
                    static_cast<int>(plan.procs));
  world.set_topology(t.ranks_per_node);
  Matrix c(t.n1, t.n1, std::numeric_limits<double>::quiet_NaN());
  world.run([&](comm::Comm& comm) {
    internal::run_syrk_plan_rank(comm, a.view(), plan, t.opts, c);
  });
  expect_complete(c, a);
}

// Base grids (names are filled in per instance below).
const AssemblyCase kOneDCase{"", Algorithm::kOneD, 13, 9, 4};
const AssemblyCase kTwoDCase{"", Algorithm::kTwoD, 36, 10, 6, 2};
const AssemblyCase kThreeDCase{"", Algorithm::kThreeD, 24, 24, 12, 2, 2};

/// `base` renamed, with `tweak` applied to it.
template <class F>
AssemblyCase variant(AssemblyCase base, const char* name, F tweak) {
  base.name = name;
  tweak(base);
  return base;
}
AssemblyCase variant(AssemblyCase base, const char* name) {
  return variant(base, name, [](AssemblyCase&) {});
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, UninitialisedResult,
    ::testing::Values(
        variant(kOneDCase, "OneDPairwise"),
        variant(kOneDCase, "OneDBruck",
                [](AssemblyCase& t) { t.opts.reduce = ReduceKind::kBruck; }),
        variant(kOneDCase, "OneDHierarchical",
                [](AssemblyCase& t) {
                  t.opts.reduce = ReduceKind::kHierarchical;
                  t.ranks_per_node = 2;
                }),
        variant(kOneDCase, "OneDFromRoot",
                [](AssemblyCase& t) { t.opts.root = 1; }),
        variant(kOneDCase, "OneDPipelined",
                [](AssemblyCase& t) { t.opts.pipeline_chunks = 3; }),
        variant(kOneDCase, "OneDZeroColumnRanks",  // n2 < P
                [](AssemblyCase& t) {
                  t.n1 = 5;
                  t.n2 = 3;
                  t.procs = 8;
                }),
        variant(kTwoDCase, "TwoDPairwise"),
        variant(kTwoDCase, "TwoDButterfly",
                [](AssemblyCase& t) {
                  t.opts.exchange = ExchangeKind::kButterfly;
                }),
        variant(kTwoDCase, "TwoDHierarchical",
                [](AssemblyCase& t) {
                  t.opts.exchange = ExchangeKind::kHierarchical;
                  t.ranks_per_node = 3;
                }),
        variant(kTwoDCase, "TwoDPipelined",
                [](AssemblyCase& t) { t.opts.pipeline_chunks = 3; }),
        variant(kTwoDCase, "TwoDFolded",  // 6 logical ranks on 4
                [](AssemblyCase& t) {
                  t.procs = 4;
                  t.logical = 6;
                }),
        variant(kTwoDCase, "TwoDBlockOfOne",  // nb = n1 / c² = 1
                [](AssemblyCase& t) { t.n1 = 4; }),
        variant(kTwoDCase, "TwoDPrimeThree",
                [](AssemblyCase& t) {
                  t.n1 = 27;
                  t.c = 3;
                  t.procs = 12;
                }),
        variant(kThreeDCase, "ThreeDBlocking"),
        variant(kThreeDCase, "ThreeDPipelined",
                [](AssemblyCase& t) { t.opts.pipeline_chunks = 3; })),
    [](const ::testing::TestParamInfo<AssemblyCase>& info) {
      return std::string(info.param.name);
    });

TEST(ExecBuffers, PaddedPlanFillsUninitialisedResult) {
  // n1 = 37 runs padded to 40 = 10·c²; the helper's result is prefilled
  // with NaN so the padded rows and the truncation are both exercised.
  Matrix a = random_matrix(37, 11, 405);
  Plan plan = assembly_plan(kTwoDCase);
  plan.padded_n1 = 40;
  internal::ExecBuffers exec(a, plan);
  ASSERT_EQ(exec.a().rows(), 40u);
  ASSERT_EQ(exec.c().rows(), 40u);
  exec.c().fill(std::numeric_limits<double>::quiet_NaN());
  comm::World world(6);
  world.run([&](comm::Comm& comm) {
    internal::run_syrk_plan_rank(comm, exec.a(), plan, {}, exec.c());
  });
  const Matrix c = exec.take_result();
  ASSERT_EQ(c.rows(), 37u);
  expect_complete(c, a);
}

// ---------------------------------------------------------------------------
// Planner (§5.4)
// ---------------------------------------------------------------------------

TEST(Planner, ShortWideSmallPChoosesOneD) {
  const auto plan = plan_syrk(100, 100000, 8);
  EXPECT_EQ(plan.algorithm, Algorithm::kOneD);
  EXPECT_EQ(plan.regime, bounds::Regime::kOneD);
  EXPECT_EQ(plan.procs, 8u);
}

TEST(Planner, TallSkinnyChoosesTwoDWithPronicGrid) {
  const auto plan = plan_syrk(3600, 10, 35, /*n1_divisibility=*/true);
  EXPECT_EQ(plan.algorithm, Algorithm::kTwoD);
  EXPECT_EQ(plan.regime, bounds::Regime::kTwoD);
  // Largest prime c with c(c+1) <= 35 and c² | 3600: c = 5 (P = 30).
  EXPECT_EQ(plan.c, 5u);
  EXPECT_EQ(plan.procs, 30u);
}

TEST(Planner, DivisibilityConstraintChangesGrid) {
  // n1 = 63: 3² divides 63 but 5² and 2² do not. With divisibility enforced
  // the exact c = 3 grid wins (padded grids stay out of the race).
  const auto plan = plan_syrk(63, 2, 35, /*n1_divisibility=*/true);
  EXPECT_EQ(plan.algorithm, Algorithm::kTwoD);
  EXPECT_EQ(plan.c, 3u);
  EXPECT_EQ(plan.padded_n1, 0u);
  // Loosened, padded grids compete on modeled cost and the cheap c = 2 grid
  // (n1 padded 63 -> 64, only 6 ranks busy) beats every exact choice.
  const auto loose = plan_syrk(63, 2, 35, /*n1_divisibility=*/false);
  EXPECT_EQ(loose.c, 2u);
  EXPECT_EQ(loose.padded_n1, 64u);
  EXPECT_EQ(loose.procs, 6u);
}

TEST(Planner, LargePChoosesThreeD) {
  const auto plan = plan_syrk(120, 120, 24);
  EXPECT_EQ(plan.regime, bounds::Regime::kThreeD);
  EXPECT_EQ(plan.algorithm, Algorithm::kThreeD);
  EXPECT_EQ(plan.p1, plan.c * (plan.c + 1));
  EXPECT_EQ(plan.procs, plan.p1 * plan.p2);
  EXPECT_LE(plan.procs, 24u);
}

TEST(Planner, TinyWorldFoldsTwoDGrid) {
  // No pronic c(c+1) fits in P = 4, which used to strand this tall-skinny
  // problem on the 1D algorithm (≈25x the communication). Virtual-rank
  // folding runs the c = 2 grid's 6 logical ranks on the 4 physical ones.
  const auto plan = plan_syrk(1000, 2, 4);
  EXPECT_EQ(plan.algorithm, Algorithm::kTwoD);
  EXPECT_EQ(plan.c, 2u);
  EXPECT_EQ(plan.procs, 4u);
  EXPECT_TRUE(plan.folded());
  EXPECT_EQ(plan.logical_ranks(), 6u);
  EXPECT_EQ(plan.fold_factor(), 2u);
}

TEST(Planner, PlanPrints) {
  std::ostringstream os;
  os << plan_syrk(120, 120, 24);
  EXPECT_NE(os.str().find("3D"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Planner-path syrk end-to-end
// ---------------------------------------------------------------------------

class AutoShapes : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(AutoShapes, PlansRunsAndValidates) {
  const auto [n1, n2, p] = GetParam();
  Matrix a = random_matrix(n1, n2, 401);
  Session session(static_cast<int>(p));
  const auto run = syrk(session, SyrkRequest(a));
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), kTol);
  EXPECT_LE(run.plan.procs, p);
  // Measured communication respects the lower bound at the plan's P.
  const auto bound = bounds::syrk_lower_bound(n1, n2, run.plan.procs);
  if (run.plan.procs > 1) {
    EXPECT_GE(static_cast<double>(run.total.critical_path_words()) * 1.001,
              bound.communicated * 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AutoShapes,
    ::testing::Values(std::make_tuple(24, 2000, 6),   // 1D regime
                      std::make_tuple(360, 4, 16),    // 2D regime
                      std::make_tuple(64, 64, 24),    // 3D regime
                      std::make_tuple(44, 44, 1),     // serial
                      std::make_tuple(9, 9, 50)));    // more ranks than work

TEST(Auto, PhaseSummariesAreConsistent) {
  Matrix a = random_matrix(48, 48, 402);
  Session session(18);
  const auto run = syrk(session, SyrkRequest(a));
  EXPECT_EQ(run.gather_a.total.words_sent + run.reduce_c.total.words_sent,
            run.total.total.words_sent);
}

TEST(Auto, RandomShapeFuzz) {
  // Random (n1, n2, P) triples through the planner: the plan must execute,
  // validate, and respect the lower bound at its processor count.
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n1 = static_cast<std::size_t>(rng.uniform_int(2, 80));
    const auto n2 = static_cast<std::size_t>(rng.uniform_int(1, 120));
    const auto p = static_cast<std::uint64_t>(rng.uniform_int(1, 40));
    Matrix a = random_matrix(n1, n2, 500 + trial);
    Session session(static_cast<int>(p));
    const auto run = syrk(session, SyrkRequest(a));
    Matrix ref = syrk_reference(a.view());
    ASSERT_LT(max_abs_diff(run.c.view(), ref.view()), kTol)
        << "n1=" << n1 << " n2=" << n2 << " P=" << p << " plan=" << run.plan;
    ASSERT_LE(run.plan.procs, p);
    if (run.plan.procs > 1 && run.bound.communicated > 0) {
      ASSERT_GE(static_cast<double>(run.total.critical_path_words()) * 1.001,
                run.bound.communicated * 0.999)
          << "n1=" << n1 << " n2=" << n2 << " P=" << p;
    }
  }
}

class ButterflyShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(ButterflyShapes, MatchesPairwiseResult) {
  const auto [n1, n2, c] = GetParam();
  Matrix a = random_matrix(n1, n2, 550);
  Session session(static_cast<int>(c * (c + 1)));
  const auto pairwise = syrk(
      session, SyrkRequest(a).use_2d(c).with_exchange(ExchangeKind::kPairwise));
  const auto butterfly = syrk(
      session,
      SyrkRequest(a).use_2d(c).with_exchange(ExchangeKind::kButterfly));
  EXPECT_LT(max_abs_diff(pairwise.c.view(), butterfly.c.view()), kTol);
  // ceil(log2 P) messages.
  const double logp = std::ceil(
      std::log2(static_cast<double>(c * (c + 1))));
  EXPECT_EQ(butterfly.total.max.msgs_sent, static_cast<std::uint64_t>(logp));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ButterflyShapes,
    ::testing::Values(std::make_tuple(36, 6, 2),    // flat = 9·6 % 3 == 0
                      std::make_tuple(36, 8, 3),    // flat = 4·8 % 4 == 0
                      std::make_tuple(100, 12, 5),  // flat = 4·12 % 6 == 0
                      std::make_tuple(12, 9, 2)));  // flat = 3·9 % 3 == 0

// ---------------------------------------------------------------------------
// Internal pieces
// ---------------------------------------------------------------------------

TEST(Internals, AssemblePackedRangeCoversAllEntries) {
  // Split a packed triangle into uneven chunks and assemble them one by one
  // into a NaN-filled result: each chunk writes exactly its own entries and
  // their mirrors, and together they cover the symmetric matrix. n = 70
  // cuts rows mid-way and spans several 32×32 transpose tiles.
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> cases =
      {{7, {3, 10, 1, 14}}, {70, {5, 1200, 37, 1, 900, 342}}};
  for (const auto& [n, lens] : cases) {
    const std::size_t total = n * (n + 1) / 2;
    std::vector<double> packed(total);
    for (std::size_t t = 0; t < total; ++t) packed[t] = 100.0 + t;
    Matrix full(n, n, std::numeric_limits<double>::quiet_NaN());
    std::size_t off = 0;
    for (std::size_t len : lens) {
      assemble_packed_range(std::span(packed).subspan(off, len), off,
                            full.view());
      off += len;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          const std::size_t t = i * (i + 1) / 2 + j;
          if (t < off) {
            ASSERT_EQ(full(i, j), 100.0 + t) << n << ": (" << i << "," << j;
            ASSERT_EQ(full(j, i), 100.0 + t) << n << ": (" << j << "," << i;
          } else {
            ASSERT_TRUE(std::isnan(full(i, j))) << n << ": " << i << "," << j;
            ASSERT_TRUE(std::isnan(full(j, i))) << n << ": " << j << "," << i;
          }
        }
      }
    }
    ASSERT_EQ(off, total);
  }
}

TEST(Internals, FlattenedLayoutIsStable) {
  // A rank's owned blocks flatten to the pairs, row-major in pair order,
  // then the diagonal block packed lower: the layout 3D ranks with the
  // same k reduce-scatter, and each word assembles to its entry and mirror.
  internal::OwnedLayout layout;
  layout.nb = 2;
  layout.pairs = {{1, 0}, {2, 0}};
  layout.diag = 2;
  ASSERT_EQ(layout.size(), 4u + 4u + 3u);
  EXPECT_EQ(layout.offset(1), 4u);
  EXPECT_EQ(layout.offset(2), 8u);  // packed lower of the diagonal block
  std::vector<double> flat(layout.size());
  for (std::size_t t = 0; t < flat.size(); ++t) flat[t] = 100.0 + t;
  Matrix c(6, 6, std::numeric_limits<double>::quiet_NaN());
  internal::assemble_owned_range(layout, flat, 0, c.view());
  EXPECT_EQ(c(2, 0), 100.0);  // pair (1, 0), entry (0, 0)
  EXPECT_EQ(c(2, 1), 101.0);
  EXPECT_EQ(c(3, 0), 102.0);
  EXPECT_EQ(c(0, 3), 102.0);  // its mirror
  EXPECT_EQ(c(4, 0), 104.0);  // pair (2, 0)
  EXPECT_EQ(c(5, 1), 107.0);
  EXPECT_EQ(c(4, 4), 108.0);  // diagonal block 2, packed lower
  EXPECT_EQ(c(5, 4), 109.0);
  EXPECT_EQ(c(4, 5), 109.0);
  EXPECT_EQ(c(5, 5), 110.0);
  EXPECT_TRUE(std::isnan(c(0, 0)));  // not owned
}

}  // namespace
}  // namespace parsyrk::core
