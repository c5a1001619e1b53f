// Tests for the §6 extensions: parallel SYR2K and SYMM on the triangle
// distribution, the butterfly exchange variant, memory-aware planning, and
// the schedule-analysis ablation machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baseline/gemm.hpp"
#include "bounds/schedule_analysis.hpp"
#include "bounds/syr2k_bounds.hpp"
#include "core/distributed.hpp"
#include "core/memory.hpp"
#include "core/session.hpp"
#include "core/symm.hpp"
#include "core/syr2k.hpp"
#include "core/syrk.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"

namespace parsyrk {
namespace {

constexpr double kTol = 1e-9;

// ---------------------------------------------------------------------------
// SYR2K kernels
// ---------------------------------------------------------------------------

TEST(Syr2kKernel, BlockedMatchesNaive) {
  Matrix a = random_matrix(37, 19, 601);
  Matrix b = random_matrix(37, 19, 602);
  Matrix c1(37, 37), c2(37, 37);
  syr2k_lower_naive(a.view(), b.view(), c1.view());
  syr2k_lower(a.view(), b.view(), c2.view());
  EXPECT_LT(max_abs_diff_lower(c1.view(), c2.view()), 1e-12);
}

TEST(Syr2kKernel, EqualsTwoGemms) {
  Matrix a = random_matrix(20, 8, 603);
  Matrix b = random_matrix(20, 8, 604);
  Matrix via_gemm(20, 20);
  gemm_nt(a.view(), b.view(), via_gemm.view());
  gemm_nt(b.view(), a.view(), via_gemm.view());
  Matrix ref = syr2k_reference(a.view(), b.view());
  EXPECT_LT(max_abs_diff(ref.view(), via_gemm.view()), 1e-12);
}

TEST(Syr2kKernel, SyrkIsHalfOfSyr2kWithSelf) {
  // SYR2K(A, A) = 2·SYRK(A).
  Matrix a = random_matrix(15, 6, 605);
  Matrix two_syrk = syrk_reference(a.view());
  for (std::size_t i = 0; i < two_syrk.rows(); ++i) {
    for (std::size_t j = 0; j < two_syrk.cols(); ++j) two_syrk(i, j) *= 2.0;
  }
  Matrix r2k = syr2k_reference(a.view(), a.view());
  EXPECT_LT(max_abs_diff(two_syrk.view(), r2k.view()), 1e-12);
}

// ---------------------------------------------------------------------------
// Parallel SYR2K
// ---------------------------------------------------------------------------

class Syr2kShapes : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(Syr2kShapes, OneDMatchesReference) {
  const auto [n1, n2, p] = GetParam();
  Matrix a = random_matrix(n1, n2, 611);
  Matrix b = random_matrix(n1, n2, 612);
  comm::World world(p);
  Matrix c = core::syr2k_1d(world, a, b);
  EXPECT_LT(max_abs_diff(c.view(), syr2k_reference(a.view(), b.view()).view()),
            kTol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Syr2kShapes,
                         ::testing::Values(std::make_tuple(8, 64, 4),
                                           std::make_tuple(13, 9, 5),
                                           std::make_tuple(20, 20, 1),
                                           std::make_tuple(5, 3, 7)));

class Syr2k2dShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(Syr2k2dShapes, TwoDMatchesReference) {
  const auto [n1, n2, c] = GetParam();
  Matrix a = random_matrix(n1, n2, 613);
  Matrix b = random_matrix(n1, n2, 614);
  comm::World world(static_cast<int>(c * (c + 1)));
  Matrix out = core::syr2k_2d(world, a, b, c);
  EXPECT_LT(
      max_abs_diff(out.view(), syr2k_reference(a.view(), b.view()).view()),
      kTol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Syr2k2dShapes,
                         ::testing::Values(std::make_tuple(36, 8, 2),
                                           std::make_tuple(36, 5, 3),
                                           std::make_tuple(100, 3, 5),
                                           std::make_tuple(8, 13, 2)));

TEST(Syr2kParallel, ThreeDMatchesReference) {
  const std::size_t n1 = 24, n2 = 12;
  Matrix a = random_matrix(n1, n2, 615);
  Matrix b = random_matrix(n1, n2, 616);
  comm::World world(18);
  Matrix out = core::syr2k_3d(world, a, b, 2, 3);
  EXPECT_LT(
      max_abs_diff(out.view(), syr2k_reference(a.view(), b.view()).view()),
      kTol);
}

TEST(Syr2kParallel, TwoDMovesTwiceSyrk) {
  // Gathering both factors doubles the A-phase volume exactly.
  const std::size_t n1 = 108, n2 = 24;
  Matrix a = random_matrix(n1, n2, 617);
  Matrix b = random_matrix(n1, n2, 618);
  core::Session s1(12);
  const auto syrk_run = core::syrk(s1, core::SyrkRequest(a).use_2d(3));
  comm::World w2(12);
  core::syr2k_2d(w2, a, b, 3);
  EXPECT_EQ(2 * syrk_run.total.max.words_sent,
            w2.ledger().summary().max.words_sent);
}

TEST(Syr2kParallel, AttainsExtendedBound) {
  const std::size_t n1 = 600, n2 = 6;
  comm::World world(30);
  Matrix a = random_matrix(n1, n2, 619);
  Matrix b = random_matrix(n1, n2, 620);
  core::syr2k_2d(world, a, b, 5);
  const auto bound = bounds::syr2k_lower_bound(n1, n2, 30);
  ASSERT_EQ(bound.regime, bounds::Regime::kTwoD);
  const double measured =
      static_cast<double>(world.ledger().summary().critical_path_words());
  const double ratio = measured / bound.communicated;
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.4);
}

TEST(Syr2kParallel, HalvesGemmPairCommunication) {
  const std::size_t n1 = 242, n2 = 12;
  Matrix a = random_matrix(n1, n2, 621);
  Matrix b = random_matrix(n1, n2, 622);
  comm::World wt(132), wg(121);
  Matrix ct = core::syr2k_2d(wt, a, b, 11);
  Matrix cg = baseline::syr2k_gemm_baseline(wg, a, b, 11);
  EXPECT_LT(max_abs_diff(ct.view(), cg.view()), kTol);
  const double tri = static_cast<double>(wt.ledger().summary().max.words_sent);
  const double gem = static_cast<double>(wg.ledger().summary().max.words_sent);
  EXPECT_NEAR(gem / tri, 2.0, 0.15);
}

TEST(Syr2kBound, CaseBoundariesContinuous) {
  const std::uint64_t n1 = 1000, n2 = 1000000;
  const double pstar = 2.0 * n2 / std::sqrt(n1 * (n1 - 1.0));
  const auto below = bounds::syr2k_lower_bound(
      n1, n2, static_cast<std::uint64_t>(pstar * 0.999));
  const auto above = bounds::syr2k_lower_bound(
      n1, n2, static_cast<std::uint64_t>(pstar * 1.001) + 1);
  EXPECT_NEAR(below.w / above.w, 1.0, 0.01);
}

TEST(Syr2kBound, TwiceTheSyrkA_Term) {
  // In case 2 the SYR2K bound's leading term is 2·n1·n2/√P vs SYRK's.
  const auto s2 = bounds::syr2k_lower_bound(100000, 100, 64);
  const auto s1 = bounds::syrk_lower_bound(100000, 100, 64);
  ASSERT_EQ(s2.regime, bounds::Regime::kTwoD);
  EXPECT_NEAR(s2.communicated / s1.communicated, 2.0, 0.05);
}

// ---------------------------------------------------------------------------
// SYMM
// ---------------------------------------------------------------------------

TEST(SymmKernel, MatchesExplicitSymmetricProduct) {
  const std::size_t n = 12, m = 5;
  Matrix s = syrk_reference(random_matrix(n, 4, 631).view());  // SPD-ish
  Matrix b = random_matrix(n, m, 632);
  Matrix via_kernel = symm_reference(s.view(), b.view());
  Matrix bt = transpose(b.view());
  Matrix expected(n, m);
  gemm_nt(s.view(), bt.view(), expected.view());  // S·(Bᵀ)ᵀ = S·B
  EXPECT_LT(max_abs_diff(via_kernel.view(), expected.view()), 1e-12);
}

class SymmShapes : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(SymmShapes, TriangleSymmMatchesReference) {
  const auto [n, m, c] = GetParam();
  Matrix s = syrk_reference(random_matrix(n, 7, 633).view());
  Matrix b = random_matrix(n, m, 634);
  comm::World world(static_cast<int>(c * (c + 1)));
  Matrix out = core::symm_2d(world, s, b, c);
  EXPECT_LT(max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
            kTol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SymmShapes,
                         ::testing::Values(std::make_tuple(36, 8, 2),
                                           std::make_tuple(36, 3, 3),
                                           std::make_tuple(100, 10, 5),
                                           std::make_tuple(16, 24, 2)));

TEST(Symm, IgnoresUpperTriangleOfS) {
  const std::size_t n = 36, m = 4;
  Matrix s = syrk_reference(random_matrix(n, 6, 635).view());
  Matrix b = random_matrix(n, m, 636);
  Matrix garbage = s;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) garbage(i, j) = 1e9;
  }
  comm::World world(6);
  Matrix out = core::symm_2d(world, garbage, b, 2);
  EXPECT_LT(max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
            kTol);
}

class Symm1dProcs : public ::testing::TestWithParam<int> {};

TEST_P(Symm1dProcs, MatchesReference) {
  const int p = GetParam();
  const std::size_t n = 18, m = 40;
  Matrix s = syrk_reference(random_matrix(n, 5, 671).view());
  Matrix b = random_matrix(n, m, 672);
  comm::World world(p);
  Matrix out = core::symm_1d(world, s, b);
  EXPECT_LT(
      max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
      kTol);
}

INSTANTIATE_TEST_SUITE_P(Procs, Symm1dProcs, ::testing::Values(1, 2, 5, 8));

TEST(Symm, OneDCommunicatesOnlyThePackedTriangle) {
  const std::size_t n = 16, m = 64;
  Matrix s = syrk_reference(random_matrix(n, 4, 673).view());
  Matrix b = random_matrix(n, m, 674);
  const int p = 4;
  comm::World world(p);
  core::symm_1d(world, s, b);
  // Each rank all-gathers the triangle: sends its own chunk to p−1 peers.
  const std::size_t tri = n * (n + 1) / 2;
  std::uint64_t total = 0;
  for (const auto& r : world.ledger().per_rank()) total += r.words_sent;
  EXPECT_EQ(total, (p - 1) * tri);
}

TEST(Symm, OneDIgnoresUpperTriangleOfS) {
  const std::size_t n = 12, m = 9;
  Matrix s = syrk_reference(random_matrix(n, 4, 675).view());
  Matrix garbage = s;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) garbage(i, j) = 1e9;
  }
  Matrix b = random_matrix(n, m, 676);
  comm::World world(3);
  Matrix out = core::symm_1d(world, garbage, b);
  EXPECT_LT(
      max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
      kTol);
}

TEST(Symm, BaselineMatchesReference) {
  const std::size_t n = 30, m = 8;
  Matrix s = syrk_reference(random_matrix(n, 5, 637).view());
  Matrix b = random_matrix(n, m, 638);
  comm::World world(9);
  Matrix out = baseline::symm_gemm_baseline(world, s, b, 3);
  EXPECT_LT(max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
            kTol);
}

TEST(Symm, TriangleMovesNoSAndBeatsGemmBaselineWhenNIsLarge) {
  // n >> m: the GEMM baseline hauls n²/√P-word S panels; triangle SYMM
  // moves only B and C rows.
  const std::size_t n = 242, m = 4;
  Matrix s = syrk_reference(random_matrix(n, 3, 639).view());
  Matrix b = random_matrix(n, m, 640);
  comm::World wt(132), wg(121);
  Matrix ct = core::symm_2d(wt, s, b, 11);
  Matrix cg = baseline::symm_gemm_baseline(wg, s, b, 11);
  EXPECT_LT(max_abs_diff(ct.view(), cg.view()), kTol);
  const auto tri = wt.ledger().summary().max.words_sent;
  const auto gem = wg.ledger().summary().max.words_sent;
  EXPECT_LT(tri * 4, gem);  // at n/m = 60 the S panels dominate heavily
}

// ---------------------------------------------------------------------------
// Butterfly exchange variant (§6)
// ---------------------------------------------------------------------------

TEST(Butterfly, TwoDSyrkCorrectAndLowLatency) {
  const std::size_t n1 = 108, n2 = 24;  // flat = 12·24 divisible by c+1 = 4
  Matrix a = random_matrix(n1, n2, 641);
  Matrix ref = syrk_reference(a.view());
  core::Session session(12);
  const auto runp = core::syrk(
      session,
      core::SyrkRequest(a).use_2d(3).with_exchange(
          core::ExchangeKind::kPairwise));
  const auto runb = core::syrk(
      session,
      core::SyrkRequest(a).use_2d(3).with_exchange(
          core::ExchangeKind::kButterfly));
  EXPECT_LT(max_abs_diff(runp.c.view(), ref.view()), kTol);
  EXPECT_LT(max_abs_diff(runb.c.view(), ref.view()), kTol);
  const auto& sp = runp.total;
  const auto& sb = runb.total;
  EXPECT_EQ(sp.max.msgs_sent, 11u);  // P − 1
  EXPECT_EQ(sb.max.msgs_sent, 4u);   // ceil(log2 12)
  EXPECT_GT(sb.max.words_sent, sp.max.words_sent);  // the bandwidth price
}

TEST(Butterfly, RejectsUnevenChunks) {
  Matrix a = random_matrix(18, 5, 642);  // flat = 2·5 = 10, not % (c+1) = 4
  core::Session session(12);
  EXPECT_THROW(
      core::syrk(session, core::SyrkRequest(a).use_2d(3).with_exchange(
                              core::ExchangeKind::kButterfly)),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Memory model (§6)
// ---------------------------------------------------------------------------

TEST(Memory, FootprintFormulas) {
  core::Plan p1d;
  p1d.algorithm = core::Algorithm::kOneD;
  p1d.procs = 8;
  p1d.p2 = 8;
  EXPECT_DOUBLE_EQ(core::memory_footprint_per_rank(p1d, 100, 800),
                   100.0 * 800.0 / 8.0 + 100.0 * 101.0 / 2.0);

  core::Plan p2d;
  p2d.algorithm = core::Algorithm::kTwoD;
  p2d.c = 3;
  p2d.p1 = 12;
  p2d.p2 = 1;
  p2d.procs = 12;
  const double nb = 90.0 / 9.0;
  const double expect = 2.0 * (3.0 * nb * 40.0) +
                        3.0 * nb * nb + nb * (nb + 1.0) / 2.0;
  EXPECT_DOUBLE_EQ(core::memory_footprint_per_rank(p2d, 90, 40), expect);
}

TEST(Memory, DependentBoundFormula) {
  EXPECT_DOUBLE_EQ(core::syrk_memory_dependent_bound(100, 10, 4, 50),
                   100.0 * 100.0 * 10.0 /
                       (std::sqrt(2.0) * 4.0 * std::sqrt(50.0)));
}

TEST(Memory, CombinedBoundTakesMax) {
  // Tiny memory: the memory-dependent term dominates; huge memory: the
  // memory-independent Theorem 1 term does.
  const std::uint64_t n1 = 1000, n2 = 1000, p = 64;
  const double mi = bounds::syrk_lower_bound(n1, n2, p).communicated;
  EXPECT_GT(core::syrk_combined_bound(n1, n2, p, 100), mi);
  EXPECT_DOUBLE_EQ(core::syrk_combined_bound(n1, n2, p, 1u << 30), mi);
}

TEST(Memory, AwarePlannerPrefersCheapestFittingPlan) {
  // Plenty of memory: picks the (3D) plan with minimum predicted words.
  const auto plenty =
      core::plan_syrk_memory_aware(144, 144, 24, 1u << 30);
  ASSERT_TRUE(plenty.has_value());
  EXPECT_EQ(plenty->plan.algorithm, core::Algorithm::kThreeD);

  // The 1D plan needs ~n1²/2 + n1·n2/P ≈ 11.3k words; cap memory below
  // that but above the best 3D footprint (~7.1k): 1D must be excluded.
  const auto tight = core::plan_syrk_memory_aware(144, 144, 24, 8000);
  ASSERT_TRUE(tight.has_value());
  EXPECT_NE(tight->plan.algorithm, core::Algorithm::kOneD);
  EXPECT_LE(tight->footprint_words, 8000.0);

  // Absurdly small memory: nothing fits.
  EXPECT_FALSE(core::plan_syrk_memory_aware(144, 144, 24, 10).has_value());
}

TEST(Memory, FootprintsFitTheChosenLimit) {
  for (std::uint64_t mem : {4000, 8000, 20000, 100000}) {
    const auto plan = core::plan_syrk_memory_aware(180, 360, 48, mem);
    if (!plan) continue;
    EXPECT_LE(plan->footprint_words, static_cast<double>(mem));
  }
}

// ---------------------------------------------------------------------------
// Distributed-result API
// ---------------------------------------------------------------------------

TEST(Distributed, AssembleMatchesReference) {
  const std::size_t n1 = 72, n2 = 10;
  Matrix a = random_matrix(n1, n2, 651);
  comm::World world(12);
  auto result = core::DistributedSyrkResult::compute_2d(world, a, 3);
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(result.assemble().view(), ref.view()), kTol);
}

TEST(Distributed, ElementLookupOnOwner) {
  const std::size_t n1 = 36, n2 = 6;
  Matrix a = random_matrix(n1, n2, 652);
  comm::World world(6);
  auto result = core::DistributedSyrkResult::compute_2d(world, a, 2);
  Matrix ref = syrk_reference(a.view());
  for (std::size_t i = 0; i < n1; i += 5) {
    for (std::size_t j = 0; j < n1; j += 7) {
      EXPECT_NEAR(result.at(i, j), ref(i, j), 1e-10) << i << "," << j;
    }
  }
}

TEST(Distributed, GatherToRootPaysTheFunnel) {
  const std::size_t n1 = 72, n2 = 10;
  Matrix a = random_matrix(n1, n2, 653);
  comm::World world(12);
  auto result = core::DistributedSyrkResult::compute_2d(world, a, 3);
  const auto before = world.ledger().summary().total.words_sent;
  Matrix gathered = result.gather_to_root(world, 0);
  EXPECT_LT(max_abs_diff(gathered.view(), syrk_reference(a.view()).view()),
            kTol);
  const auto funnel = world.ledger().summary("gather_result");
  // The root receives everything but its own blocks: exactly the owned
  // block words of 11 ranks.
  std::uint64_t expected = 0;
  for (int r = 1; r < 12; ++r) expected += result.local(r).data.size();
  EXPECT_EQ(funnel.total.words_sent - 0, expected);
  EXPECT_GT(world.ledger().summary().total.words_sent, before);
}

TEST(Distributed, AccumulateBatchesEqualsOneBigSyrk) {
  // Streaming rank-k updates: SYRK over two column batches accumulated
  // into the distributed result equals one SYRK over the concatenation.
  const std::size_t n1 = 36, k1 = 8, k2 = 5;
  Matrix all = random_matrix(n1, k1 + k2, 655);
  Matrix batch1 = ConstMatrixView(all.view().block(0, 0, n1, k1)).to_matrix();
  Matrix batch2 =
      ConstMatrixView(all.view().block(0, k1, n1, k2)).to_matrix();
  comm::World world(6);
  auto result = core::DistributedSyrkResult::compute_2d(world, batch1, 2);
  result.accumulate_2d(world, batch2, /*alpha=*/1.0, /*beta=*/1.0);
  Matrix ref = syrk_reference(all.view());
  EXPECT_LT(max_abs_diff(result.assemble().view(), ref.view()), kTol);
}

TEST(Distributed, AccumulateAlphaBetaScaling) {
  // C := 2·A₂A₂ᵀ + 0.5·(A₁A₁ᵀ).
  const std::size_t n1 = 36;
  Matrix a1 = random_matrix(n1, 6, 656);
  Matrix a2 = random_matrix(n1, 4, 657);
  comm::World world(6);
  auto result = core::DistributedSyrkResult::compute_2d(world, a1, 2);
  result.accumulate_2d(world, a2, 2.0, 0.5);
  Matrix r1 = syrk_reference(a1.view());
  Matrix r2 = syrk_reference(a2.view());
  Matrix expected(n1, n1);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      expected(i, j) = 0.5 * r1(i, j) + 2.0 * r2(i, j);
    }
  }
  EXPECT_LT(max_abs_diff(result.assemble().view(), expected.view()), kTol);
}

TEST(Distributed, AccumulateRejectsMismatchedRows) {
  comm::World world(6);
  auto result = core::DistributedSyrkResult::compute_2d(
      world, random_matrix(36, 4, 658), 2);
  Matrix wrong = random_matrix(40, 4, 659);
  EXPECT_THROW(result.accumulate_2d(world, wrong, 1.0, 1.0),
               InvalidArgument);
}

TEST(FromRoot, ScatterThenSyrkMatchesReference) {
  const std::size_t n1 = 20, n2 = 50;
  Matrix a = random_matrix(n1, n2, 660);
  core::Session session(5);
  const auto run =
      core::syrk(session, core::SyrkRequest(a).use_1d().from_root(2));
  EXPECT_LT(max_abs_diff(run.c.view(), syrk_reference(a.view()).view()), kTol);
}

TEST(FromRoot, ScatterCostIsVisibleAndAttributed) {
  const std::size_t n1 = 16, n2 = 40;
  const int p = 8;
  Matrix a = random_matrix(n1, n2, 661);
  core::Session session(p);
  const auto run =
      core::syrk(session, core::SyrkRequest(a).use_1d().from_root(0));
  const auto& scatter = run.scatter_a;
  // The root ships every column block but its own: n1·(n2 − n2/P) words.
  EXPECT_EQ(scatter.max.words_sent, n1 * (n2 - n2 / p));
  EXPECT_EQ(scatter.total.words_sent, scatter.max.words_sent);  // root only
  // The algorithm phase is unchanged by the ingestion.
  EXPECT_GT(run.reduce_c.max.words_sent, 0u);
}

TEST(Distributed, LocalBlocksFollowTheDistribution) {
  const std::size_t n1 = 48, n2 = 4;
  Matrix a = random_matrix(n1, n2, 654);
  comm::World world(6);
  auto result = core::DistributedSyrkResult::compute_2d(world, a, 2);
  dist::TriangleBlockDistribution d(2);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(result.local(r).layout.pairs, d.owned_pairs(r));
    EXPECT_EQ(result.local(r).layout.diag.has_value(),
              d.diagonal_block(r).has_value());
  }
}

// ---------------------------------------------------------------------------
// Schedule analysis
// ---------------------------------------------------------------------------

TEST(Schedule, TriangleAssignmentNearLemma6Optimum) {
  dist::TriangleBlockDistribution d(3);
  const std::uint64_t n1 = 72, n2 = 24;
  const auto stats = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::triangle_block_assignment(d, n1));
  // Perfectly balanced up to the diagonal blocks, and within ~25% of the
  // Lemma 6 data optimum at this modest size.
  EXPECT_LT(stats.balance, 1.20);
  EXPECT_LT(stats.data_vs_optimum, 1.30);
  EXPECT_GE(stats.data_vs_optimum, 1.0 - 1e-9);
}

TEST(Schedule, BlockRowNeedsMoreData) {
  const std::uint64_t n1 = 72, n2 = 24;
  dist::TriangleBlockDistribution d(3);
  const auto tri = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::triangle_block_assignment(d, n1));
  const auto rows = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::block_row_assignment(n1, 12));
  // Block rows of C require (almost) all rows of A on the bottom processor.
  EXPECT_GT(rows.max_a_elements, 2 * tri.max_a_elements);
}

TEST(Schedule, RandomAssignmentIsWorst) {
  const std::uint64_t n1 = 72, n2 = 24;
  dist::TriangleBlockDistribution d(3);
  const auto tri = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::triangle_block_assignment(d, n1));
  const auto rnd = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::random_assignment(12, 99));
  // A random owner per block touches ~every row of A on every processor.
  EXPECT_GT(rnd.max_a_elements, 2 * tri.max_a_elements);
  EXPECT_NEAR(static_cast<double>(rnd.max_a_elements), n1 * n2, n1 * n2 * 0.1);
}

TEST(Schedule, CyclicBalancedButDataHungry) {
  const std::uint64_t n1 = 72, n2 = 24;
  const auto cyc = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::cyclic_assignment(12));
  EXPECT_LT(cyc.balance, 1.05);
  EXPECT_NEAR(static_cast<double>(cyc.max_a_elements), n1 * n2,
              n1 * n2 * 0.05);
}

TEST(Schedule, GridAssignmentBetweenTriangleAndRandom) {
  const std::uint64_t n1 = 72, n2 = 24;
  dist::TriangleBlockDistribution d(3);
  const auto tri = bounds::analyze_column_schedule(
      n1, n2, 12, bounds::triangle_block_assignment(d, n1));
  // 4×4 grid = 16 procs; compare data-vs-optimum ratios (P differs).
  const auto grid = bounds::analyze_column_schedule(
      n1, n2, 16, bounds::grid_assignment(n1, 4));
  EXPECT_GT(grid.data_vs_optimum, tri.data_vs_optimum);
}

TEST(Schedule3D, TriangleScheduleNearCase3Optimum) {
  // The 3D algorithm's computation assignment (triangle blocks × k-slices)
  // sits close to the case-3 Lemma 6 optimum.
  const std::uint64_t n1 = 48, n2 = 48, p2 = 3;
  dist::TriangleBlockDistribution d(2);  // p1 = 6, P = 18
  const auto stats = bounds::analyze_point_schedule(
      n1, n2, 18, bounds::triangle_3d_assignment(d, n1, n2, p2));
  EXPECT_LT(stats.balance, 1.25);
  EXPECT_GE(stats.data_vs_optimum, 1.0 - 1e-9);
  EXPECT_LT(stats.data_vs_optimum, 1.6);
}

TEST(Schedule3D, GridScheduleNeedsMoreData) {
  const std::uint64_t n1 = 48, n2 = 48;
  dist::TriangleBlockDistribution d(2);
  const auto tri = bounds::analyze_point_schedule(
      n1, n2, 18, bounds::triangle_3d_assignment(d, n1, n2, 3));
  // 3×3×2 grid = 18 procs, matched count.
  const auto grid = bounds::analyze_point_schedule(
      n1, n2, 18, bounds::grid_3d_assignment(n1, n2, 3, 2));
  EXPECT_GT(grid.data_vs_optimum, tri.data_vs_optimum);
}

TEST(Schedule3D, SplittingKReducesPerProcessorData) {
  // The point of the 3D regime: at large P, k-unsplit schedules hit the
  // x2 >= tri/2P wall; splitting k lowers the busiest processor's data.
  const std::uint64_t n1 = 48, n2 = 48;
  dist::TriangleBlockDistribution d(2);
  const auto flat = bounds::analyze_column_schedule(
      n1, n2, 6, bounds::triangle_block_assignment(d, n1));
  const auto split = bounds::analyze_point_schedule(
      n1, n2, 18, bounds::triangle_3d_assignment(d, n1, n2, 3));
  EXPECT_LT(split.max_data, flat.max_data);
}

TEST(Schedule, RejectsOutOfRangeAssignment) {
  EXPECT_DEATH(bounds::analyze_column_schedule(
                   8, 4, 2, [](std::uint64_t, std::uint64_t) { return 7; }),
               "assignment out of range");
}

}  // namespace
}  // namespace parsyrk
