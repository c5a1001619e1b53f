// Tests for src/bounds: the Lemma 6 optimization (analytic vs numeric vs
// KKT), Theorem 1's three-case bound, Lemma 3's symmetric Loomis–Whitney
// inequality, Lemma 4 quasiconvexity, and the GEMM comparator bound.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "bounds/exhaustive.hpp"
#include "bounds/lemma3.hpp"
#include "bounds/lemma4.hpp"
#include "bounds/syrk_bounds.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace parsyrk::bounds {
namespace {

// ---------------------------------------------------------------------------
// Lemma 6
// ---------------------------------------------------------------------------

TEST(Lemma6, Case1ClosedForm) {
  // n1 <= n2, small P: x1 = n2·sqrt(n1(n1-1))/P, x2 = n1(n1-1)/2.
  const double n1 = 100, n2 = 100000, p = 4;
  const auto s = solve_lemma6(n1, n2, p);
  EXPECT_EQ(s.regime, Regime::kOneD);
  EXPECT_DOUBLE_EQ(s.x1, n2 * std::sqrt(n1 * (n1 - 1)) / p);
  EXPECT_DOUBLE_EQ(s.x2, n1 * (n1 - 1) / 2);
}

TEST(Lemma6, Case2ClosedForm) {
  // n1 > n2, small P: x1 = n2·sqrt(n1(n1-1)/P), x2 = n1(n1-1)/2P.
  const double n1 = 10000, n2 = 10, p = 16;
  const auto s = solve_lemma6(n1, n2, p);
  EXPECT_EQ(s.regime, Regime::kTwoD);
  EXPECT_DOUBLE_EQ(s.x1, n2 * std::sqrt(n1 * (n1 - 1) / p));
  EXPECT_DOUBLE_EQ(s.x2, n1 * (n1 - 1) / (2 * p));
}

TEST(Lemma6, Case3ClosedForm) {
  const double n1 = 1000, n2 = 1000, p = 4096;
  const auto s = solve_lemma6(n1, n2, p);
  EXPECT_EQ(s.regime, Regime::kThreeD);
  const double t = std::pow(n1 * (n1 - 1) * n2 / p, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.x1, t);
  EXPECT_DOUBLE_EQ(s.x2, t / 2);
}

class Lemma6Shapes
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(Lemma6Shapes, AnalyticMatchesNumericMinimum) {
  const auto [n1, n2, p] = GetParam();
  const auto analytic = solve_lemma6(n1, n2, p);
  const auto numeric = solve_lemma6_numeric(n1, n2, p);
  // The numeric sweep can only do as well or slightly worse (grid error).
  EXPECT_LE(analytic.objective(), numeric.objective() * (1.0 + 1e-6));
  EXPECT_NEAR(numeric.objective() / analytic.objective(), 1.0, 1e-4);
}

TEST_P(Lemma6Shapes, AnalyticSolutionSatisfiesKkt) {
  const auto [n1, n2, p] = GetParam();
  const auto s = solve_lemma6(n1, n2, p);
  std::string why;
  EXPECT_TRUE(verify_kkt(n1, n2, p, s, 1e-8, &why)) << why;
}

TEST_P(Lemma6Shapes, PerturbedSolutionFailsKkt) {
  // Moving x1 off the optimum must break a KKT condition (the conditions
  // are sufficient, and for this problem pin down the optimum).
  const auto [n1, n2, p] = GetParam();
  auto s = solve_lemma6(n1, n2, p);
  s.x1 *= 2.0;
  std::string why;
  EXPECT_FALSE(verify_kkt(n1, n2, p, s, 1e-8, &why));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Lemma6Shapes,
    ::testing::Values(
        std::make_tuple(100.0, 100000.0, 4.0),     // case 1, wide
        std::make_tuple(100.0, 1e7, 1000.0),       // case 1, very wide
        std::make_tuple(10000.0, 10.0, 16.0),      // case 2, tall
        std::make_tuple(100000.0, 100.0, 900.0),   // case 2, very tall
        std::make_tuple(1000.0, 1000.0, 64.0),     // case 3, square
        std::make_tuple(1000.0, 1000.0, 4096.0),   // case 3, large P
        std::make_tuple(100.0, 10000.0, 500.0),    // case 3, wide large P
        std::make_tuple(5000.0, 50.0, 100000.0))); // case 3, tall large P

TEST(Lemma6, ContinuityAtCase1Case3Boundary) {
  // The optimal values coincide where P crosses n2/sqrt(n1(n1-1)).
  const double n1 = 100, n2 = 100000;
  const double pstar = n2 / std::sqrt(n1 * (n1 - 1));
  const auto below = solve_lemma6(n1, n2, pstar * 0.999);
  const auto above = solve_lemma6(n1, n2, pstar * 1.001);
  EXPECT_NEAR(below.objective() / above.objective(), 1.0, 5e-3);
}

TEST(Lemma6, ContinuityAtCase2Case3Boundary) {
  const double n1 = 10000, n2 = 10;
  const double pstar = n1 * (n1 - 1) / (n2 * n2);
  const auto below = solve_lemma6(n1, n2, pstar * 0.999);
  const auto above = solve_lemma6(n1, n2, pstar * 1.001);
  EXPECT_NEAR(below.objective() / above.objective(), 1.0, 5e-3);
}

TEST(Lemma6, RejectsBadArguments) {
  EXPECT_THROW(solve_lemma6(1, 10, 4), parsyrk::InvalidArgument);
  EXPECT_THROW(solve_lemma6(10, 0, 4), parsyrk::InvalidArgument);
  EXPECT_THROW(solve_lemma6(10, 10, 0), parsyrk::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Theorem 1
// ---------------------------------------------------------------------------

TEST(Theorem1, CaseSelectionAndValues) {
  {
    // Case 1: W = n1·n2/P + n1(n1-1)/2.
    const auto b = syrk_lower_bound(100, 100000, 4);
    EXPECT_EQ(b.regime, Regime::kOneD);
    EXPECT_DOUBLE_EQ(b.w, 100.0 * 100000.0 / 4.0 + 100.0 * 99.0 / 2.0);
  }
  {
    // Case 2: W = n1·n2/sqrt(P) + n1(n1-1)/2P.
    const auto b = syrk_lower_bound(10000, 10, 16);
    EXPECT_EQ(b.regime, Regime::kTwoD);
    EXPECT_DOUBLE_EQ(b.w,
                     10000.0 * 10.0 / 4.0 + 10000.0 * 9999.0 / 32.0);
  }
  {
    // Case 3: W = (3/2)(n1(n1-1)n2/P)^{2/3}.
    const auto b = syrk_lower_bound(1000, 1000, 4096);
    EXPECT_EQ(b.regime, Regime::kThreeD);
    EXPECT_DOUBLE_EQ(
        b.w, 1.5 * std::pow(1000.0 * 999.0 * 1000.0 / 4096.0, 2.0 / 3.0));
  }
}

TEST(Theorem1, CommunicatedSubtractsResidentData) {
  const auto b = syrk_lower_bound(100, 100000, 4);
  const double resident = (100.0 * 99.0 / 2.0 + 100.0 * 100000.0) / 4.0;
  EXPECT_DOUBLE_EQ(b.communicated, b.w - resident);
  EXPECT_GT(b.communicated, 0.0);
}

TEST(Theorem1, CommunicatedClampedAtZeroForOneProc) {
  const auto b = syrk_lower_bound(50, 50, 1);
  EXPECT_DOUBLE_EQ(b.communicated, 0.0);
}

TEST(Theorem1, ContinuousAcrossPSweep) {
  // W as a function of P must be continuous and non-increasing.
  const std::uint64_t n1 = 600, n2 = 600;
  double prev = std::numeric_limits<double>::infinity();
  for (std::uint64_t p = 1; p <= 4000; p = p * 5 / 4 + 1) {
    const double w = syrk_lower_bound(n1, n2, p).w;
    EXPECT_LE(w, prev * 1.0001) << "P = " << p;
    prev = w;
  }
}

TEST(Theorem1, BoundCaseMatchesLemma6Case) {
  for (std::uint64_t p : {1, 2, 8, 64, 512, 4096, 32768}) {
    const auto b = syrk_lower_bound(500, 2000, p);
    EXPECT_EQ(b.regime, b.solution.regime) << "P = " << p;
  }
}

TEST(Theorem1, RegimeBoundaryTallSkinny) {
  // n1 > n2: the case-2/case-3 boundary sits at P = n1(n1-1)/n2². For
  // (4, 1) that is exactly 12 — the boundary processor count itself must
  // classify as case 2 (the theorem's conditions are inclusive), the next
  // integer as case 3.
  EXPECT_EQ(syrk_lower_bound(4, 1, 12).regime, Regime::kTwoD);
  EXPECT_EQ(syrk_lower_bound(4, 1, 13).regime, Regime::kThreeD);
}

TEST(Theorem1, RegimeBoundaryShortWide) {
  // n1 <= n2: the case-1/case-3 boundary sits at P = n2/sqrt(n1(n1-1)),
  // irrational for every n1 >= 2 (n1(n1-1) is never a perfect square), so
  // integers can only bracket it: (2, 10) has threshold 10/sqrt(2) ≈ 7.07.
  EXPECT_EQ(syrk_lower_bound(2, 10, 7).regime, Regime::kOneD);
  EXPECT_EQ(syrk_lower_bound(2, 10, 8).regime, Regime::kThreeD);
}

TEST(Theorem1, RegimeBoundaryAtSquareSeam) {
  // n1 == n2 takes the short-wide branch: threshold 16/sqrt(16·15) ≈ 1.03,
  // so only P = 1 is case 1.
  EXPECT_EQ(syrk_lower_bound(16, 16, 1).regime, Regime::kOneD);
  EXPECT_EQ(syrk_lower_bound(16, 16, 2).regime, Regime::kThreeD);
  // One extra row tips into the tall branch: threshold 17·16/16² = 1.0625,
  // and P = 1 becomes case 2 instead.
  EXPECT_EQ(syrk_lower_bound(17, 16, 1).regime, Regime::kTwoD);
  EXPECT_EQ(syrk_lower_bound(17, 16, 2).regime, Regime::kThreeD);
}

// ---------------------------------------------------------------------------
// Factor-2 headline: SYRK bound vs GEMM bound
// ---------------------------------------------------------------------------

TEST(GemmComparison, FactorTwoInEveryRegime) {
  struct Case {
    std::uint64_t n1, n2, p;
    Regime expect;
  };
  const Case cases[] = {
      {1000, 1000000, 8, Regime::kOneD},
      {100000, 100, 64, Regime::kTwoD},
      {2000, 2000, 8000, Regime::kThreeD},
  };
  for (const auto& c : cases) {
    const auto syrk = syrk_lower_bound(c.n1, c.n2, c.p);
    const auto gemm = gemm_lower_bound(c.n1, c.n2, c.p);
    ASSERT_EQ(syrk.regime, c.expect);
    ASSERT_EQ(gemm.regime, c.expect);
    EXPECT_NEAR(gemm.communicated / syrk.communicated, 2.0, 0.05)
        << "n1=" << c.n1 << " n2=" << c.n2 << " P=" << c.p;
  }
}

TEST(GemmProjection, InteriorRegimeMatchesClosedForm) {
  // Square-ish problem, large P: no clamping, W = 3(mnk/P)^{2/3}.
  const auto b = gemm_projection_bound(1000, 1000, 1000, 8000);
  EXPECT_EQ(b.clamped, 0);
  const double expect = 3.0 * std::pow(1e9 / 8000.0, 2.0 / 3.0);
  EXPECT_NEAR(b.w(), expect, expect * 1e-12);
  EXPECT_DOUBLE_EQ(b.x1, b.x2);
  EXPECT_DOUBLE_EQ(b.x2, b.x3);
}

TEST(GemmProjection, OneClampInTheSkinnyRegime) {
  // k tiny: the smallest arrays are A (mk) and B (kn); at moderate P one
  // clamps and the other two equalize at sqrt(L²/cap).
  const auto b = gemm_projection_bound(10000, 10000, 10, 10);
  EXPECT_GE(b.clamped, 1);
  // Feasibility of the product constraint at the solution.
  const double l2 = std::pow(10000.0 * 10000.0 * 10.0 / 10.0, 2.0);
  EXPECT_GE(b.x1 * b.x2 * b.x3, l2 * (1.0 - 1e-9));
}

TEST(GemmProjection, IsARelaxationOfTheClosedForms) {
  // Without the per-array lower-bound constraints the relaxation can only
  // be weaker (<=) than the closed-form three-case bound; in the 3D regime
  // the two coincide.
  struct Case {
    std::uint64_t n1, n2, p;
  };
  for (const Case& c : {Case{1000, 1000000, 8}, Case{100000, 100, 64},
                        Case{2000, 2000, 8000}}) {
    const auto relax = gemm_projection_bound(
        static_cast<double>(c.n1), static_cast<double>(c.n1),
        static_cast<double>(c.n2), static_cast<double>(c.p));
    const auto closed = gemm_lower_bound(c.n1, c.n2, c.p);
    EXPECT_LE(relax.w(), closed.w * (1.0 + 1e-9))
        << c.n1 << " " << c.n2 << " " << c.p;
    if (closed.regime == Regime::kThreeD && relax.clamped == 0) {
      EXPECT_NEAR(relax.w() / closed.w, 1.0, 1e-3);
    }
  }
}

TEST(GemmProjection, NeverExceedsArrayCaps) {
  Rng rng(808);
  for (int t = 0; t < 200; ++t) {
    const double m = rng.uniform(1, 1000);
    const double n = rng.uniform(1, 1000);
    const double k = rng.uniform(1, 1000);
    const double p = rng.uniform(1, 10000);
    const auto b = gemm_projection_bound(m, n, k, p);
    EXPECT_LE(b.x1, m * k * (1 + 1e-12));
    EXPECT_LE(b.x2, k * n * (1 + 1e-12));
    EXPECT_LE(b.x3, m * n * (1 + 1e-12));
    EXPECT_GE(b.x1, 0.0);
    if (b.clamped < 3) {
      const double l2 = std::pow(m * n * k / p, 2.0);
      EXPECT_GE(b.x1 * b.x2 * b.x3, l2 * (1.0 - 1e-9));
    }
  }
}

TEST(GemmComparison, GemmBoundContinuousInP) {
  const std::uint64_t n1 = 600, n2 = 600;
  double prev = std::numeric_limits<double>::infinity();
  for (std::uint64_t p = 1; p <= 5000; p = p * 5 / 4 + 1) {
    const double w = gemm_lower_bound(n1, n2, p).w;
    EXPECT_LE(w, prev * 1.0001) << "P = " << p;
    prev = w;
  }
}

// ---------------------------------------------------------------------------
// Exhaustive schedule-space verification of the bound (tiny instances)
// ---------------------------------------------------------------------------

TEST(Exhaustive, NoScheduleBeatsLemma6) {
  // Every balanced assignment of columns to processors needs at least the
  // Lemma 6 data on some processor — checked by full enumeration.
  struct Case {
    std::uint64_t n1, n2;
    int p;
  };
  for (const Case& c : {Case{5, 3, 2}, Case{6, 8, 2}, Case{6, 4, 3},
                        Case{7, 2, 2}, Case{5, 16, 3}}) {
    const auto r = bounds::exhaustive_min_max_data(c.n1, c.n2, c.p);
    EXPECT_GE(r.min_max_data, r.lemma6_optimum * (1.0 - 1e-9))
        << "n1=" << c.n1 << " n2=" << c.n2 << " P=" << c.p;
    EXPECT_GT(r.schedules, 0u);
  }
}

TEST(Exhaustive, SingleProcessorNeedsEverything) {
  const auto r = bounds::exhaustive_min_max_data(5, 3, 1);
  // One processor touches all 5 rows and owns all 10 C entries.
  EXPECT_DOUBLE_EQ(r.min_max_data, 5.0 * 3.0 + 10.0);
}

TEST(Exhaustive, OptimumIsAchievableByRealSchedules) {
  // The returned optimum must be attained by at least one concrete
  // schedule (leaves > 0) and be no better than half the serial data.
  const auto r = bounds::exhaustive_min_max_data(6, 4, 2);
  EXPECT_GT(r.schedules, 0u);
  EXPECT_GE(r.min_max_data, (6.0 * 4.0 + 15.0) / 2.0);
  EXPECT_LE(r.min_max_data, 6.0 * 4.0 + 15.0);
}

TEST(Exhaustive, RejectsOversizedInstances) {
  EXPECT_THROW(bounds::exhaustive_min_max_data(60, 4, 2),
               parsyrk::InvalidArgument);
  EXPECT_THROW(bounds::exhaustive_min_max_data(6, 4, 9),
               parsyrk::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Lemma 3
// ---------------------------------------------------------------------------

TEST(Lemma3, HoldsOnFullIterationSpace) {
  const auto pts = syrk_iteration_space(12, 7);
  EXPECT_TRUE(lemma3_holds(pts));
  EXPECT_TRUE(loomis_whitney_holds(pts));
}

TEST(Lemma3, TightOnTriangleBlockSets) {
  // Triangle blocks are the extremal sets: |V| = s(s-1)/2 · d,
  // |phi_i ∪ phi_j| = s·d, |phi_k| = s(s-1)/2 — the ratio approaches 1
  // from above as s grows (exactly 1 in the continuous relaxation).
  const std::vector<std::int64_t> rows = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                          10, 11, 12, 13, 14, 15};
  const auto pts = triangle_block_points(rows, 16);
  const double ratio = lemma3_tightness(pts);
  EXPECT_GE(ratio, 1.0);
  EXPECT_LT(ratio, 1.05);
}

TEST(Lemma3, TightnessImprovesWithBlockSize) {
  auto make_rows = [](std::int64_t s) {
    std::vector<std::int64_t> rows(s);
    for (std::int64_t i = 0; i < s; ++i) rows[i] = i;
    return rows;
  };
  const double small = lemma3_tightness(triangle_block_points(make_rows(4), 4));
  const double large =
      lemma3_tightness(triangle_block_points(make_rows(32), 32));
  EXPECT_GT(small, large);
  EXPECT_GE(large, 1.0);
}

TEST(Lemma3, SquareBlockIsLessEfficientThanTriangle) {
  // A square block (s×s rows-by-columns with disjoint index ranges) of the
  // same volume needs more A data: its tightness ratio is ~sqrt(2) at equal
  // |phi_k|, reflecting the factor the paper gains.
  std::vector<Point3> square;
  const std::int64_t s = 16, d = 16;
  for (std::int64_t i = s; i < 2 * s; ++i) {
    for (std::int64_t j = 0; j < s; ++j) {
      for (std::int64_t k = 0; k < d; ++k) square.push_back({i, j, k});
    }
  }
  std::vector<std::int64_t> rows(static_cast<std::size_t>(s) * 2);
  for (std::int64_t i = 0; i < 2 * s; ++i) rows[i] = i;
  // Compare at (nearly) equal volume: triangle block over 2s rows has
  // 2s(2s-1)/2 ≈ 2s² pairs vs s² for the square; scale depth accordingly.
  const auto tri = triangle_block_points(rows, d / 2);
  const double r_square = lemma3_tightness(square);
  const double r_tri = lemma3_tightness(tri);
  EXPECT_GT(r_square, r_tri);
  EXPECT_NEAR(r_square, std::sqrt(2.0), 0.1);
}

TEST(Lemma3, RandomSubsetsProperty) {
  // Property sweep: arbitrary subsets of the prism never violate the
  // inequality.
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Point3> pts;
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    for (int t = 0; t < n; ++t) {
      const auto i = rng.uniform_int(1, 20);
      const auto j = rng.uniform_int(0, i - 1);
      const auto k = rng.uniform_int(0, 15);
      pts.push_back({i, j, k});
    }
    EXPECT_TRUE(lemma3_holds(pts)) << "trial " << trial;
  }
}

TEST(Lemma3, SinglePoint) {
  // |V| = 1: 2 <= 2·sqrt(2) holds.
  EXPECT_TRUE(lemma3_holds({{1, 0, 0}}));
  EXPECT_DOUBLE_EQ(lemma3_tightness({{1, 0, 0}}),
                   2.0 * std::sqrt(2.0) / 2.0);
}

TEST(Lemma3, EmptySet) {
  EXPECT_DOUBLE_EQ(lemma3_tightness({}), 0.0);
}

TEST(Lemma3, ProjectionsCountUnion) {
  // Points (2,0,0) and (3,2,0): phi_i = {(0,0),(2,0)}, phi_j = {(2,0),(3,0)},
  // union = {(0,0),(2,0),(3,0)} — the shared row index 2 is counted once.
  const auto pr = project({{2, 0, 0}, {3, 2, 0}});
  EXPECT_EQ(pr.phi_i, 2u);
  EXPECT_EQ(pr.phi_j, 2u);
  EXPECT_EQ(pr.phi_k, 2u);
  EXPECT_EQ(pr.phi_i_union_j, 3u);
}

// ---------------------------------------------------------------------------
// Lemma 5
// ---------------------------------------------------------------------------

TEST(Lemma5, HoldsOnRandomSubsets) {
  Rng rng(555);
  const std::int64_t n1 = 12, n2 = 9;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Point3> pts;
    const int count = static_cast<int>(rng.uniform_int(1, 120));
    for (int t = 0; t < count; ++t) {
      const auto i = rng.uniform_int(1, n1 - 1);
      pts.push_back({i, rng.uniform_int(0, i - 1), rng.uniform_int(0, n2 - 1)});
    }
    const auto check = lemma5_check(pts, n1, n2);
    EXPECT_TRUE(check.holds()) << "trial " << trial;
  }
}

TEST(Lemma5, TightForFullPerRowSlabs) {
  // A processor owning every multiplication of C row i accesses exactly
  // i+1 rows of A and contributes to exactly i C entries: the C inequality
  // is tight (|V|/n2 = i).
  const std::int64_t n1 = 10, n2 = 6, i = 7;
  std::vector<Point3> pts;
  for (std::int64_t j = 0; j < i; ++j) {
    for (std::int64_t k = 0; k < n2; ++k) pts.push_back({i, j, k});
  }
  const auto check = lemma5_check(pts, n1, n2);
  EXPECT_DOUBLE_EQ(check.c_elements, static_cast<double>(i));
  EXPECT_DOUBLE_EQ(check.c_lower_bound, static_cast<double>(i));
  EXPECT_TRUE(check.holds());
}

TEST(Lemma5, FullProblemValues) {
  // The whole computation: A projection covers all n1·n2 entries, C
  // projection all n1(n1−1)/2 strict-lower entries.
  const auto pts = syrk_iteration_space(8, 5);
  const auto check = lemma5_check(pts, 8, 5);
  EXPECT_DOUBLE_EQ(check.a_elements, 8.0 * 5.0);
  EXPECT_DOUBLE_EQ(check.c_elements, 28.0);
  EXPECT_DOUBLE_EQ(check.a_lower_bound, 28.0 * 5.0 / 7.0);
  EXPECT_TRUE(check.holds());
}

TEST(Lemma5, RejectsPointsOutsidePrism) {
  EXPECT_DEATH(lemma5_check({{1, 0, 9}}, 4, 4), "prism");
  EXPECT_DEATH(lemma5_check({{0, 0, 0}}, 4, 4), "prism");
}

// ---------------------------------------------------------------------------
// Lemma 4
// ---------------------------------------------------------------------------

TEST(Lemma4, QuasiconvexOnRandomPairs) {
  Rng rng(999);
  const G0 g{1000.0};
  for (int t = 0; t < 5000; ++t) {
    const double x1 = rng.uniform(0.01, 50.0);
    const double x2 = rng.uniform(0.01, 50.0);
    const double y1 = rng.uniform(0.01, 50.0);
    const double y2 = rng.uniform(0.01, 50.0);
    EXPECT_TRUE(quasiconvex_pair_holds(g, x1, x2, y1, y2))
        << "x=(" << x1 << "," << x2 << ") y=(" << y1 << "," << y2 << ")";
  }
}

TEST(Lemma4, GradientFormula) {
  const G0 g{0.0};
  const auto grad = g.gradient(3.0, 5.0);
  EXPECT_DOUBLE_EQ(grad[0], -30.0);
  EXPECT_DOUBLE_EQ(grad[1], -9.0);
}

TEST(Lemma4, AffineObjectiveIsConvex) {
  Rng rng(31);
  for (int t = 0; t < 100; ++t) {
    EXPECT_TRUE(affine_objective_convex_pair(
        rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5),
        rng.uniform(-5, 5)));
  }
}

}  // namespace
}  // namespace parsyrk::bounds
