// Session / SyrkRequest: the unified entry point on a warm worker pool.
//
// The acceptance checks from the executor redesign: (1) 100+ sequential
// requests on ONE session produce bitwise-identical matrices and identical
// per-job ledger counts to fresh-world runs of the same problems, and (2)
// no thread is created across the whole request loop after the session's
// construction.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/memory.hpp"
#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "support/check.hpp"

namespace parsyrk::core {
namespace {

/// Bitwise matrix equality (not tolerance-based: a warm pool must replay
/// exactly the arithmetic of a fresh world).
bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* xr = x.data() + i * x.ld();
    const double* yr = y.data() + i * y.ld();
    if (std::memcmp(xr, yr, x.cols() * sizeof(double)) != 0) return false;
  }
  return true;
}

/// The Plan a pre-1.x explicit entry point implied for `procs` ranks.
Plan explicit_plan(Algorithm algorithm, std::uint64_t procs, std::uint64_t c,
                   std::uint64_t p2) {
  Plan plan;
  plan.algorithm = algorithm;
  plan.procs = procs;
  plan.c = c;
  plan.p1 = (algorithm == Algorithm::kOneD) ? 1 : c * (c + 1);
  plan.p2 = (algorithm == Algorithm::kOneD) ? procs : p2;
  return plan;
}

/// Result + whole-world cost of `plan` executed on a fresh, exactly sized
/// world — the reference a warm session must reproduce bitwise.
struct FreshRun {
  Matrix c;
  comm::CostSummary cost;
};

FreshRun fresh_run(const Matrix& a, const Plan& plan,
                   const SyrkOptions& opts = {}) {
  comm::World w(static_cast<int>(plan.logical_ranks()),
                static_cast<int>(plan.procs));
  internal::ExecBuffers exec(a, plan);
  w.run([&](comm::Comm& comm) {
    internal::run_syrk_plan_rank(comm, exec.a(), plan, opts, exec.c());
  });
  FreshRun out;
  out.c = exec.take_result();
  out.cost = w.ledger().summary();
  return out;
}

TEST(Session, PlannerRequestMatchesFreshWorldRun) {
  Matrix a = random_matrix(24, 48, 1);
  const Plan plan = plan_syrk(24, 48, 12);
  const FreshRun fresh = fresh_run(a, plan);

  Session session(12);
  const SyrkRun warm = syrk(session, SyrkRequest(a));
  EXPECT_EQ(warm.plan.algorithm, plan.algorithm);
  EXPECT_EQ(warm.plan.procs, plan.procs);
  EXPECT_TRUE(bitwise_equal(warm.c, fresh.c));
  EXPECT_EQ(warm.total.total, fresh.cost.total);
  EXPECT_EQ(warm.total.max, fresh.cost.max);
}

TEST(Session, HundredJobsBitwiseAndCostIdenticalToFreshWorlds) {
  // Four request kinds cycled 25x on one 12-rank session; references are
  // computed once on fresh, exactly-sized worlds.
  Matrix a1 = random_matrix(24, 48, 7);   // planner -> 1D at P=12
  Matrix a2 = random_matrix(48, 16, 8);   // 2D, c=2 -> 6 ranks (guard split)
  Matrix a3 = random_matrix(24, 24, 9);   // 3D, c=2, p2=2 -> 12 ranks
  const int kKinds = 4;

  std::vector<Matrix> ref_c(kKinds);
  std::vector<comm::CostSummary> ref_cost(kKinds);
  {
    auto r = fresh_run(a1, explicit_plan(Algorithm::kOneD, 12, 0, 12));
    ref_c[0] = std::move(r.c);
    ref_cost[0] = r.cost;
  }
  {
    auto r = fresh_run(a2, explicit_plan(Algorithm::kTwoD, 6, 2, 1));
    ref_c[1] = std::move(r.c);
    ref_cost[1] = r.cost;
  }
  {
    auto r = fresh_run(a3, explicit_plan(Algorithm::kThreeD, 12, 2, 2));
    ref_c[2] = std::move(r.c);
    ref_cost[2] = r.cost;
  }
  {
    SyrkOptions opts;
    opts.root = 1;
    auto r = fresh_run(a1, explicit_plan(Algorithm::kOneD, 12, 0, 12), opts);
    ref_c[3] = std::move(r.c);
    ref_cost[3] = r.cost;
  }

  comm::WorkerPool pool;
  Session session(12, pool);
  const std::uint64_t warm_threads = pool.threads_created();
  ASSERT_EQ(warm_threads, 12u);

  for (int job = 0; job < 100; ++job) {
    const int kind = job % kKinds;
    SyrkRun run;
    switch (kind) {
      case 0:
        run = syrk(session, SyrkRequest(a1).use_1d());
        break;
      case 1:
        run = syrk(session, SyrkRequest(a2).use_2d(2));
        break;
      case 2:
        run = syrk(session, SyrkRequest(a3).use_3d(2, 2));
        break;
      default:
        run = syrk(session, SyrkRequest(a1).use_1d().from_root(1));
        break;
    }
    ASSERT_TRUE(bitwise_equal(run.c, ref_c[kind])) << "job " << job;
    ASSERT_EQ(run.total.total, ref_cost[kind].total) << "job " << job;
    ASSERT_EQ(run.total.max, ref_cost[kind].max) << "job " << job;
  }
  EXPECT_EQ(session.jobs_run(), 100u);
  // The tentpole guarantee: zero thread creation across the request loop.
  EXPECT_EQ(pool.threads_created(), warm_threads);
}

TEST(Session, RootRequestReportsScatterPhase) {
  Matrix a = random_matrix(20, 30, 3);
  Session session(5);
  const SyrkRun run = syrk(session, SyrkRequest(a).use_1d().from_root(0));
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), 1e-9);
  // The root scatters n1*n2*(1-1/P) words of A.
  EXPECT_EQ(run.scatter_a.total.words_sent, 20u * 30u * 4u / 5u);
  EXPECT_GT(run.reduce_c.total.words_sent, 0u);
}

TEST(Session, SmallerPlansRunOnActiveSubsetWithExactCosts) {
  // A 2D c=2 plan (6 ranks) on a 12-rank session must measure exactly what
  // a 6-rank world measures — the guard split is ledger-muted.
  Matrix a = random_matrix(16, 8, 4);
  const FreshRun ref = fresh_run(a, explicit_plan(Algorithm::kTwoD, 6, 2, 1));

  Session session(12);
  const SyrkRun run = syrk(session, SyrkRequest(a).use_2d(2));
  EXPECT_EQ(run.plan.procs, 6u);
  EXPECT_TRUE(bitwise_equal(run.c, ref.c));
  EXPECT_EQ(run.total.total, ref.cost.total);
  EXPECT_EQ(run.total.max, ref.cost.max);
}

TEST(Session, ResolvePlanHonorsExplicitGrids) {
  Matrix a = random_matrix(36, 12, 5);
  Session session(24);
  EXPECT_EQ(resolve_plan(session, SyrkRequest(a).use_2d(3)).procs, 12u);
  EXPECT_EQ(resolve_plan(session, SyrkRequest(a).use_3d(2, 4)).procs, 24u);
  const Plan p1 = resolve_plan(session, SyrkRequest(a).use_1d(10));
  EXPECT_EQ(p1.procs, 10u);
  EXPECT_EQ(p1.p2, 10u);
  // Planner default caps at the session size.
  EXPECT_LE(resolve_plan(session, SyrkRequest(a)).procs, 24u);
  EXPECT_LE(resolve_plan(session, SyrkRequest(a).on_procs(6)).procs,
            6u);
}

TEST(Session, OversizedRequestThrows) {
  Matrix a = random_matrix(16, 8, 6);
  Session session(4);
  EXPECT_THROW(syrk(session, SyrkRequest(a).use_2d(2)),  // needs 6 > 4
               InvalidArgument);
  EXPECT_THROW(syrk(session, SyrkRequest(a).use_1d(9)), InvalidArgument);
}

TEST(Session, RootWithNon1dThrows) {
  Matrix a = random_matrix(16, 8, 6);
  Session session(6);
  EXPECT_THROW(syrk(session, SyrkRequest(a).use_2d(2).from_root(0)),
               InvalidArgument);
  EXPECT_THROW(syrk(session, SyrkRequest(a).use_1d().from_root(6)),
               InvalidArgument);
}

TEST(Session, MemoryLimitSelectsAFittingPlan) {
  Matrix a = random_matrix(32, 32, 2);
  Session session(12);
  // Generous limit: some plan fits and executes correctly.
  const SyrkRun run =
      syrk(session, SyrkRequest(a).with_memory_limit(1u << 20));
  Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(run.c.view(), ref.view()), 1e-9);
  const auto aware = plan_syrk_memory_aware(32, 32, 12, 1u << 20);
  ASSERT_TRUE(aware.has_value());
  EXPECT_EQ(run.plan.procs, aware->plan.procs);
  // Impossible limit: the request must fail loudly.
  EXPECT_THROW(syrk(session, SyrkRequest(a).with_memory_limit(1)),
               InvalidArgument);
}

TEST(Session, MixesWithDirectWorldJobs) {
  // Callers can interleave their own SPMD jobs with syrk() requests on the
  // session's world; request-scoped summaries stay correct.
  Matrix a = random_matrix(24, 48, 11);
  Session session(12);
  const SyrkRun first = syrk(session, SyrkRequest(a).use_1d());
  session.world().run([](comm::Comm& comm) {
    comm.all_gather(std::vector<double>{1.0 * comm.rank()});
  });
  const SyrkRun second = syrk(session, SyrkRequest(a).use_1d());
  EXPECT_TRUE(bitwise_equal(first.c, second.c));
  EXPECT_EQ(first.total.total, second.total.total);
}

}  // namespace
}  // namespace parsyrk::core
