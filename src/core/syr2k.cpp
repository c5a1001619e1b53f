#include "core/syr2k.hpp"

#include "core/syrk.hpp"
#include "distribution/triangle_block.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

namespace {

/// Runs the SYRK body on the operand set {A, B}.
Matrix run_syr2k(comm::World& world, const Matrix& a, const Matrix& b,
                 const Plan& plan) {
  PARSYRK_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "SYR2K needs same-shape A and B");
  Matrix c = Matrix::uninitialized(a.rows(), a.rows());
  world.run([&](comm::Comm& comm) {
    internal::run_syrk_plan_rank(comm, {a.view(), b.view()}, plan, {}, c);
  });
  return c;
}

/// The 2D/3D plan on c(c+1)·p2 ranks, checked against the world.
Plan grid_plan(const comm::World& world, std::uint64_t c, std::uint64_t p2) {
  const dist::TriangleBlockDistribution d(c);  // validates c prime
  PARSYRK_REQUIRE(p2 >= 1, "p2 must be >= 1");
  Plan plan;
  plan.algorithm = p2 == 1 ? Algorithm::kTwoD : Algorithm::kThreeD;
  plan.c = c;
  plan.p1 = d.num_procs();
  plan.p2 = p2;
  plan.procs = plan.p1 * p2;
  PARSYRK_REQUIRE(static_cast<std::uint64_t>(world.size()) == plan.procs,
                  algorithm_name(plan.algorithm), " SYR2K with c = ", c,
                  ", p2 = ", p2, " needs ", plan.procs, " ranks; world has ",
                  world.size());
  return plan;
}

}  // namespace

Matrix syr2k_1d(comm::World& world, const Matrix& a, const Matrix& b) {
  Plan plan;
  plan.procs = static_cast<std::uint64_t>(world.size());
  plan.p2 = plan.procs;
  return run_syr2k(world, a, b, plan);
}

Matrix syr2k_2d(comm::World& world, const Matrix& a, const Matrix& b,
                std::uint64_t c) {
  return run_syr2k(world, a, b, grid_plan(world, c, 1));
}

Matrix syr2k_3d(comm::World& world, const Matrix& a, const Matrix& b,
                std::uint64_t c, std::uint64_t p2) {
  return run_syr2k(world, a, b, grid_plan(world, c, p2));
}

}  // namespace parsyrk::core
