#include "replay.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "bench.hpp"
#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "distribution/triangle_block.hpp"
#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "support/check.hpp"

namespace perfbench {

namespace {

using parsyrk::ConstMatrixView;
using parsyrk::Matrix;
namespace comm = parsyrk::comm;
namespace core = parsyrk::core;
namespace dist = parsyrk::dist;

enum Phase { kGather = 0, kReduce = 1 };

/// What one rank observed during the replay.
struct RankRecord {
  double kernel_s = 0.0;
  double macs = 0.0;
  std::uint64_t pack_bytes = 0;
  std::array<Clock::time_point, 2> enter{};
  std::array<Clock::time_point, 2> exit{};
  std::array<bool, 2> ran{false, false};
};

template <typename Fn>
void time_kernel(RankRecord& rec, double macs, Fn&& kernel) {
  parsyrk::kern::reset_pack_bytes();
  const auto t0 = Clock::now();
  kernel();
  const auto t1 = Clock::now();
  rec.kernel_s += seconds_between(t0, t1);
  rec.macs += macs;
  rec.pack_bytes += parsyrk::kern::pack_bytes();
}

template <typename Fn>
void time_collective(RankRecord& rec, Phase phase, Fn&& collective) {
  rec.enter[phase] = Clock::now();
  collective();
  rec.exit[phase] = Clock::now();
  rec.ran[phase] = true;
}

/// Alg. 1: local SYRK on this rank's column block, then the Reduce-Scatter
/// of the packed n1(n1+1)/2 triangle.
void replay_1d(comm::Comm& comm, const ConstMatrixView& a, RankRecord& rec) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n1 = a.rows();
  const std::size_t c0 = dist::chunk_begin(a.cols(), p, r);
  const std::size_t cw = dist::chunk_size(a.cols(), p, r);
  Matrix cbar(n1, n1);
  const double tri = static_cast<double>(n1) * (n1 + 1) / 2.0;
  time_kernel(rec, tri * static_cast<double>(cw), [&] {
    if (cw > 0) parsyrk::syrk_lower(a.block(0, c0, n1, cw), cbar.view());
  });
  const std::size_t total = n1 * (n1 + 1) / 2;
  std::vector<double> packed(total, 0.0);
  std::vector<std::size_t> sizes(p);
  for (int q = 0; q < p; ++q) sizes[q] = dist::chunk_size(total, p, q);
  comm.set_phase(core::internal::kPhaseReduceC);
  time_collective(rec, kReduce, [&] { comm.reduce_scatter(packed, sizes); });
}

/// Alg. 2 lines 3–14: the All-to-All of row-block chunks, with the payload
/// sizes syrk_2d_gather sends.
void replay_2d_gather(comm::Comm& comm, const dist::TriangleBlockDistribution& d,
                      const ConstMatrixView& a, RankRecord& rec) {
  const auto p = static_cast<std::uint64_t>(comm.size());
  const auto k = static_cast<std::uint64_t>(comm.rank());
  const std::size_t nb = a.rows() / d.num_block_rows();
  const std::size_t flat = nb * a.cols();
  const int parts = static_cast<int>(d.c() + 1);
  std::vector<std::vector<double>> sendbuf(p);
  for (std::uint64_t i : d.row_block_set(k)) {
    const int q = static_cast<int>(d.chunk_index(i, k));
    const std::size_t words = dist::chunk_size(flat, parts, q);
    for (std::uint64_t k2 : d.processor_set(i)) {
      if (k2 != k) sendbuf[k2].assign(words, 0.0);
    }
  }
  comm.set_phase(core::internal::kPhaseGatherA);
  time_collective(rec, kGather, [&] { comm.all_to_all_v(sendbuf); });
}

/// Alg. 2 lines 15–20: one GEMM per owned off-diagonal block pair and a
/// SYRK for the diagonal block. Returns the flattened output size.
std::size_t replay_2d_kernels(const dist::TriangleBlockDistribution& d,
                              std::uint64_t k, const ConstMatrixView& a,
                              RankRecord& rec) {
  const std::size_t nb = a.rows() / d.num_block_rows();
  const std::size_t kc = a.cols();
  const auto pairs = d.owned_pairs(k);
  const auto diag = d.diagonal_block(k);
  std::vector<Matrix> out(pairs.size(), Matrix(nb, nb));
  Matrix diag_out(diag ? nb : 0, diag ? nb : 0);
  const double block_macs = static_cast<double>(nb) * nb * kc;
  const double diag_macs = diag ? static_cast<double>(nb) * (nb + 1) / 2.0 * kc
                                : 0.0;
  time_kernel(rec, block_macs * pairs.size() + diag_macs, [&] {
    for (std::size_t t = 0; t < pairs.size(); ++t) {
      const auto [i, j] = pairs[t];
      parsyrk::gemm_nt(a.block(i * nb, 0, nb, kc), a.block(j * nb, 0, nb, kc),
                       out[t].view());
    }
    if (diag) {
      parsyrk::syrk_lower(a.block(*diag * nb, 0, nb, kc), diag_out.view());
    }
  });
  return pairs.size() * nb * nb + (diag ? nb * (nb + 1) / 2 : 0);
}

void replay_2d(comm::Comm& comm, const core::Plan& plan,
               const ConstMatrixView& a, RankRecord& rec) {
  const dist::TriangleBlockDistribution d(plan.c);
  replay_2d_gather(comm, d, a, rec);
  replay_2d_kernels(d, static_cast<std::uint64_t>(comm.rank()), a, rec);
}

/// Alg. 3: the 2D body per column slice, then the Reduce-Scatter of each
/// rank's flattened blocks across the slices.
void replay_3d(comm::Comm& comm, const core::Plan& plan,
               const ConstMatrixView& a, RankRecord& rec) {
  const dist::TriangleBlockDistribution d(plan.c);
  const std::uint64_t p1 = d.num_procs();
  const int p2 = static_cast<int>(plan.p2);
  const auto w = static_cast<std::uint64_t>(comm.rank());
  const int k = static_cast<int>(w % p1);
  const int l = static_cast<int>(w / p1);
  comm::Comm slice = comm.split(l, k);
  const std::size_t c0 = dist::chunk_begin(a.cols(), p2, l);
  const std::size_t cw = dist::chunk_size(a.cols(), p2, l);
  const ConstMatrixView a_slice = a.block(0, c0, a.rows(), cw);
  replay_2d_gather(slice, d, a_slice, rec);
  const std::size_t total =
      replay_2d_kernels(d, static_cast<std::uint64_t>(k), a_slice, rec);
  comm::Comm row = comm.split(k, l);
  comm.set_phase(core::internal::kPhaseReduceC);
  std::vector<double> flat(total, 0.0);
  std::vector<std::size_t> sizes(p2);
  for (int q = 0; q < p2; ++q) sizes[q] = dist::chunk_size(total, p2, q);
  time_collective(rec, kReduce, [&] { row.reduce_scatter(flat, sizes); });
}

}  // namespace

LayerSample replay_layers(core::Session& session, const core::Plan& plan,
                          const Matrix& exec_a) {
  PARSYRK_REQUIRE(plan.strategy == core::CollectiveStrategy::kPairwise,
                  "replay supports pairwise plans only");
  comm::World& world = session.world_for(plan);
  const int active = static_cast<int>(plan.logical_ranks());
  LayerSample out;

  const auto d0 = Clock::now();
  world.run([](comm::Comm&) {});
  out.dispatch_s = seconds_between(d0, Clock::now());

  std::vector<RankRecord> recs(static_cast<std::size_t>(active));
  auto body = [&](comm::Comm& c) {
    RankRecord& rec = recs[static_cast<std::size_t>(c.rank())];
    switch (plan.algorithm) {
      case core::Algorithm::kOneD: replay_1d(c, exec_a.view(), rec); break;
      case core::Algorithm::kTwoD: replay_2d(c, plan, exec_a.view(), rec); break;
      case core::Algorithm::kThreeD:
        replay_3d(c, plan, exec_a.view(), rec);
        break;
    }
  };
  const comm::CostLedger::Snapshot before = world.ledger().snapshot();
  world.run([&](comm::Comm& wc) {
    if (active == wc.size()) {
      body(wc);
      return;
    }
    // Same active-ranks split core::syrk makes for a smaller plan.
    comm::Comm sub = wc.split(wc.rank() < active ? 0 : 1, wc.rank());
    if (wc.rank() < active) body(sub);
  });
  out.gather_a =
      world.ledger().summary_since(before, core::internal::kPhaseGatherA);
  out.reduce_c =
      world.ledger().summary_since(before, core::internal::kPhaseReduceC);

  for (const RankRecord& rec : recs) {
    out.kernel_s = std::max(out.kernel_s, rec.kernel_s);
    out.kernel_macs += rec.macs;
    out.pack_bytes += static_cast<double>(rec.pack_bytes);
  }
  for (int phase : {kGather, kReduce}) {
    bool any = false;
    Clock::time_point first_enter{}, last_enter{}, last_exit{};
    for (const RankRecord& rec : recs) {
      if (!rec.ran[phase]) continue;
      if (!any) {
        first_enter = last_enter = rec.enter[phase];
        last_exit = rec.exit[phase];
        any = true;
        continue;
      }
      first_enter = std::min(first_enter, rec.enter[phase]);
      last_enter = std::max(last_enter, rec.enter[phase]);
      last_exit = std::max(last_exit, rec.exit[phase]);
    }
    if (!any) continue;
    out.collective_s += seconds_between(last_enter, last_exit);
    out.imbalance_s += seconds_between(first_enter, last_enter);
  }
  return out;
}

bool same_traffic(const parsyrk::comm::CostSummary& a,
                  const parsyrk::comm::CostSummary& b) {
  return a.max == b.max && a.total == b.total;
}

}  // namespace perfbench
