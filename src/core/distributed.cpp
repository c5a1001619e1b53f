#include "core/distributed.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace parsyrk::core {

namespace {

/// Alg. 2's gather and compute steps on this rank: its owned blocks of
/// A·Aᵀ in the owned layout.
OwnedBlocks compute_owned_blocks(comm::Comm& comm,
                                 const dist::TriangleBlockDistribution& d,
                                 const Matrix& a, std::size_t nb) {
  const internal::AssembledRowBlocks rb = internal::syrk_2d_gather(
      comm, d, a.view(), internal::ExchangeKind::kPairwise);
  OwnedBlocks out;
  const auto k = static_cast<std::uint64_t>(comm.rank());
  out.layout = {.nb = nb,
                .pairs = d.owned_pairs(k),
                .diag = d.diagonal_block(k)};
  out.data.assign(out.layout.size(), 0.0);
  internal::compute_owned(
      out.layout, [&rb](std::uint64_t i) { return rb.rows(i); }, 0,
      out.layout.items(), out.data);
  return out;
}

}  // namespace

DistributedSyrkResult DistributedSyrkResult::compute_2d(comm::World& world,
                                                        const Matrix& a,
                                                        std::uint64_t c) {
  DistributedSyrkResult out(a.rows(), c);
  PARSYRK_REQUIRE(
      static_cast<std::uint64_t>(world.size()) == out.dist_.num_procs(),
      "distributed 2D SYRK with c = ", c, " needs ", out.dist_.num_procs(),
      " ranks; world has ", world.size());
  out.per_rank_.resize(world.size());
  world.run([&](comm::Comm& comm) {
    out.per_rank_[comm.rank()] =
        compute_owned_blocks(comm, out.dist_, a, out.nb_);
  });
  return out;
}

double DistributedSyrkResult::at(std::uint64_t i, std::uint64_t j) const {
  PARSYRK_REQUIRE(i < n1_ && j < n1_, "index (", i, ",", j, ") out of range");
  if (j > i) std::swap(i, j);
  const std::uint64_t bi = i / nb_;
  const std::uint64_t bj = j / nb_;
  const std::uint64_t owner = bi == bj ? dist_.owner_diagonal(bi)
                                       : dist_.owner_off_diagonal(bi, bj);
  const internal::OwnedLayout& layout = per_rank_[owner].layout;
  const std::vector<double>& data = per_rank_[owner].data;
  const std::size_t li = i % nb_;
  const std::size_t lj = j % nb_;
  if (bi == bj) {
    PARSYRK_CHECK(layout.diag && *layout.diag == bi);
    return data[layout.offset(layout.pairs.size()) + li * (li + 1) / 2 + lj];
  }
  const auto key = std::pair{bi, bj};
  const auto it =
      std::lower_bound(layout.pairs.begin(), layout.pairs.end(), key);
  PARSYRK_CHECK(it != layout.pairs.end() && *it == key);
  const auto t = static_cast<std::size_t>(it - layout.pairs.begin());
  return data[layout.offset(t) + li * nb_ + lj];
}

Matrix DistributedSyrkResult::assemble() const {
  Matrix full(n1_, n1_);
  for (const OwnedBlocks& local : per_rank_) {
    internal::assemble_owned_range(local.layout, local.data, 0, full.view());
  }
  return full;
}

void DistributedSyrkResult::accumulate_2d(comm::World& world, const Matrix& a,
                                          double alpha, double beta) {
  PARSYRK_REQUIRE(a.rows() == n1_, "accumulate needs A with ", n1_,
                  " rows; got ", a.rows());
  PARSYRK_REQUIRE(world.size() == num_ranks(),
                  "accumulate world must match the compute world size");
  world.run([&](comm::Comm& comm) {
    const OwnedBlocks update = compute_owned_blocks(comm, dist_, a, nb_);
    std::vector<double>& mine = per_rank_[comm.rank()].data;
    PARSYRK_CHECK(mine.size() == update.data.size());
    for (std::size_t t = 0; t < mine.size(); ++t) {
      mine[t] = beta * mine[t] + alpha * update.data[t];
    }
  });
}

Matrix DistributedSyrkResult::gather_to_root(comm::World& world,
                                             int root) const {
  PARSYRK_REQUIRE(world.size() == num_ranks(),
                  "gather world must match the compute world size");
  Matrix full(n1_, n1_);
  world.run([&](comm::Comm& comm) {
    comm.set_phase("gather_result");
    const auto gathered = comm.gather(per_rank_[comm.rank()].data, root);
    if (comm.rank() != root) return;
    for (int r = 0; r < comm.size(); ++r) {
      internal::assemble_owned_range(per_rank_[r].layout, gathered[r], 0,
                                     full.view());
    }
  });
  return full;
}

}  // namespace parsyrk::core
