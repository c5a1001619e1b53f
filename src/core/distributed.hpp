// Distributed results: keep C where the algorithm left it.
//
// The whole point of a communication-optimal SYRK is that the output stays
// distributed — downstream kernels (Cholesky, trailing updates) consume it
// in place. The convenience drivers in syrk.hpp reassemble C through shared
// memory for validation; this API instead returns a handle holding each
// rank's owned triangle blocks — in the flat layout the SYRK body computes
// and reduce-scatters them in (internal::OwnedLayout) — supports local
// queries, and makes the expensive operation — funnelling everything to
// one root — explicit and visible in the cost ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "core/syrk_internal.hpp"
#include "distribution/triangle_block.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/comm.hpp"

namespace parsyrk::core {

/// One rank's share of a distributed result: which blocks it owns and
/// where each sits in `data` (pairs row-major, then the diagonal block
/// packed lower), and their values.
struct OwnedBlocks {
  internal::OwnedLayout layout;
  std::vector<double> data;  // layout.size() words
};

class DistributedSyrkResult {
 public:
  /// Runs Alg. 2's gather and compute steps and keeps each rank's owned
  /// blocks where they were computed.
  /// world.size() == c(c+1), n1 % c² == 0.
  static DistributedSyrkResult compute_2d(comm::World& world, const Matrix& a,
                                          std::uint64_t c);

  std::uint64_t n1() const { return n1_; }
  std::uint64_t c() const { return c_; }
  std::uint64_t block_dim() const { return nb_; }
  int num_ranks() const { return static_cast<int>(per_rank_.size()); }

  /// The blocks rank `r` owns (its triangle block of blocks + diagonal).
  const OwnedBlocks& local(int r) const { return per_rank_[r]; }

  /// Entry (i, j) of the symmetric result, looked up on its owner.
  double at(std::uint64_t i, std::uint64_t j) const;

  /// Assembles the full symmetric matrix through shared memory (free — the
  /// validation path).
  Matrix assemble() const;

  /// Gathers every block to `root` over the runtime, paying the
  /// ~n1(n1+1)/2-word funnel that distributed consumers avoid; the cost
  /// lands in `world`'s ledger under phase "gather_result".
  Matrix gather_to_root(comm::World& world, int root) const;

  /// BLAS-style in-place update: this := alpha·(A·Aᵀ) + beta·this, with the
  /// update computed by the 2D algorithm on the same distribution. This is
  /// the streaming use of SYRK (covariance over sample batches, Cholesky
  /// trailing updates): C never leaves its owners while batches of columns
  /// arrive. A must have n1() rows.
  void accumulate_2d(comm::World& world, const Matrix& a, double alpha,
                     double beta);

 private:
  DistributedSyrkResult(std::uint64_t n1, std::uint64_t c)
      : n1_(n1), c_(c), nb_(n1 / (c * c)), dist_(c) {}

  std::uint64_t n1_;
  std::uint64_t c_;
  std::uint64_t nb_;
  dist::TriangleBlockDistribution dist_;
  std::vector<OwnedBlocks> per_rank_;
};

}  // namespace parsyrk::core
