#include "core/symm.hpp"

#include <algorithm>

#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "distribution/triangle_block.hpp"
#include "matrix/kernels.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

namespace {

/// C_partial (nb×m) += Sij (nb×nb) · Bj (nb×m); transpose=true applies
/// Sijᵀ instead.
void accumulate_block_product(const ConstMatrixView& sij,
                              const ConstMatrixView& bj, bool transpose,
                              const MatrixView& c_partial) {
  const std::size_t nb = sij.rows();
  const std::size_t m = bj.cols();
  for (std::size_t r = 0; r < nb; ++r) {
    for (std::size_t q = 0; q < nb; ++q) {
      const double s = transpose ? sij(q, r) : sij(r, q);
      const double* brow = bj.data() + q * bj.ld();
      double* crow = c_partial.data() + r * c_partial.ld();
      for (std::size_t t = 0; t < m; ++t) crow[t] += s * brow[t];
    }
  }
}

}  // namespace

Matrix symm_1d(comm::World& world, const Matrix& s, const Matrix& b) {
  PARSYRK_REQUIRE(s.rows() == s.cols() && s.rows() == b.rows(),
                  "SYMM shapes: S must be n x n and B n x m");
  const std::size_t n = s.rows();
  const std::size_t m = b.cols();
  const std::size_t tri = n * (n + 1) / 2;
  Matrix c_full(n, m);
  world.run([&](comm::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    // Each rank starts with an even chunk of the packed lower triangle of S
    // (the distributed state); one all-gather assembles the whole factor.
    comm.set_phase(internal::kPhaseGatherA);
    const std::size_t lo = dist::chunk_begin(tri, p, r);
    const std::size_t hi = dist::chunk_end(tri, p, r);
    std::vector<double> mine;
    mine.reserve(hi - lo);
    {
      // Walk packed indices [lo, hi): t = i(i+1)/2 + j.
      std::size_t i = 0;
      while ((i + 1) * (i + 2) / 2 <= lo) ++i;
      std::size_t j = lo - i * (i + 1) / 2;
      for (std::size_t t = lo; t < hi; ++t) {
        mine.push_back(s(i, j));
        if (++j > i) {
          ++i;
          j = 0;
        }
      }
    }
    auto packed_parts = comm.all_gather_v(mine);
    Matrix s_local(n, n);
    {
      std::size_t i = 0, j = 0;
      for (int q = 0; q < p; ++q) {
        for (double v : packed_parts[q]) {
          s_local(i, j) = v;
          if (++j > i) {
            ++i;
            j = 0;
          }
        }
      }
    }
    // Local SYMM over this rank's column block of B; write into shared C.
    const std::size_t c0 = dist::chunk_begin(m, p, r);
    const std::size_t cw = dist::chunk_size(m, p, r);
    if (cw > 0) {
      symm_lower_left(s_local.view(), b.view().block(0, c0, n, cw),
                      c_full.block(0, c0, n, cw));
    }
  });
  return c_full;
}

Matrix symm_2d(comm::World& world, const Matrix& s, const Matrix& b,
               std::uint64_t c) {
  dist::TriangleBlockDistribution d(c);
  PARSYRK_REQUIRE(static_cast<std::uint64_t>(world.size()) == d.num_procs(),
                  "2D SYMM with c = ", c, " needs ", d.num_procs(),
                  " ranks; world has ", world.size());
  PARSYRK_REQUIRE(s.rows() == s.cols() && s.rows() == b.rows(),
                  "SYMM shapes: S must be n x n and B n x m");
  const std::size_t n = s.rows();
  const std::size_t m = b.cols();
  const std::uint64_t nblocks = d.num_block_rows();
  PARSYRK_REQUIRE(n % nblocks == 0, "2D SYMM needs n divisible by c² = ",
                  nblocks, "; got n = ", n);
  const std::size_t nb = n / nblocks;
  const std::size_t flat = nb * m;  // words per row block of B (and of C)
  const int parts = static_cast<int>(c + 1);

  Matrix c_full(n, m);
  world.run([&](comm::Comm& comm) {
    const auto k = static_cast<std::uint64_t>(comm.rank());
    const auto& rk = d.row_block_set(k);

    // --- Phase 1: All-to-All gather of the B row blocks in R_k — SYRK's
    // gather of A, on B (S itself never moves). ---
    const internal::AssembledRowBlocks local_b = internal::syrk_2d_gather(
        comm, d, b.view(), internal::ExchangeKind::kPairwise);
    auto index_of = [&](std::uint64_t i) {
      auto it = std::lower_bound(rk.begin(), rk.end(), i);
      PARSYRK_CHECK(it != rk.end() && *it == i);
      return static_cast<std::size_t>(it - rk.begin());
    };

    // --- Phase 2: owner-computes over the triangle block of S blocks.
    // Partial C rows accumulate locally, one nb×m panel per i in R_k. ---
    std::vector<Matrix> partial(rk.size(), Matrix(nb, m));
    for (const auto& [bi, bj] : d.owned_pairs(k)) {
      auto sij = s.view().block(bi * nb, bj * nb, nb, nb);
      accumulate_block_product(sij, local_b.rows(bj).a,
                               /*transpose=*/false,
                               partial[index_of(bi)].view());
      accumulate_block_product(sij, local_b.rows(bi).a,
                               /*transpose=*/true,
                               partial[index_of(bj)].view());
    }
    if (auto di = d.diagonal_block(k)) {
      auto sii = s.view().block(*di * nb, *di * nb, nb, nb);
      symm_lower_left(sii, local_b.rows(*di).a,
                      partial[index_of(*di)].view());
    }

    // --- Phase 3: reduce the partial C rows within each Q_i group. The
    // groups overlap (each rank sits in c of them), so the reduce-scatter
    // is run with direct messages: every member first posts its chunks for
    // every group (buffered sends — no ordering hazards), then drains. ---
    comm.set_phase(internal::kPhaseReduceC);
    auto chunk_range = [&](std::size_t pos) {
      return std::pair{dist::chunk_begin(flat, parts, static_cast<int>(pos)),
                       dist::chunk_end(flat, parts, static_cast<int>(pos))};
    };
    auto tag_of = [](std::uint64_t i) { return static_cast<int>(i); };
    for (std::uint64_t i : rk) {
      const auto& q = d.processor_set(i);
      const auto& mine = partial[index_of(i)];
      for (std::size_t pos = 0; pos < q.size(); ++pos) {
        if (q[pos] == k) continue;
        const auto [lo, hi] = chunk_range(pos);
        const auto payload = flat_copy(mine.view(), lo, hi);
        comm.send(static_cast<int>(q[pos]), tag_of(i), payload);
      }
    }
    for (std::uint64_t i : rk) {
      const auto& q = d.processor_set(i);
      const std::size_t my_pos = d.chunk_index(i, k);
      const auto [lo, hi] = chunk_range(my_pos);
      std::vector<double> acc = flat_copy(partial[index_of(i)].view(), lo, hi);
      for (std::uint64_t k2 : q) {
        if (k2 == k) continue;
        auto in = comm.recv(static_cast<int>(k2), tag_of(i));
        PARSYRK_CHECK(in.size() == acc.size());
        for (std::size_t t = 0; t < acc.size(); ++t) acc[t] += in[t];
      }
      // Assembly (shared memory, disjoint writes): my chunk of C_i.
      for (std::size_t t = lo; t < hi; ++t) {
        c_full(i * nb + t / m, t % m) = acc[t - lo];
      }
    }
  });
  return c_full;
}

}  // namespace parsyrk::core
