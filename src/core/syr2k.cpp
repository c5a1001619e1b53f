#include "core/syr2k.hpp"

#include <algorithm>

#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "distribution/triangle_block.hpp"
#include "matrix/kernels.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

namespace {

using internal::TriangleBlocks;

/// 2D SYR2K per-rank body: one All-to-All carries this rank's chunks of
/// both A_i and B_i for every i in R_k (concatenated per destination), then
/// the owned blocks are C_ij = A_i·B_jᵀ + B_i·A_jᵀ.
TriangleBlocks syr2k_2d_spmd(comm::Comm& comm,
                             const dist::TriangleBlockDistribution& d,
                             const ConstMatrixView& a,
                             const ConstMatrixView& b) {
  const auto p = static_cast<std::uint64_t>(comm.size());
  PARSYRK_REQUIRE(p == d.num_procs(), "2D SYR2K needs exactly c(c+1) = ",
                  d.num_procs(), " ranks; communicator has ", p);
  PARSYRK_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const std::uint64_t nblocks = d.num_block_rows();
  const std::size_t n1 = a.rows();
  const std::size_t n2 = a.cols();
  PARSYRK_REQUIRE(n1 % nblocks == 0, "2D SYR2K needs n1 divisible by c² = ",
                  nblocks, "; got n1 = ", n1);
  const std::size_t nb = n1 / nblocks;
  const std::size_t flat = nb * n2;
  const auto k = static_cast<std::uint64_t>(comm.rank());
  const int parts = static_cast<int>(d.c() + 1);

  comm.set_phase(internal::kPhaseGatherA);
  const auto& rk = d.row_block_set(k);
  auto read_chunk = [&](const ConstMatrixView& m, std::uint64_t i) {
    const int q = static_cast<int>(d.chunk_index(i, k));
    const std::size_t lo = dist::chunk_begin(flat, parts, q);
    const std::size_t hi = dist::chunk_end(flat, parts, q);
    std::vector<double> chunk;
    chunk.reserve(hi - lo);
    for (std::size_t t = lo; t < hi; ++t) {
      chunk.push_back(m(i * nb + t / n2, t % n2));
    }
    return chunk;
  };
  std::vector<std::vector<double>> sendbuf(p);
  for (std::uint64_t i : rk) {
    auto mine_a = read_chunk(a, i);
    auto mine_b = read_chunk(b, i);
    std::vector<double> both;
    both.reserve(mine_a.size() + mine_b.size());
    both.insert(both.end(), mine_a.begin(), mine_a.end());
    both.insert(both.end(), mine_b.begin(), mine_b.end());
    for (std::uint64_t k2 : d.processor_set(i)) {
      if (k2 == k) continue;
      PARSYRK_CHECK(sendbuf[k2].empty());
      sendbuf[k2] = both;
    }
  }
  auto recvbuf = comm.all_to_all_v(sendbuf);

  std::vector<Matrix> local_a, local_b;
  local_a.reserve(rk.size());
  local_b.reserve(rk.size());
  for (std::uint64_t i : rk) {
    Matrix ai(nb, n2), bi(nb, n2);
    for (std::uint64_t k2 : d.processor_set(i)) {
      const int q = static_cast<int>(d.chunk_index(i, k2));
      const std::size_t lo = dist::chunk_begin(flat, parts, q);
      const std::size_t hi = dist::chunk_end(flat, parts, q);
      if (k2 == k) {
        for (std::size_t t = lo; t < hi; ++t) {
          ai(t / n2, t % n2) = a(i * nb + t / n2, t % n2);
          bi(t / n2, t % n2) = b(i * nb + t / n2, t % n2);
        }
      } else {
        const auto& chunk = recvbuf[k2];
        PARSYRK_CHECK(chunk.size() == 2 * (hi - lo));
        flat_assign(ai.view(), lo,
                    std::span<const double>(chunk.data(), hi - lo));
        flat_assign(bi.view(), lo,
                    std::span<const double>(chunk.data() + (hi - lo), hi - lo));
      }
    }
    local_a.push_back(std::move(ai));
    local_b.push_back(std::move(bi));
  }
  auto index_of = [&](std::uint64_t i) {
    auto it = std::lower_bound(rk.begin(), rk.end(), i);
    PARSYRK_CHECK(it != rk.end() && *it == i);
    return static_cast<std::size_t>(it - rk.begin());
  };

  TriangleBlocks out;
  out.pairs = d.owned_pairs(k);
  out.off_blocks.reserve(out.pairs.size());
  for (const auto& [i, j] : out.pairs) {
    Matrix cij(nb, nb);
    gemm_nt(local_a[index_of(i)].view(), local_b[index_of(j)].view(),
            cij.view());
    gemm_nt(local_b[index_of(i)].view(), local_a[index_of(j)].view(),
            cij.view());
    out.off_blocks.push_back(std::move(cij));
  }
  if (auto di = d.diagonal_block(k)) {
    out.diag_index = *di;
    out.diag_block = Matrix(nb, nb);
    syr2k_lower(local_a[index_of(*di)].view(), local_b[index_of(*di)].view(),
                out.diag_block.view());
  }
  return out;
}

}  // namespace

Matrix syr2k_1d(comm::World& world, const Matrix& a, const Matrix& b) {
  PARSYRK_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "SYR2K needs same-shape A and B");
  const std::size_t n1 = a.rows();
  Matrix c_full(n1, n1);
  world.run([&](comm::Comm& comm) {
    // Local SYR2K straight into the packed send buffer, as in Alg. 1.
    constexpr auto kPairwise = internal::ReduceKind::kPairwise;
    std::vector<double> packed =
        internal::packed_triangle_buffer(n1, comm.size(), kPairwise);
    syr2k_lower_packed(internal::column_block_1d(comm, a.view()),
                       internal::column_block_1d(comm, b.view()), packed);
    internal::reduce_scatter_packed(comm, packed, kPairwise, c_full);
  });
  return c_full;
}

Matrix syr2k_2d(comm::World& world, const Matrix& a, const Matrix& b,
                std::uint64_t c) {
  dist::TriangleBlockDistribution d(c);
  PARSYRK_REQUIRE(static_cast<std::uint64_t>(world.size()) == d.num_procs(),
                  "2D SYR2K with c = ", c, " needs ", d.num_procs(),
                  " ranks; world has ", world.size());
  const std::size_t nb = a.rows() / d.num_block_rows();
  Matrix c_full(a.rows(), a.rows());
  world.run([&](comm::Comm& comm) {
    TriangleBlocks blocks = syr2k_2d_spmd(comm, d, a.view(), b.view());
    auto flat = internal::flatten_triangle_blocks(blocks);
    internal::scatter_flat_to_full(blocks, flat, 0, nb, c_full);
  });
  return c_full;
}

Matrix syr2k_3d(comm::World& world, const Matrix& a, const Matrix& b,
                std::uint64_t c, std::uint64_t p2) {
  dist::TriangleBlockDistribution d(c);
  const std::uint64_t p1 = d.num_procs();
  PARSYRK_REQUIRE(static_cast<std::uint64_t>(world.size()) == p1 * p2,
                  "3D SYR2K with c = ", c, ", p2 = ", p2, " needs ", p1 * p2,
                  " ranks; world has ", world.size());
  const std::size_t n2 = a.cols();
  const std::size_t nb = a.rows() / d.num_block_rows();
  Matrix c_full(a.rows(), a.rows());
  world.run([&](comm::Comm& comm) {
    const auto w = static_cast<std::uint64_t>(comm.rank());
    const int k = static_cast<int>(w % p1);
    const int l = static_cast<int>(w / p1);
    comm::Comm slice = comm.split(l, k);
    const std::size_t c0 = dist::chunk_begin(n2, static_cast<int>(p2), l);
    const std::size_t cw = dist::chunk_size(n2, static_cast<int>(p2), l);
    TriangleBlocks blocks =
        syr2k_2d_spmd(slice, d, a.view().block(0, c0, a.rows(), cw),
                      b.view().block(0, c0, b.rows(), cw));
    comm::Comm row = comm.split(k, l);
    comm.set_phase(internal::kPhaseReduceC);
    auto flat = internal::flatten_triangle_blocks(blocks);
    std::vector<std::size_t> sizes(p2);
    for (std::uint64_t q = 0; q < p2; ++q) {
      sizes[q] = dist::chunk_size(flat.size(), static_cast<int>(p2),
                                  static_cast<int>(q));
    }
    auto reduced = row.reduce_scatter(flat, sizes);
    const std::size_t lo =
        dist::chunk_begin(flat.size(), static_cast<int>(p2), l);
    internal::scatter_flat_to_full(blocks, reduced, lo, nb, c_full);
  });
  return c_full;
}

}  // namespace parsyrk::core
