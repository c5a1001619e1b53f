#include "sparse/parallel.hpp"

#include <algorithm>

#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "matrix/packed.hpp"
#include "support/check.hpp"

namespace parsyrk::sparse {

std::vector<std::pair<std::size_t, std::size_t>> column_ranges(
    const Csr& a, int parts, ColumnSplit split) {
  PARSYRK_REQUIRE(parts >= 1, "need at least one part");
  const std::size_t n2 = a.cols();
  std::vector<std::pair<std::size_t, std::size_t>> out(parts);
  if (split == ColumnSplit::kUniform) {
    for (int r = 0; r < parts; ++r) {
      out[r] = {dist::chunk_begin(n2, parts, r),
                dist::chunk_end(n2, parts, r)};
    }
    return out;
  }
  // nnz-balanced: cut the per-column flop prefix sum into equal parts.
  const Csr at = a.transpose();
  std::vector<double> prefix(n2 + 1, 0.0);
  for (std::size_t k = 0; k < n2; ++k) {
    const double nnz_k =
        static_cast<double>(at.row_ptr()[k + 1] - at.row_ptr()[k]);
    prefix[k + 1] = prefix[k] + nnz_k * (nnz_k + 1.0) / 2.0;
  }
  const double total = prefix[n2];
  std::size_t cut = 0;
  for (int r = 0; r < parts; ++r) {
    const double target = total * (r + 1) / parts;
    std::size_t end = cut;
    while (end < n2 && prefix[end + 1] <= target) ++end;
    // Ensure progress when many empty columns share a prefix value.
    if (r == parts - 1) end = n2;
    out[r] = {cut, end};
    cut = end;
  }
  return out;
}

Matrix sparse_syrk_1d(comm::World& world, const Csr& a, ColumnSplit split) {
  const std::size_t n1 = a.rows();
  const auto ranges = column_ranges(a, world.size(), split);
  Matrix c_full(n1, n1);
  world.run([&](comm::Comm& comm) {
    const auto [c0, c1] = ranges[comm.rank()];
    // Local sparse SYRK over this rank's columns (local data by the 1D
    // distribution assumption; reading the shared CSR costs nothing), then
    // the dense Alg. 1 reduce phase: the output triangle is dense
    // regardless of the input sparsity.
    auto local_syrk = [&](std::size_t, std::size_t, std::span<double> send) {
      Matrix cbar(n1, n1);
      if (c1 > c0) sparse_syrk_lower(a.column_slice(c0, c1 - c0), cbar.view());
      const PackedLower packed = PackedLower::from_full(cbar.view());
      std::copy(packed.span().begin(), packed.span().end(), send.begin());
      return std::uint64_t{0};
    };
    const core::internal::OwnedLayout triangle{
        .nb = n1, .pairs = {}, .diag = 0, .whole_triangle = true};
    core::internal::reduce_scatter_owned(
        comm, triangle, local_syrk,
        core::internal::ReduceKind::kPairwise, /*pipeline_chunks=*/0,
        c_full.view());
  });
  return c_full;
}

}  // namespace parsyrk::sparse
