// SPMD building blocks shared by the 1D/2D/3D drivers.
//
// Each routine is the per-rank body of one of the paper's algorithms,
// operating on a sub-communicator so the 3D algorithm can reuse the 2D body
// per slice (paper Alg. 3 line 3). Data "distribution" is realized by each
// rank reading only its assigned portion of the shared input view during
// setup — reads of local data are free, exactly as in the model, and every
// non-local word is counted by the runtime ledger.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "distribution/triangle_block.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/comm.hpp"

namespace parsyrk::core::internal {

/// Ledger phase labels shared by algorithms, tests, and benches.
inline constexpr const char* kPhaseGatherA = "gather_A";
inline constexpr const char* kPhaseReduceC = "reduce_C";
inline constexpr const char* kPhaseScatterA = "scatter_A";

/// How the 1D/3D algorithms' Reduce-Scatter is realized: pairwise exchange
/// (latency P−1), the §6 Bruck adaptation — bandwidth- AND latency-optimal
/// (ceil(log2 P) messages) at the cost of padding the packed triangle to a
/// multiple of P (< P extra words) — or the two-level hierarchical variant
/// (intra-node reduce to a node leader, leader-only inter-node exchange,
/// intra-node scatter) which minimizes the scarce inter-node word volume on
/// a nodes × ranks-per-node topology. kHierarchical requires the world's
/// topology to have ranks_per_node > 1 and falls back to pairwise otherwise.
enum class ReduceKind { kPairwise, kBruck, kHierarchical };

/// A zero-filled send buffer for Alg. 1's Reduce-Scatter of the packed
/// lower triangle of an n1×n1 C: n1(n1+1)/2 doubles in PackedLower's
/// layout, padded with zeros to a multiple of P when `reduce` is Bruck
/// (Bruck needs equal blocks).
std::vector<double> packed_triangle_buffer(std::size_t n1, int p,
                                           ReduceKind reduce);

/// Alg. 1 line 4 plus assembly: reduce-scatters `send`, this rank's partial
/// packed triangle laid out as packed_triangle_buffer makes it, in phase
/// reduce_C, and writes the even chunk this rank owns into `c_full`
/// (mirrored) with assemble_packed_range. Every 1D caller — SYRK, SYR2K and
/// sparse SYRK — ends in this one routine.
void reduce_scatter_packed(comm::Comm& comm, std::span<const double> send,
                           ReduceKind reduce, Matrix& c_full);

/// This rank's 1D column block of A (Alg. 1 line 3). The column block is
/// local data by assumption; reading it from the shared view costs nothing,
/// matching the model.
ConstMatrixView column_block_1d(const comm::Comm& comm,
                                const ConstMatrixView& a);

/// Alg. 1 per-rank body: local SYRK of this rank's column block `a_local`
/// straight into the packed send buffer, then reduce_scatter_packed into
/// `c_full`. No dense n1×n1 intermediate exists.
void syrk_1d_spmd(comm::Comm& comm, const ConstMatrixView& a_local,
                  ReduceKind reduce, Matrix& c_full);

/// Pipelined Alg. 1 body: the packed-triangle Reduce-Scatter is split into
/// `chunks` contiguous segments driven by nonblocking handles, so segment
/// s's result is assembled into `c_full` while segment s+1 is in flight.
/// Every segment's per-rank sizes are the intersections of the blocking
/// ownership ranges with the segment, so the summed word volume — and each
/// entry's accumulation order — is identical to the blocking path; chunks=1
/// replays the blocking schedule exactly (same tags, same event order).
void syrk_1d_spmd_pipelined(comm::Comm& comm, const ConstMatrixView& a_local,
                            int chunks, Matrix& c_full);

/// How the 2D algorithm's All-to-All is realized (§6 trade-off):
/// pairwise exchange is bandwidth-optimal with latency P−1; the butterfly
/// (Bruck) variant has latency ceil(log2 P) at ~(log2 P)/2 times the words;
/// the hierarchical variant gathers payloads to node leaders, exchanges
/// node-aggregates between leaders, and scatters within the node — cheapest
/// in inter-node words on a two-level topology.
enum class ExchangeKind { kPairwise, kButterfly, kHierarchical };

/// Alg. 2 per-rank body into per-block temporaries (the 3D slices and the
/// distributed-matrix API; the 2D driver computes in place instead):
/// pairwise All-to-All gather of the c row blocks in this rank's row-block
/// set, then local GEMMs for the triangle block of blocks and a local SYRK
/// for the diagonal block if assigned.
struct TriangleBlocks {
  /// Owned off-diagonal block coordinates (i, j), i > j, sorted; one Matrix
  /// per pair in the same order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  std::vector<Matrix> off_blocks;
  /// Diagonal block index and data (lower triangle valid) if D_k nonempty.
  std::optional<std::uint64_t> diag_index;
  Matrix diag_block;
};
TriangleBlocks syrk_2d_spmd(comm::Comm& comm,
                            const dist::TriangleBlockDistribution& d,
                            const ConstMatrixView& a);

/// Row blocks of A this rank assembled from the All-to-All (the output of
/// the 2D gather stage, input to the compute stage).
struct AssembledRowBlocks {
  std::vector<std::uint64_t> indices;  // R_k, sorted
  std::vector<Matrix> blocks;          // same order
  const Matrix& block_of(std::uint64_t i) const;
};

/// Gather stage of Alg. 2 (lines 3–14): All-to-All exchange of row-block
/// chunks plus assembly. With pipeline_chunks >= 1 the exchange runs as
/// that many segmented nonblocking All-to-Alls (pairwise only): segment s
/// assembles while segment s+1 is in flight. Word volume is identical for
/// any chunk count; chunks <= 1 replays the blocking schedule exactly.
AssembledRowBlocks syrk_2d_gather(comm::Comm& comm,
                                  const dist::TriangleBlockDistribution& d,
                                  const ConstMatrixView& a,
                                  ExchangeKind exchange,
                                  int pipeline_chunks = 0);

/// Compute stage of Alg. 2 (lines 15–20) over assembled row blocks:
/// GEMM per owned off-diagonal pair, SYRK for the diagonal block.
TriangleBlocks syrk_2d_compute(const dist::TriangleBlockDistribution& d,
                               std::uint64_t k, const AssembledRowBlocks& rb);

/// Serializes the blocks a rank owns into the flat buffer the 3D algorithm
/// reduce-scatters: off-diagonal blocks in pair order (row-major within a
/// block), then the diagonal block packed lower. Identical layout across
/// ranks with the same k, which is what makes the per-k Reduce-Scatter of
/// Alg. 3 line 5 well-formed.
std::vector<double> flatten_triangle_blocks(const TriangleBlocks& b);

/// Writes `flat[lo..hi)` of a rank's flattened triangle blocks into the full
/// output matrix (mirroring into the upper triangle), given the block
/// geometry. `nb` is the block dimension n1/c².
void scatter_flat_to_full(const TriangleBlocks& shape,
                          const std::vector<double>& chunk, std::size_t lo,
                          std::size_t nb, Matrix& c_full);

}  // namespace parsyrk::core::internal
