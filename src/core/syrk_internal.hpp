// Building blocks of the one per-rank SYRK body (core/syrk.cpp).
//
// The body is Alg. 3 on a p1 × p2 grid: slice l (the p1 ranks sharing l)
// runs Alg. 2 on column block l of A — it gathers the row blocks its
// triangle-block distribution assigns and each rank computes the output
// blocks it owns — and row k (the p2 ranks sharing k) reduce-scatters those
// blocks across the slices (Alg. 3 line 5). Alg. 1 is the p1 = 1 corner: a
// slice is one rank owning the whole triangle as a single diagonal block,
// so nothing is gathered and the reduce-scatter is Alg. 1's. Alg. 2 is the
// p2 = 1 corner: nothing is reduced, and the owners compute straight into C.
// SYR2K runs the same body on two operands.
//
// Data "distribution" is realized by each rank reading only its assigned
// portion of the shared input view during setup — reads of local data are
// free, exactly as in the model, and every non-local word is counted by the
// runtime ledger.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "distribution/triangle_block.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/comm.hpp"

namespace parsyrk::core::internal {

/// Ledger phase labels shared by algorithms, tests, and benches.
inline constexpr const char* kPhaseGatherA = "gather_A";
inline constexpr const char* kPhaseReduceC = "reduce_C";
inline constexpr const char* kPhaseScatterA = "scatter_A";

/// How the reduce-scatter of C across the p2 slices (Alg. 1's when p1 = 1)
/// is realized: pairwise exchange (latency p−1), the §6 Bruck adaptation —
/// bandwidth- AND latency-optimal (ceil(log2 p) messages) at the cost of
/// padding the owned blocks to a multiple of p (< p extra words) — or the
/// two-level hierarchical variant (intra-node reduce to a node leader,
/// leader-only inter-node exchange, intra-node scatter), which minimizes
/// inter-node words and falls back to pairwise unless the reducing ranks
/// form >= 2 whole nodes of the world's topology.
enum class ReduceKind { kPairwise, kBruck, kHierarchical };

/// How Alg. 2's All-to-All of row-block chunks is realized in every slice
/// (§6 trade-off): pairwise exchange is bandwidth-optimal with latency
/// p1−1; the butterfly (Bruck) variant has latency ceil(log2 p1) at
/// ~(log2 p1)/2 times the words; the hierarchical variant exchanges
/// node-aggregates between node leaders, cheapest in inter-node words.
enum class ExchangeKind { kPairwise, kButterfly, kHierarchical };

/// The operands of one symmetric rank-k update: A alone (SYRK, C = A·Aᵀ)
/// or A and B of the same shape (SYR2K, C = A·Bᵀ + B·Aᵀ).
struct Operands {
  // Implicit: a view is the SYRK operand set wherever one is expected.
  Operands(const ConstMatrixView& x)  // NOLINT(google-explicit-constructor)
      : a(x), b(x) {}
  Operands(const MatrixView& x)  // NOLINT(google-explicit-constructor)
      : Operands(ConstMatrixView(x)) {}
  Operands(const ConstMatrixView& x, const ConstMatrixView& y)
      : a(x), b(y), count(2) {}

  const ConstMatrixView& operator[](int o) const { return o == 0 ? a : b; }
  /// Columns [c0, c0 + width) of every operand.
  Operands columns(std::size_t c0, std::size_t width) const;

  ConstMatrixView a;
  ConstMatrixView b;  // aliases `a` when count == 1
  int count = 1;
};

/// Row blocks of the operands a rank assembled from Alg. 2's All-to-All.
struct AssembledRowBlocks {
  std::vector<std::uint64_t> indices;  // R_k, sorted
  /// Operand-major: operand o's block of indices[t] at o·indices.size() + t.
  std::vector<Matrix> blocks;
  int operands = 1;
  /// Row block i of every operand.
  Operands rows(std::uint64_t i) const;
};

/// Gather stage of Alg. 2 (lines 3–14) over c(c+1) ranks: one personalized
/// All-to-All carries this rank's chunk of every operand's A_i, i in R_k,
/// to the other members of Q_i ([A chunk | B chunk] for SYR2K). Pairwise
/// runs as max(pipeline_chunks, 1) segments, each assembled while the next
/// is in flight, with the blocking word volume; one segment is the
/// blocking schedule. Butterfly and hierarchical are single collectives.
AssembledRowBlocks syrk_2d_gather(comm::Comm& comm,
                                  const dist::TriangleBlockDistribution& d,
                                  const Operands& ops, ExchangeKind exchange,
                                  int pipeline_chunks = 0);

/// The output blocks one rank owns as one flat buffer: the off-diagonal
/// pairs (i, j), i > j, each nb×nb row-major in pair order, then the
/// diagonal block packed lower. Ranks with the same k share it, which makes
/// Alg. 3 line 5 well-formed; with p1 = 1 it is Alg. 1's packed triangle.
struct OwnedLayout {
  std::size_t nb = 0;  // block dimension: n1/c², or n1 when p1 = 1
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  std::optional<std::uint64_t> diag;
  bool whole_triangle = false;  // p1 = 1: segments split it entrywise

  /// Blocks owned: the pairs, then the diagonal block.
  std::size_t items() const { return pairs.size() + (diag ? 1 : 0); }
  /// First word of item t; offset(items()) == size().
  std::size_t offset(std::size_t t) const {
    return t <= pairs.size() ? t * nb * nb
                             : pairs.size() * nb * nb + nb * (nb + 1) / 2;
  }
  std::size_t size() const { return offset(items()); }
};

/// Row block i of the operands: gathered, or (p1 = 1) the own column block.
using RowSource = std::function<Operands(std::uint64_t)>;

/// Alg. 2 lines 15–20 for items [i0, i1), written into their slots of
/// `out` with Beta::kZero (the slots' old contents are never read): gemm_nt
/// per pair (A_i·A_jᵀ, or A_i·B_jᵀ + B_i·A_jᵀ) and the packed SYRK (SYR2K)
/// of the diagonal block. Returns the flops.
std::uint64_t compute_owned(const OwnedLayout& layout, const RowSource& rows,
                            std::size_t i0, std::size_t i1,
                            std::span<double> out);

/// Writes words [lo, lo + chunk.size()) of the layout into `c`, mirrored:
/// row copies plus the tiled transpose for pairs, assemble_packed_range for
/// the diagonal block. Disjoint ranges write disjoint entries.
void assemble_owned_range(const OwnedLayout& layout,
                          std::span<const double> chunk, std::size_t lo,
                          const MatrixView& c);

/// Computes items [i0, i1) into the send buffer; returns the flops.
using ComputeItems = std::function<std::uint64_t(
    std::size_t i0, std::size_t i1, std::span<double> send)>;

/// Alg. 3 line 5 (Alg. 1 line 4 when p1 = 1), in phase reduce_C: computes
/// the owned blocks into one send buffer — uninitialised, from the rank's
/// KernelArena send slot below kKeptBlockBytes — reduce-scatters it evenly
/// over `row` and assembles this rank's range into `c`. Pairwise runs as
/// max(pipeline_chunks, 1) segments — entrywise over a whole triangle,
/// else whole-block groups, each computed while the previous one is in
/// flight — with the blocking result bitwise; one segment is the blocking
/// schedule. Bruck and hierarchical are single blocking collectives.
void reduce_scatter_owned(comm::Comm& row, const OwnedLayout& layout,
                          const ComputeItems& compute, ReduceKind reduce,
                          int pipeline_chunks, const MatrixView& c);

}  // namespace parsyrk::core::internal
