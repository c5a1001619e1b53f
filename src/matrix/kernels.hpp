// Local (single-rank) dense kernels.
//
// Each SPMD rank of the parallel algorithms calls these on its local blocks:
//   * gemm_nt:    C := β·C + A · Bᵀ          (Alg. 2, line 16 "Local-GEMM")
//   * syrk_lower: C := β·C + A · Aᵀ (lower)  (Algs. 1–2, "Local-SYRK")
// with β ∈ {0, 1} (Beta). β = 1 is the default and accumulates; β = 0
// writes the product without reading C, as BLAS does.
//
// Two tiers per kernel:
//   * the unsuffixed kernels run the packed micro-kernel engine (pack.hpp +
//     ukernel.hpp): BLIS-style packed panels, a register-blocked FMA
//     micro-tile, per-worker arena scratch (arena.hpp) — the production
//     path every SPMD rank executes. The triangular kernels also store
//     into row-packed lower storage (the _packed twins), which is what
//     Alg. 1 reduce-scatters;
//   * the _naive variants are the triple-loop oracles the tests compare
//     everything against.
#pragma once

#include <cstddef>
#include <span>

#include "matrix/matrix.hpp"

namespace parsyrk {

/// What an engine kernel does with the entries of C it writes.
enum class Beta {
  kZero,  ///< C := product. C is never read, so it may hold anything; with
          ///< k = 0 the kernel writes zeros. A −0.0 sum reads +0.0.
  kOne,   ///< C += product.
};

/// C (m×n) := β·C + A (m×k) · Bᵀ where B is n×k. Packed micro-kernel
/// engine.
void gemm_nt(const ConstMatrixView& a, const ConstMatrixView& b,
             const MatrixView& c, Beta beta = Beta::kOne);

/// Reference implementation of gemm_nt (triple loop, no tiling).
void gemm_nt_naive(const ConstMatrixView& a, const ConstMatrixView& b,
                   const MatrixView& c);

/// C (m×m, lower triangle incl. diagonal) := β·C + A (m×k) · Aᵀ.
/// Entries strictly above the diagonal of C are neither read nor written.
/// The engine packs the A panel once per k block and uses it as both
/// operands.
void syrk_lower(const ConstMatrixView& a, const MatrixView& c,
                Beta beta = Beta::kOne);

/// syrk_lower into row-packed lower storage (PackedLower's layout: entry
/// (i, j), j <= i, at i(i+1)/2 + j); `c` holds a.rows()(a.rows()+1)/2
/// doubles. Same tiles and summation order as syrk_lower, so the result is
/// bitwise the lower triangle of the dense kernel's.
void syrk_lower_packed(const ConstMatrixView& a, std::span<double> c,
                       Beta beta = Beta::kOne);

/// Reference implementation of syrk_lower.
void syrk_lower_naive(const ConstMatrixView& a, const MatrixView& c);

/// C (m×m, lower triangle incl. diagonal) := β·C + A·Bᵀ + B·Aᵀ for A, B
/// both m×k (the SYR2K local kernel — §6's first extension target).
void syr2k_lower(const ConstMatrixView& a, const ConstMatrixView& b,
                 const MatrixView& c, Beta beta = Beta::kOne);

/// syr2k_lower into row-packed lower storage, as syrk_lower_packed.
void syr2k_lower_packed(const ConstMatrixView& a, const ConstMatrixView& b,
                        std::span<double> c, Beta beta = Beta::kOne);

/// Reference implementation of syr2k_lower.
void syr2k_lower_naive(const ConstMatrixView& a, const ConstMatrixView& b,
                       const MatrixView& c);

/// Full serial SYR2K oracle: symmetric A·Bᵀ + B·Aᵀ.
Matrix syr2k_reference(const ConstMatrixView& a, const ConstMatrixView& b);

/// C (m×n) := β·C + S·B where S is m×m symmetric given by its lower
/// triangle (entries above the diagonal of `s_lower` are ignored) and B is
/// m×n (the SYMM local kernel — §6's second extension target). The engine
/// packs S rows with diagonal reflection, so the product never
/// materializes the full square S.
void symm_lower_left(const ConstMatrixView& s_lower, const ConstMatrixView& b,
                     const MatrixView& c, Beta beta = Beta::kOne);

/// Reference implementation of symm_lower_left (branchy triple loop).
void symm_lower_left_naive(const ConstMatrixView& s_lower,
                           const ConstMatrixView& b, const MatrixView& c);

/// Full serial SYMM oracle.
Matrix symm_reference(const ConstMatrixView& s_lower,
                      const ConstMatrixView& b);

/// Full serial SYRK: returns the n1×n1 matrix with the lower triangle of
/// A·Aᵀ filled in and the strict upper triangle mirrored (symmetric result).
/// This is the oracle all parallel algorithms are validated against.
Matrix syrk_reference(const ConstMatrixView& a);

/// Returns Aᵀ as a fresh matrix.
Matrix transpose(const ConstMatrixView& a);

/// Writes Aᵀ into `t` (a.cols() × a.rows()), cache-blocked so neither side
/// is walked column-strided beyond one tile. The views must not overlap.
void transpose_into(const ConstMatrixView& a, const MatrixView& t);

/// Copies the strict lower triangle of square `c` onto its strict upper
/// triangle (cache-blocked), so a lower-triangular result reads as the full
/// symmetric matrix.
void symmetrize_from_lower(const MatrixView& c);

/// Writes entries [offset, offset + chunk.size()) of a row-packed lower
/// triangle into the lower triangle of square `c`, one contiguous copy per
/// row, then mirrors them onto the upper triangle with the cache-blocked
/// transpose of symmetrize_from_lower. Disjoint ranges write disjoint
/// entries of `c`, so ranks can assemble their own ranges concurrently.
void assemble_packed_range(std::span<const double> chunk, std::size_t offset,
                           const MatrixView& c);

/// max_{i,j} |a(i,j) - b(i,j)|; shapes must match.
double max_abs_diff(const ConstMatrixView& a, const ConstMatrixView& b);

/// max_{i>=j} |a(i,j) - b(i,j)| over the lower triangle only.
double max_abs_diff_lower(const ConstMatrixView& a, const ConstMatrixView& b);

/// Frobenius norm.
double frobenius_norm(const ConstMatrixView& a);

}  // namespace parsyrk
