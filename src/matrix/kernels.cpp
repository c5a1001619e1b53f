#include "matrix/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "matrix/arena.hpp"
#include "matrix/pack.hpp"
#include "matrix/packed.hpp"
#include "matrix/ukernel.hpp"

namespace parsyrk {

namespace {

// Square tile of the blocked transposes: a 32×32 double tile of source and
// destination together stay well inside L1.
constexpr std::size_t kTransposeTile = 32;

using kern::kKC;
using kern::kMC;
using kern::kMR;
using kern::kNR;
using kern::TileOp;

constexpr std::size_t strips_of(std::size_t n) { return (n + kMR - 1) / kMR; }

/// Row access to a dense row-major C: row i starts at data + i·ld.
struct DenseRows {
  MatrixView c;
  double* row(std::size_t i) const { return c.data() + i * c.ld(); }
};

/// Row access to row-packed lower storage (PackedLower's layout): row i
/// starts at i(i+1)/2 and holds columns 0..i.
struct PackedRows {
  double* p;
  double* row(std::size_t i) const { return p + i * (i + 1) / 2; }
};

/// The op of a k block's tiles: β = 0 stores on the first block, and every
/// later block adds onto it.
TileOp block_op(Beta beta, std::size_t k0) {
  return beta == Beta::kZero && k0 == 0 ? TileOp::kStore : TileOp::kAdd;
}

/// The one 8x8 scratch tile of a kernel call: tiles cut by the matrix edge
/// or the diagonal, and SYR2K's two chained products, sum here before a
/// clipped write into C. zero() starts a raw sum, as the full tiles do.
struct ScratchTile {
  alignas(kMatrixAlignment) double v[kMR * kNR] = {};
  double* rows[kMR] = {};

  ScratchTile() {
    for (std::size_t i = 0; i < kMR; ++i) rows[i] = v + i * kNR;
  }
  void zero() { std::memset(v, 0, sizeof(v)); }
};

/// Writes the scratch tile into C block (i0.., j0..), clipped to me x ne,
/// as `op` says (kStore: 0.0 + sum; kAdd: C + sum). `lower` keeps only
/// entries with global row >= global column (the diagonal tiles of
/// syrk_lower / syr2k_lower; i0 == j0 there).
template <typename Rows>
void write_tile(const ScratchTile& t, const Rows& c, std::size_t i0,
                std::size_t j0, std::size_t me, std::size_t ne, TileOp op,
                bool lower) {
  for (std::size_t i = 0; i < me; ++i) {
    const std::size_t gi = i0 + i;
    double* crow = c.row(gi) + j0;
    const double* trow = t.v + i * kNR;
    const std::size_t jend = lower ? std::min(ne, gi - j0 + 1) : ne;
    if (op == TileOp::kStore) {
      for (std::size_t j = 0; j < jend; ++j) crow[j] = 0.0 + trow[j];
    } else {
      for (std::size_t j = 0; j < jend; ++j) crow[j] += trow[j];
    }
  }
}

/// One row strip of C, rows [ib, ib + me), from the packed A strip `a`
/// against the first `jr1` packed B strips of `b` (C has n columns). Whole
/// tiles go from registers straight into C's rows; a tile the edge cuts
/// goes through the scratch tile.
template <typename Rows>
void row_strip(kern::MicroKernelFn uk, std::size_t kc, const double* a,
               const double* b, std::size_t jr1, std::size_t n,
               const Rows& c, std::size_t ib, std::size_t me, TileOp op,
               ScratchTile& t) {
  std::size_t jr = 0;
  if (me == kMR) {
    double* rows[kMR];
    for (const std::size_t whole = std::min(jr1, n / kNR); jr < whole; ++jr) {
      for (std::size_t i = 0; i < kMR; ++i) {
        rows[i] = c.row(ib + i) + jr * kNR;
      }
      uk(kc, a, b + jr * kNR * kc, rows, op);
    }
  }
  for (; jr < jr1; ++jr) {
    t.zero();
    uk(kc, a, b + jr * kNR * kc, t.rows, TileOp::kChain);
    write_tile(t, c, ib, jr * kNR, me, std::min(kNR, n - jr * kNR), op,
               /*lower=*/false);
  }
}

/// The one tile loop of syrk_lower and syr2k_lower, over either store:
/// C (lower triangle) := β·C + A·Aᵀ when `b` is null, + A·Bᵀ + B·Aᵀ
/// otherwise.
template <typename Rows>
void lower_rank_k(const ConstMatrixView& a, const ConstMatrixView* b,
                  const Rows& c, Beta beta) {
  const std::size_t m = a.rows(), kk = a.cols();
  if (m == 0 || kk == 0) {
    if (beta == Beta::kZero) {
      for (std::size_t i = 0; i < m; ++i) std::fill_n(c.row(i), i + 1, 0.0);
    }
    return;
  }
  const auto uk = kern::active_ukernel().fn;
  kern::KernelArena& arena = kern::KernelArena::current();
  const std::size_t ns = strips_of(m);
  ScratchTile t;
  for (std::size_t k0 = 0; k0 < kk; k0 += kKC) {
    const std::size_t kc = std::min(kKC, kk - k0);
    const TileOp op = block_op(beta, k0);
    // One pack of the whole A panel serves as BOTH operands of every C tile
    // — the cache-level mirror of the paper's halved communication. SYR2K
    // packs B beside it and reuses each panel as left and right operand.
    double* abuf = arena.buffer(kern::KernelArena::kSlotPackA,
                                kern::packed_panel_doubles(m, kc));
    kern::pack_rows(a, 0, m, k0, kc, abuf);
    double* bbuf = nullptr;
    if (b != nullptr) {
      bbuf = arena.buffer(kern::KernelArena::kSlotPackB,
                          kern::packed_panel_doubles(m, kc));
      kern::pack_rows(*b, 0, m, k0, kc, bbuf);
    }
    for (std::size_t ir = 0; ir < ns; ++ir) {
      const std::size_t ib = ir * kMR;
      const std::size_t me = std::min(kMR, m - ib);
      const double* ai = abuf + ir * kMR * kc;
      if (bbuf == nullptr) {
        row_strip(uk, kc, ai, abuf, ir, m, c, ib, me, op, t);
        t.zero();
        uk(kc, ai, ai, t.rows, TileOp::kChain);
        write_tile(t, c, ib, ib, me, me, op, /*lower=*/true);
        continue;
      }
      // SYR2K chains B_i·A_jᵀ onto A_i·B_jᵀ in the scratch tile, so each
      // entry is one sum over both products.
      const double* bi = bbuf + ir * kMR * kc;
      for (std::size_t jr = 0; jr <= ir; ++jr) {
        t.zero();
        uk(kc, ai, bbuf + jr * kNR * kc, t.rows, TileOp::kChain);
        uk(kc, bi, abuf + jr * kNR * kc, t.rows, TileOp::kChain);
        write_tile(t, c, ib, jr * kNR, me, std::min(kNR, m - jr * kNR), op,
                   /*lower=*/jr == ir);
      }
    }
  }
}

/// The rectangular engine of gemm_nt and symm_lower_left: C (m×n) :=
/// β·C + Σ over k of the packed panels, where pack_a(i0, mc, k0, kc, buf)
/// packs rows [i0, i0 + mc) of the left operand and pack_b(k0, kc, buf)
/// all n columns of the right one.
template <typename PackA, typename PackB>
void rect_rank_k(std::size_t kk, const MatrixView& c, Beta beta,
                 PackA&& pack_a, PackB&& pack_b) {
  const std::size_t m = c.rows(), n = c.cols();
  if (m == 0 || n == 0) return;
  if (kk == 0) {
    if (beta == Beta::kZero) c.fill(0.0);
    return;
  }
  const auto uk = kern::active_ukernel().fn;
  kern::KernelArena& arena = kern::KernelArena::current();
  const std::size_t nsb = strips_of(n);
  ScratchTile t;
  for (std::size_t k0 = 0; k0 < kk; k0 += kKC) {
    const std::size_t kc = std::min(kKC, kk - k0);
    const TileOp op = block_op(beta, k0);
    double* bbuf = arena.buffer(kern::KernelArena::kSlotPackB,
                                kern::packed_panel_doubles(n, kc));
    pack_b(k0, kc, bbuf);
    for (std::size_t i0 = 0; i0 < m; i0 += kMC) {
      const std::size_t mc = std::min(kMC, m - i0);
      double* abuf = arena.buffer(kern::KernelArena::kSlotPackA,
                                  kern::packed_panel_doubles(mc, kc));
      pack_a(i0, mc, k0, kc, abuf);
      for (std::size_t ir = 0; ir < strips_of(mc); ++ir) {
        const std::size_t ib = i0 + ir * kMR;
        row_strip(uk, kc, abuf + ir * kMR * kc, bbuf, nsb, n, DenseRows{c},
                  ib, std::min(kMR, m - ib), op, t);
      }
    }
  }
}

/// Mirrors lower-triangle entries of rows [i_first, i_end) of square `c`
/// onto the upper triangle, tile by tile, so neither side is walked
/// column-strided beyond one tile. Row i_first holds columns >= j_first,
/// row i_end − 1 holds columns < j_end, and the rows between are whole.
void mirror_lower_rows(const MatrixView& c, std::size_t i_first,
                       std::size_t j_first, std::size_t i_end,
                       std::size_t j_end) {
  for (std::size_t i0 = i_first; i0 < i_end; i0 += kTransposeTile) {
    const std::size_t im = std::min(i0 + kTransposeTile, i_end);
    // Row j of the upper triangle takes column j (j < i) of the lower one.
    for (std::size_t j0 = 0; j0 + 1 < im; j0 += kTransposeTile) {
      const std::size_t jm = std::min(j0 + kTransposeTile, im - 1);
      for (std::size_t j = j0; j < jm; ++j) {
        // Column j meets the partial first and last rows only on their
        // side of the cut.
        const std::size_t lo =
            std::max({i0, j + 1, j >= j_first ? i_first : i_first + 1});
        const std::size_t hi = std::min(im, j < j_end ? i_end : i_end - 1);
        double* urow = c.data() + j * c.ld();
        const double* lcol = c.data() + j;
        for (std::size_t i = lo; i < hi; ++i) urow[i] = lcol[i * c.ld()];
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Naive oracles (unchanged)
// ---------------------------------------------------------------------------

void gemm_nt_naive(const ConstMatrixView& a, const ConstMatrixView& b,
                   const MatrixView& c) {
  PARSYRK_CHECK(a.rows() == c.rows() && b.rows() == c.cols() &&
                a.cols() == b.cols());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) += acc;
    }
  }
}

void syrk_lower_naive(const ConstMatrixView& a, const MatrixView& c) {
  PARSYRK_CHECK(c.rows() == c.cols() && a.rows() == c.rows());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * a(j, k);
      c(i, j) += acc;
    }
  }
}

void syr2k_lower_naive(const ConstMatrixView& a, const ConstMatrixView& b,
                       const MatrixView& c) {
  PARSYRK_CHECK(c.rows() == c.cols() && a.rows() == c.rows() &&
                b.rows() == a.rows() && b.cols() == a.cols());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(j, k) + b(i, k) * a(j, k);
      }
      c(i, j) += acc;
    }
  }
}

void symm_lower_left_naive(const ConstMatrixView& s_lower,
                           const ConstMatrixView& b, const MatrixView& c) {
  PARSYRK_CHECK(s_lower.rows() == s_lower.cols() &&
                b.rows() == s_lower.rows() && c.rows() == s_lower.rows() &&
                c.cols() == b.cols());
  const std::size_t n = s_lower.rows(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double s = j <= i ? s_lower(i, j) : s_lower(j, i);
      const double* brow = b.data() + j * b.ld();
      double* crow = c.data() + i * c.ld();
      for (std::size_t t = 0; t < m; ++t) crow[t] += s * brow[t];
    }
  }
}

// ---------------------------------------------------------------------------
// Packed micro-kernel engine
// ---------------------------------------------------------------------------

void gemm_nt(const ConstMatrixView& a, const ConstMatrixView& b,
             const MatrixView& c, Beta beta) {
  PARSYRK_CHECK(a.rows() == c.rows() && b.rows() == c.cols() &&
                a.cols() == b.cols());
  rect_rank_k(
      a.cols(), c, beta,
      [&](std::size_t i0, std::size_t mc, std::size_t k0, std::size_t kc,
          double* buf) { kern::pack_rows(a, i0, mc, k0, kc, buf); },
      [&](std::size_t k0, std::size_t kc, double* buf) {
        kern::pack_rows(b, 0, b.rows(), k0, kc, buf);
      });
}

void syrk_lower(const ConstMatrixView& a, const MatrixView& c, Beta beta) {
  PARSYRK_CHECK(c.rows() == c.cols() && a.rows() == c.rows());
  lower_rank_k(a, nullptr, DenseRows{c}, beta);
}

void syrk_lower_packed(const ConstMatrixView& a, std::span<double> c,
                       Beta beta) {
  PARSYRK_CHECK(c.size() == PackedLower::packed_size(a.rows()));
  lower_rank_k(a, nullptr, PackedRows{c.data()}, beta);
}

void syr2k_lower(const ConstMatrixView& a, const ConstMatrixView& b,
                 const MatrixView& c, Beta beta) {
  PARSYRK_CHECK(c.rows() == c.cols() && a.rows() == c.rows() &&
                b.rows() == a.rows() && b.cols() == a.cols());
  lower_rank_k(a, &b, DenseRows{c}, beta);
}

void syr2k_lower_packed(const ConstMatrixView& a, const ConstMatrixView& b,
                        std::span<double> c, Beta beta) {
  PARSYRK_CHECK(b.rows() == a.rows() && b.cols() == a.cols() &&
                c.size() == PackedLower::packed_size(a.rows()));
  lower_rank_k(a, &b, PackedRows{c.data()}, beta);
}

void symm_lower_left(const ConstMatrixView& s_lower, const ConstMatrixView& b,
                     const MatrixView& c, Beta beta) {
  PARSYRK_CHECK(s_lower.rows() == s_lower.cols() &&
                b.rows() == s_lower.rows() && c.rows() == s_lower.rows() &&
                c.cols() == b.cols());
  // The reduction runs over the columns of S.
  rect_rank_k(
      s_lower.cols(), c, beta,
      [&](std::size_t i0, std::size_t mc, std::size_t k0, std::size_t kc,
          double* buf) {
        kern::pack_rows_symm(s_lower, i0, mc, k0, kc, buf);
      },
      [&](std::size_t k0, std::size_t kc, double* buf) {
        kern::pack_cols(b, 0, b.cols(), k0, kc, buf);
      });
}

// ---------------------------------------------------------------------------
// Oracles and utilities
// ---------------------------------------------------------------------------

Matrix syr2k_reference(const ConstMatrixView& a, const ConstMatrixView& b) {
  Matrix c(a.rows(), a.rows());
  syr2k_lower_naive(a, b, c.view());
  symmetrize_from_lower(c.view());
  return c;
}

Matrix symm_reference(const ConstMatrixView& s_lower,
                      const ConstMatrixView& b) {
  Matrix c(b.rows(), b.cols());
  symm_lower_left_naive(s_lower, b, c.view());
  return c;
}

Matrix syrk_reference(const ConstMatrixView& a) {
  Matrix c(a.rows(), a.rows());
  syrk_lower_naive(a, c.view());
  symmetrize_from_lower(c.view());
  return c;
}

Matrix transpose(const ConstMatrixView& a) {
  Matrix t = Matrix::uninitialized(a.cols(), a.rows());
  transpose_into(a, t.view());
  return t;
}

void transpose_into(const ConstMatrixView& a, const MatrixView& t) {
  PARSYRK_CHECK(t.rows() == a.cols() && t.cols() == a.rows());
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += kTransposeTile) {
    const std::size_t im = std::min(i0 + kTransposeTile, m);
    for (std::size_t j0 = 0; j0 < n; j0 += kTransposeTile) {
      const std::size_t jm = std::min(j0 + kTransposeTile, n);
      for (std::size_t j = j0; j < jm; ++j) {
        double* trow = t.data() + j * t.ld();
        const double* acol = a.data() + j;
        for (std::size_t i = i0; i < im; ++i) trow[i] = acol[i * a.ld()];
      }
    }
  }
}

void symmetrize_from_lower(const MatrixView& c) {
  PARSYRK_CHECK(c.rows() == c.cols());
  const std::size_t n = c.rows();
  mirror_lower_rows(c, 0, 0, n, n);
}

void assemble_packed_range(std::span<const double> chunk, std::size_t offset,
                           const MatrixView& c) {
  if (chunk.empty()) return;
  PARSYRK_CHECK(c.rows() == c.cols() &&
                offset + chunk.size() <= PackedLower::packed_size(c.rows()));
  // Invert the packed index offset = i(i+1)/2 + j once.
  auto i = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(offset) + 1.0) - 1.0) / 2.0);
  while (PackedLower::packed_size(i) > offset) --i;
  while (PackedLower::packed_size(i + 1) <= offset) ++i;
  const std::size_t i_first = i;
  const std::size_t j_first = offset - PackedLower::packed_size(i);
  // Row by row into the lower triangle; the loop leaves i one past the last
  // row and j_end one past that row's last column.
  std::size_t j = j_first, j_end = j_first, t = 0;
  for (; t < chunk.size(); ++i, j = 0) {
    const std::size_t len = std::min(i + 1 - j, chunk.size() - t);
    std::copy_n(chunk.data() + t, len, c.data() + i * c.ld() + j);
    t += len;
    j_end = j + len;
  }
  mirror_lower_rows(c, i_first, j_first, i, j_end);
}

double max_abs_diff(const ConstMatrixView& a, const ConstMatrixView& b) {
  PARSYRK_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

double max_abs_diff_lower(const ConstMatrixView& a, const ConstMatrixView& b) {
  PARSYRK_CHECK(a.rows() == b.rows() && a.cols() == b.cols() &&
                a.rows() == a.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

double frobenius_norm(const ConstMatrixView& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * a(i, j);
  }
  return std::sqrt(s);
}

}  // namespace parsyrk
