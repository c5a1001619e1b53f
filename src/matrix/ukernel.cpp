#include "matrix/ukernel.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "support/check.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace parsyrk::kern {

namespace {

// Operands are packed (pack.hpp): `a` is kc blocks of kMR doubles (one per
// k step), and `b` is kc blocks of kNR doubles. Every tier runs one chain
// per C entry over k in order.

/// Writes one row of kNR chain sums into C as `op` says; kStore never
/// reads `dst`.
void write_row(TileOp op, double* dst, const double* sum) {
  switch (op) {
    case TileOp::kStore:
      for (std::size_t j = 0; j < kNR; ++j) dst[j] = 0.0 + sum[j];
      return;
    case TileOp::kAdd:
      for (std::size_t j = 0; j < kNR; ++j) dst[j] += sum[j];
      return;
    case TileOp::kChain:
      for (std::size_t j = 0; j < kNR; ++j) dst[j] = sum[j];
      return;
  }
}

// Portable body, written so the autovectorizer turns the j-loop into
// full-width multiply-adds without spilling accumulators: the 8x8 tile is
// processed as four 2x8 sub-tiles, each with its own k loop. 16 live
// accumulator doubles fit the baseline SSE2 register file (8 xmm) with room
// for the b row and broadcasts.
void ukernel_f64_generic(std::size_t kc, const double* __restrict__ a,
                         const double* __restrict__ b, double* const* c,
                         TileOp op) {
  for (std::size_t i0 = 0; i0 < kMR; i0 += 2) {
    double* r0 = c[i0];
    double* r1 = c[i0 + 1];
    double c0[kNR], c1[kNR];
    for (std::size_t j = 0; j < kNR; ++j) {
      c0[j] = op == TileOp::kChain ? r0[j] : 0.0;
      c1[j] = op == TileOp::kChain ? r1[j] : 0.0;
    }
    for (std::size_t k = 0; k < kc; ++k) {
      const double* __restrict__ bk = b + k * kNR;
      const double a0 = a[k * kMR + i0];
      const double a1 = a[k * kMR + i0 + 1];
      for (std::size_t j = 0; j < kNR; ++j) {
        c0[j] += a0 * bk[j];
        c1[j] += a1 * bk[j];
      }
    }
    write_row(op, r0, c0);
    write_row(op, r1, c1);
  }
}

#if defined(__x86_64__)

// The SIMD tiers are written with intrinsics: GCC's autovectorizer spills
// the 8x8 accumulator block of the portable body to the stack, which caps
// it near the blocked kernels. The explicit forms keep every accumulator
// row in registers for the whole k loop. Each carries its ISA as a function
// target, so the translation unit keeps the baseline flags and the body
// runs only after host_ukernels() has checked the CPU.

// 8 zmm accumulator rows; each k step is one b-row load plus eight FMAs
// with a broadcast of a[k*8+i] — FMA-throughput bound.
__attribute__((target("avx512f"))) void ukernel_f64_avx512(
    std::size_t kc, const double* __restrict__ a,
    const double* __restrict__ b, double* const* c, TileOp op) {
  static_assert(kMR == 8 && kNR == 8);
  __m512d acc[kMR];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kMR; ++i) {
    acc[i] = op == TileOp::kChain ? _mm512_loadu_pd(c[i])
                                  : _mm512_setzero_pd();
  }
  for (std::size_t k = 0; k < kc; ++k) {
    const __m512d bv = _mm512_loadu_pd(b + k * kNR);
    const double* ak = a + k * kMR;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMR; ++i) {
      acc[i] = _mm512_fmadd_pd(_mm512_set1_pd(ak[i]), bv, acc[i]);
    }
  }
  const __m512d zero = _mm512_setzero_pd();
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kMR; ++i) {
    switch (op) {
      case TileOp::kStore:
        _mm512_storeu_pd(c[i], _mm512_add_pd(zero, acc[i]));
        break;
      case TileOp::kAdd:
        _mm512_storeu_pd(c[i], _mm512_add_pd(_mm512_loadu_pd(c[i]), acc[i]));
        break;
      case TileOp::kChain:
        _mm512_storeu_pd(c[i], acc[i]);
        break;
    }
  }
}

// Two passes of 4 rows x 8 cols: 8 ymm accumulators + 2 b vectors + 1
// broadcast stay inside the 16 ymm registers.
__attribute__((target("avx2,fma"))) void ukernel_f64_avx2(
    std::size_t kc, const double* __restrict__ a,
    const double* __restrict__ b, double* const* c, TileOp op) {
  static_assert(kMR == 8 && kNR == 8);
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t half = 0; half < 2; ++half) {
    const double* arow = a + half * 4;
    double* const* crow = c + half * 4;
    __m256d acc[4][2];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t h = 0; h < 2; ++h) {
        acc[i][h] =
            op == TileOp::kChain ? _mm256_loadu_pd(crow[i] + h * 4) : zero;
      }
    }
    for (std::size_t k = 0; k < kc; ++k) {
      const __m256d b0 = _mm256_loadu_pd(b + k * 8);
      const __m256d b1 = _mm256_loadu_pd(b + k * 8 + 4);
      const double* ak = arow + k * 8;
#pragma GCC unroll 4
      for (std::size_t i = 0; i < 4; ++i) {
        const __m256d ai = _mm256_set1_pd(ak[i]);
        acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t h = 0; h < 2; ++h) {
        double* dst = crow[i] + h * 4;
        switch (op) {
          case TileOp::kStore:
            _mm256_storeu_pd(dst, _mm256_add_pd(zero, acc[i][h]));
            break;
          case TileOp::kAdd:
            _mm256_storeu_pd(dst,
                             _mm256_add_pd(_mm256_loadu_pd(dst), acc[i][h]));
            break;
          case TileOp::kChain:
            _mm256_storeu_pd(dst, acc[i][h]);
            break;
        }
      }
    }
  }
}

#endif  // __x86_64__

std::vector<Ukernel> detect_host_ukernels() {
  std::vector<Ukernel> tiers;
#if defined(__x86_64__)
  // libgcc's probe also checks that the OS saves the wider register state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    tiers.push_back({&ukernel_f64_avx512, "avx512"});
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    tiers.push_back({&ukernel_f64_avx2, "avx2"});
  }
#endif
  tiers.push_back({&ukernel_f64_generic, "generic"});
  return tiers;
}

}  // namespace

std::span<const Ukernel> host_ukernels() {
  static const std::vector<Ukernel> tiers = detect_host_ukernels();
  return tiers;
}

const Ukernel& select_ukernel(const char* override_name,
                              std::span<const Ukernel> tiers) {
  PARSYRK_CHECK(!tiers.empty());
  if (override_name == nullptr || *override_name == '\0') return tiers.front();
  const std::string want = override_name;
  std::string listed;
  for (const Ukernel& t : tiers) {
    if (want == t.name) return t;
    listed += listed.empty() ? "" : ", ";
    listed += t.name;
  }
  throw InvalidArgument(strcat_all("parsyrk: PARSYRK_UKERNEL='", want,
                                   "' is not a micro-kernel tier this host "
                                   "supports (supported: ",
                                   listed, ")"));
}

const Ukernel& active_ukernel() {
  static const Ukernel& chosen =
      select_ukernel(std::getenv("PARSYRK_UKERNEL"), host_ukernels());
  return chosen;
}

}  // namespace parsyrk::kern
