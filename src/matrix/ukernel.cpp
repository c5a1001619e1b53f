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
// k step), `b` is kc blocks of kNR doubles. `acc` is a kMR x kNR row-major
// accumulator the caller owns; every tier adds into it, so SYR2K can chain
// two products into one tile.

// Portable body, written so the autovectorizer turns the j-loop into
// full-width multiply-adds without spilling accumulators: the 8x8 tile is
// processed as four 2x8 sub-tiles, each with its own k loop. 16 live
// accumulator doubles fit the baseline SSE2 register file (8 xmm) with room
// for the b row and broadcasts.
void ukernel_f64_generic(std::size_t kc, const double* __restrict__ a,
                         const double* __restrict__ b,
                         double* __restrict__ acc) {
  for (std::size_t i0 = 0; i0 < kMR; i0 += 2) {
    double c0[kNR], c1[kNR];
    for (std::size_t j = 0; j < kNR; ++j) {
      c0[j] = acc[i0 * kNR + j];
      c1[j] = acc[(i0 + 1) * kNR + j];
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
    for (std::size_t j = 0; j < kNR; ++j) {
      acc[i0 * kNR + j] = c0[j];
      acc[(i0 + 1) * kNR + j] = c1[j];
    }
  }
}

#if defined(__x86_64__)

// The SIMD tiers are written with intrinsics: GCC's autovectorizer spills
// the 8x8 accumulator block of the portable body to the stack, which caps
// it near the blocked kernels. The explicit forms keep all eight
// accumulator rows in registers for the whole k loop. Each carries its ISA
// as a function target, so the translation unit keeps the baseline flags
// and the body runs only after host_ukernels() has checked the CPU.

// 8 zmm accumulator rows; each k step is one b-row load plus eight FMAs with
// an embedded broadcast of a[k*8+i] — FMA-throughput bound.
__attribute__((target("avx512f"))) void ukernel_f64_avx512(
    std::size_t kc, const double* __restrict__ a,
    const double* __restrict__ b, double* __restrict__ acc) {
  static_assert(kMR == 8 && kNR == 8);
  __m512d c0 = _mm512_loadu_pd(acc + 0 * 8);
  __m512d c1 = _mm512_loadu_pd(acc + 1 * 8);
  __m512d c2 = _mm512_loadu_pd(acc + 2 * 8);
  __m512d c3 = _mm512_loadu_pd(acc + 3 * 8);
  __m512d c4 = _mm512_loadu_pd(acc + 4 * 8);
  __m512d c5 = _mm512_loadu_pd(acc + 5 * 8);
  __m512d c6 = _mm512_loadu_pd(acc + 6 * 8);
  __m512d c7 = _mm512_loadu_pd(acc + 7 * 8);
  for (std::size_t k = 0; k < kc; ++k) {
    const __m512d bv = _mm512_loadu_pd(b + k * 8);
    const double* ak = a + k * 8;
    c0 = _mm512_fmadd_pd(_mm512_set1_pd(ak[0]), bv, c0);
    c1 = _mm512_fmadd_pd(_mm512_set1_pd(ak[1]), bv, c1);
    c2 = _mm512_fmadd_pd(_mm512_set1_pd(ak[2]), bv, c2);
    c3 = _mm512_fmadd_pd(_mm512_set1_pd(ak[3]), bv, c3);
    c4 = _mm512_fmadd_pd(_mm512_set1_pd(ak[4]), bv, c4);
    c5 = _mm512_fmadd_pd(_mm512_set1_pd(ak[5]), bv, c5);
    c6 = _mm512_fmadd_pd(_mm512_set1_pd(ak[6]), bv, c6);
    c7 = _mm512_fmadd_pd(_mm512_set1_pd(ak[7]), bv, c7);
  }
  _mm512_storeu_pd(acc + 0 * 8, c0);
  _mm512_storeu_pd(acc + 1 * 8, c1);
  _mm512_storeu_pd(acc + 2 * 8, c2);
  _mm512_storeu_pd(acc + 3 * 8, c3);
  _mm512_storeu_pd(acc + 4 * 8, c4);
  _mm512_storeu_pd(acc + 5 * 8, c5);
  _mm512_storeu_pd(acc + 6 * 8, c6);
  _mm512_storeu_pd(acc + 7 * 8, c7);
}

// Two passes of 4 rows x 8 cols: 8 ymm accumulators + 2 b vectors + 1
// broadcast stay inside the 16 ymm registers.
__attribute__((target("avx2,fma"))) void ukernel_f64_avx2(
    std::size_t kc, const double* __restrict__ a,
    const double* __restrict__ b, double* __restrict__ acc) {
  static_assert(kMR == 8 && kNR == 8);
  for (std::size_t half = 0; half < 2; ++half) {
    const double* arow = a + half * 4;
    double* crow = acc + half * 4 * 8;
    __m256d c00 = _mm256_loadu_pd(crow + 0), c01 = _mm256_loadu_pd(crow + 4);
    __m256d c10 = _mm256_loadu_pd(crow + 8), c11 = _mm256_loadu_pd(crow + 12);
    __m256d c20 = _mm256_loadu_pd(crow + 16), c21 = _mm256_loadu_pd(crow + 20);
    __m256d c30 = _mm256_loadu_pd(crow + 24), c31 = _mm256_loadu_pd(crow + 28);
    for (std::size_t k = 0; k < kc; ++k) {
      const __m256d b0 = _mm256_loadu_pd(b + k * 8);
      const __m256d b1 = _mm256_loadu_pd(b + k * 8 + 4);
      const double* ak = arow + k * 8;
      __m256d ai = _mm256_set1_pd(ak[0]);
      c00 = _mm256_fmadd_pd(ai, b0, c00);
      c01 = _mm256_fmadd_pd(ai, b1, c01);
      ai = _mm256_set1_pd(ak[1]);
      c10 = _mm256_fmadd_pd(ai, b0, c10);
      c11 = _mm256_fmadd_pd(ai, b1, c11);
      ai = _mm256_set1_pd(ak[2]);
      c20 = _mm256_fmadd_pd(ai, b0, c20);
      c21 = _mm256_fmadd_pd(ai, b1, c21);
      ai = _mm256_set1_pd(ak[3]);
      c30 = _mm256_fmadd_pd(ai, b0, c30);
      c31 = _mm256_fmadd_pd(ai, b1, c31);
    }
    _mm256_storeu_pd(crow + 0, c00);
    _mm256_storeu_pd(crow + 4, c01);
    _mm256_storeu_pd(crow + 8, c10);
    _mm256_storeu_pd(crow + 12, c11);
    _mm256_storeu_pd(crow + 16, c20);
    _mm256_storeu_pd(crow + 20, c21);
    _mm256_storeu_pd(crow + 24, c30);
    _mm256_storeu_pd(crow + 28, c31);
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
