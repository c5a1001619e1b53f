// Packed micro-kernel engine tests: every engine kernel against its naive
// oracle over adversarial shapes (empty, single row, one lane short of /
// past a micro-tile, non-tile-multiples, strided views), strict-upper
// preservation for the triangular kernels, packed-store twins bitwise
// against the dense stores, every micro-kernel tier the host can run
// against the naive sum through every tile op, Beta::kZero against
// zero-fill-then-add, tier selection, the arena reuse guarantees the
// worker pool relies on, the per-worker send slot, and the one-block store
// that hands a dropped result's storage to the next request of its size.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "core/session.hpp"
#include "matrix/arena.hpp"
#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "matrix/random.hpp"
#include "matrix/ukernel.hpp"
#include "simmpi/worker_pool.hpp"

namespace parsyrk {
namespace {

using kern::kMR;
using kern::kNR;

constexpr double kTol = 1e-11;

// Shapes around every blocking boundary: micro-tile (8), kMC (512) is too
// slow to sweep, but kKC boundaries are covered by the k values.
const std::vector<std::size_t> kEdgeDims = {0, 1, kMR - 1, kMR, kMR + 1,
                                            17, 64, 100};
const std::vector<std::size_t> kEdgeK = {0, 1, kMR - 1, kMR + 1, 40, 257};

/// Sentinel matrix whose strict upper triangle must survive a lower-only
/// kernel untouched.
Matrix upper_sentinel(std::size_t n) {
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) c(i, j) = 1e100 + double(i * n + j);
  }
  return c;
}

/// The packed-store twin, run into a zeroed buffer, must hold bitwise the
/// lower triangle the dense kernel left in a zeroed C.
void expect_packed_equals_dense_lower(const std::vector<double>& packed,
                                      const Matrix& dense) {
  const std::size_t n = dense.rows();
  ASSERT_EQ(packed.size(), n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(packed[i * (i + 1) / 2 + j], dense(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

/// Beta::kZero into a NaN-filled output must write bitwise what zero-fill
/// followed by Beta::kOne writes, over rows × cols, or over the lower
/// triangle when `lower` (whose strict upper must keep its NaNs).
template <typename Kernel>
void expect_beta_zero_is_fill_then_add(std::size_t rows, std::size_t cols,
                                       bool lower, Kernel&& kernel) {
  Matrix want(rows, cols);
  kernel(want.view(), Beta::kOne);
  Matrix got(rows, cols, std::numeric_limits<double>::quiet_NaN());
  kernel(got.view(), Beta::kZero);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t n = lower ? std::min(cols, i + 1) : cols;
    ASSERT_TRUE(n == 0 || std::memcmp(got.data() + i * got.ld(),
                                      want.data() + i * want.ld(),
                                      n * sizeof(double)) == 0)
        << "row " << i << " of " << rows << "x" << cols;
    for (std::size_t j = n; j < cols; ++j) {
      ASSERT_TRUE(std::isnan(got(i, j))) << "strict upper (" << i << "," << j
                                         << ") was written";
    }
  }
}

/// The same for a packed-lower kernel over an n-row triangle.
template <typename Kernel>
void expect_packed_beta_zero_is_fill_then_add(std::size_t n,
                                              Kernel&& kernel) {
  std::vector<double> want(n * (n + 1) / 2, 0.0);
  kernel(std::span<double>(want), Beta::kOne);
  std::vector<double> got(want.size(),
                          std::numeric_limits<double>::quiet_NaN());
  kernel(std::span<double>(got), Beta::kZero);
  ASSERT_TRUE(want.empty() || std::memcmp(got.data(), want.data(),
                                          want.size() * sizeof(double)) == 0)
      << "packed n=" << n;
}

void expect_upper_untouched(const Matrix& c) {
  const std::size_t n = c.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_DOUBLE_EQ(c(i, j), 1e100 + double(i * n + j))
          << "strict upper (" << i << "," << j << ") was written";
    }
  }
}

TEST(PackedGemmNt, MatchesNaiveOnEdgeShapes) {
  for (std::size_t m : kEdgeDims) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, kMR - 1, kMR + 1,
                          std::size_t{33}}) {
      for (std::size_t k : kEdgeK) {
        Matrix a = random_matrix(m, k, 1000 + m + n + k);
        Matrix b = random_matrix(n, k, 2000 + m + n + k);
        Matrix got(m, n), want(m, n);
        gemm_nt(a.view(), b.view(), got.view());
        gemm_nt_naive(a.view(), b.view(), want.view());
        ASSERT_LT(max_abs_diff(got.view(), want.view()), kTol)
            << "m=" << m << " n=" << n << " k=" << k;
        expect_beta_zero_is_fill_then_add(
            m, n, false, [&](const MatrixView& c, Beta beta) {
              gemm_nt(a.view(), b.view(), c, beta);
            });
      }
    }
  }
}

TEST(PackedGemmNt, AccumulatesIntoExistingC) {
  Matrix a = random_matrix(20, 13, 7);
  Matrix b = random_matrix(11, 13, 8);
  Matrix got = random_matrix(20, 11, 9);
  Matrix want = got;  // logical copy
  gemm_nt(a.view(), b.view(), got.view());
  gemm_nt_naive(a.view(), b.view(), want.view());
  EXPECT_LT(max_abs_diff(got.view(), want.view()), kTol);
}

TEST(PackedGemmNt, WorksOnStridedBlockViews) {
  // Operand and result views carved out of larger matrices: ld > cols on
  // every operand.
  Matrix big_a = random_matrix(40, 50, 11);
  Matrix big_b = random_matrix(30, 50, 12);
  Matrix big_c(45, 45), big_c_want(45, 45);
  auto a = big_a.view().block(3, 5, 21, 19);
  auto b = big_b.view().block(2, 5, 10, 19);
  gemm_nt(a, b, big_c.block(1, 2, 21, 10));
  gemm_nt_naive(a, b, big_c_want.block(1, 2, 21, 10));
  EXPECT_LT(max_abs_diff(big_c.view(), big_c_want.view()), kTol);
}

TEST(PackedSyrkLower, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t k : kEdgeK) {
      Matrix a = random_matrix(n, k, 3000 + n + k);
      Matrix got(n, n), want(n, n);
      syrk_lower(a.view(), got.view());
      syrk_lower_naive(a.view(), want.view());
      ASSERT_LT(max_abs_diff_lower(got.view(), want.view()), kTol)
          << "n=" << n << " k=" << k;
      std::vector<double> packed(n * (n + 1) / 2, 0.0);
      syrk_lower_packed(a.view(), packed);
      expect_packed_equals_dense_lower(packed, got);
      expect_beta_zero_is_fill_then_add(
          n, n, true, [&](const MatrixView& c, Beta beta) {
            syrk_lower(a.view(), c, beta);
          });
      expect_packed_beta_zero_is_fill_then_add(
          n, [&](std::span<double> c, Beta beta) {
            syrk_lower_packed(a.view(), c, beta);
          });
    }
  }
}

TEST(PackedSyrkLower, PreservesStrictUpperTriangle) {
  for (std::size_t n : {kMR - 1, kMR + 1, std::size_t{65}}) {
    Matrix a = random_matrix(n, 33, 41);
    Matrix c = upper_sentinel(n);
    syrk_lower(a.view(), c.view());
    expect_upper_untouched(c);
  }
}

TEST(PackedSyr2kLower, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t k : kEdgeK) {
      Matrix a = random_matrix(n, k, 4000 + n + k);
      Matrix b = random_matrix(n, k, 5000 + n + k);
      Matrix got(n, n), want(n, n);
      syr2k_lower(a.view(), b.view(), got.view());
      syr2k_lower_naive(a.view(), b.view(), want.view());
      ASSERT_LT(max_abs_diff_lower(got.view(), want.view()), kTol)
          << "n=" << n << " k=" << k;
      std::vector<double> packed(n * (n + 1) / 2, 0.0);
      syr2k_lower_packed(a.view(), b.view(), packed);
      expect_packed_equals_dense_lower(packed, got);
      expect_beta_zero_is_fill_then_add(
          n, n, true, [&](const MatrixView& c, Beta beta) {
            syr2k_lower(a.view(), b.view(), c, beta);
          });
      expect_packed_beta_zero_is_fill_then_add(
          n, [&](std::span<double> c, Beta beta) {
            syr2k_lower_packed(a.view(), b.view(), c, beta);
          });
    }
  }
}

TEST(PackedSyr2kLower, PreservesStrictUpperTriangle) {
  Matrix a = random_matrix(43, 19, 42);
  Matrix b = random_matrix(43, 19, 43);
  Matrix c = upper_sentinel(43);
  syr2k_lower(a.view(), b.view(), c.view());
  expect_upper_untouched(c);
}

TEST(PackedSymmLowerLeft, MatchesNaiveOnEdgeShapes) {
  for (std::size_t n : kEdgeDims) {
    for (std::size_t m : {std::size_t{0}, std::size_t{1}, kNR - 1, kNR + 1,
                          std::size_t{29}}) {
      Matrix s = random_matrix(n, n, 6000 + n + m);
      Matrix b = random_matrix(n, m, 7000 + n + m);
      Matrix got(n, m), want(n, m);
      symm_lower_left(s.view(), b.view(), got.view());
      symm_lower_left_naive(s.view(), b.view(), want.view());
      ASSERT_LT(max_abs_diff(got.view(), want.view()), kTol)
          << "n=" << n << " m=" << m;
      expect_beta_zero_is_fill_then_add(
          n, m, false, [&](const MatrixView& c, Beta beta) {
            symm_lower_left(s.view(), b.view(), c, beta);
          });
    }
  }
}

TEST(PackedSymmLowerLeft, NeverReadsStrictUpperOfS) {
  // Poison the strict upper triangle: the result must be unaffected because
  // pack_rows_symm reflects across the diagonal instead of reading it.
  const std::size_t n = 37, m = 21;
  Matrix s = random_matrix(n, n, 51);
  Matrix poisoned = s;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) poisoned(i, j) = 1e300;
  }
  Matrix b = random_matrix(n, m, 52);
  Matrix got(n, m), want(n, m);
  symm_lower_left(poisoned.view(), b.view(), got.view());
  symm_lower_left_naive(s.view(), b.view(), want.view());
  EXPECT_LT(max_abs_diff(got.view(), want.view()), kTol);
}

TEST(PackedSyrkLower, NegativeZeroSumReadsPositiveZeroUnderBetaZero) {
  // Products of ±1e-200 underflow, and an FMA chain from +0.0 rounds a
  // negative one to −0.0. Beta::kZero writes 0.0 + sum, +0.0 as a
  // zero-filled C gives, on the register path (whole strips), the scratch
  // path (the edge strip and row) and the diagonal tiles.
  ASSERT_TRUE(std::signbit(std::fma(1e-200, -1e-200, 0.0)));
  const std::size_t n = 4 * kMR + 1;
  Matrix a(n, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, 0) = i % 2 ? -1e-200 : 1e-200;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix g(n, n, nan), s(n, n, nan);
  gemm_nt(a.view(), a.view(), g.view(), Beta::kZero);
  syrk_lower(a.view(), s.view(), Beta::kZero);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_TRUE(g(i, j) == 0.0 && !std::signbit(g(i, j)))
          << "gemm_nt (" << i << "," << j << ") = " << g(i, j);
      if (j <= i) {
        ASSERT_TRUE(s(i, j) == 0.0 && !std::signbit(s(i, j)))
            << "syrk_lower (" << i << "," << j << ") = " << s(i, j);
      }
    }
  }
}

TEST(Ukernel, EveryHostTierMatchesOracle) {
  // Each tier the host can run, through every tile op, on random panels
  // across the kKC boundary. C's rows sit further apart than the tile is
  // wide, so a write past a row's tile shows.
  const auto tiers = kern::host_ukernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back().name, "generic");
#if defined(__x86_64__)
  // The list follows the CPU: AVX-512 first when present, then AVX2+FMA.
  std::vector<std::string> want_names;
  if (__builtin_cpu_supports("avx512f")) want_names.push_back("avx512");
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    want_names.push_back("avx2");
  }
  want_names.push_back("generic");
  ASSERT_EQ(tiers.size(), want_names.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    EXPECT_EQ(tiers[t].name, want_names[t]);
  }
#endif
  const std::size_t kcs[] = {0, 1, 7, 9, 57, 256, 257};
  const kern::TileOp ops[] = {kern::TileOp::kStore, kern::TileOp::kAdd,
                              kern::TileOp::kChain};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const kern::Ukernel& tier : tiers) {
    for (std::size_t kc : kcs) {
      for (kern::TileOp op : ops) {
        const std::size_t ld = kNR + 3;
        std::vector<double> a(kMR * kc), b(kNR * kc);
        Rng rng(100 + kc);
        for (auto& v : a) v = rng.uniform(-1, 1);
        for (auto& v : b) v = rng.uniform(-1, 1);
        // kStore must not read C: its start is NaN.
        std::vector<double> c(kMR * ld);
        for (auto& v : c) {
          v = op == kern::TileOp::kStore ? nan : rng.uniform(-1, 1);
        }
        const std::vector<double> start = c;
        double* rows[kMR];
        for (std::size_t i = 0; i < kMR; ++i) rows[i] = c.data() + i * ld;
        tier.fn(kc, a.data(), b.data(), rows, op);
        for (std::size_t i = 0; i < kMR; ++i) {
          for (std::size_t j = 0; j < ld; ++j) {
            const double got = c[i * ld + j];
            if (j >= kNR) {
              ASSERT_EQ(std::memcmp(&got, &start[i * ld + j], sizeof got), 0)
                  << tier.name << " wrote past the tile at (" << i << ","
                  << j << ")";
              continue;
            }
            double want =
                op == kern::TileOp::kStore ? 0.0 : start[i * ld + j];
            for (std::size_t k = 0; k < kc; ++k) {
              want += a[k * kMR + i] * b[k * kNR + j];
            }
            ASSERT_NEAR(got, want, 1e-12)
                << tier.name << " kc=" << kc << " op=" << static_cast<int>(op)
                << " (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(Ukernel, SelectionFollowsOverrideAndHostTiers) {
  const auto tiers = kern::host_ukernels();
  // Unset (or empty) picks the fastest tier.
  EXPECT_EQ(&kern::select_ukernel(nullptr, tiers), &tiers.front());
  EXPECT_EQ(&kern::select_ukernel("", tiers), &tiers.front());
  // Every host tier selects itself by name.
  for (const kern::Ukernel& tier : tiers) {
    EXPECT_EQ(&kern::select_ukernel(tier.name, tiers), &tier) << tier.name;
  }
  // An unknown name throws, naming the value and the supported tiers.
  try {
    kern::select_ukernel("bogus", tiers);
    ADD_FAILURE() << "bogus tier name was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    for (const kern::Ukernel& tier : tiers) {
      EXPECT_NE(what.find(tier.name), std::string::npos) << what;
    }
  }
  // A real tier the host list lacks throws too: a generic-only host asked
  // for avx512.
  const auto generic_only = tiers.last(1);
  EXPECT_THROW(kern::select_ukernel("avx512", generic_only), InvalidArgument);
  EXPECT_THROW(kern::select_ukernel("avx2", generic_only), InvalidArgument);
  // This process made the same choice (ctest's per-tier runs set it).
  EXPECT_EQ(&kern::active_ukernel(),
            &kern::select_ukernel(std::getenv("PARSYRK_UKERNEL"), tiers));
}

TEST(PackBytes, CountsPanelTraffic) {
  kern::reset_pack_bytes();
  Matrix a = random_matrix(64, 64, 13);
  Matrix c(64, 64);
  syrk_lower(a.view(), c.view());
  // One 64-row panel packed once (symmetric reuse): 64*64 doubles.
  EXPECT_EQ(kern::pack_bytes(), 64u * 64u * sizeof(double));
  kern::reset_pack_bytes();
  Matrix b = random_matrix(64, 64, 14);
  syr2k_lower(a.view(), b.view(), c.view());
  // SYR2K packs both operands: twice the SYRK traffic.
  EXPECT_EQ(kern::pack_bytes(), 2u * 64u * 64u * sizeof(double));
}

TEST(KernelArena, WarmRepeatDoesNotReallocate) {
  kern::KernelArena arena;
  double* p1 = arena.buffer(kern::KernelArena::kSlotPackA, 1024);
  const auto grows_after_first = arena.grow_count();
  EXPECT_GE(grows_after_first, 1u);
  // Same-or-smaller requests are served from the existing buffer.
  double* p2 = arena.buffer(kern::KernelArena::kSlotPackA, 1024);
  double* p3 = arena.buffer(kern::KernelArena::kSlotPackA, 100);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, p3);
  EXPECT_EQ(arena.grow_count(), grows_after_first);
  // A bigger request grows once.
  arena.buffer(kern::KernelArena::kSlotPackA, 4096);
  EXPECT_EQ(arena.grow_count(), grows_after_first + 1);
  EXPECT_GE(arena.doubles_reserved(), 4096u);
}

TEST(KernelArena, BuffersAreAligned) {
  kern::KernelArena arena;
  for (int slot : {kern::KernelArena::kSlotPackA,
                   kern::KernelArena::kSlotPackB}) {
    double* p = arena.buffer(slot, 333);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kMatrixAlignment, 0u);
  }
}

TEST(KernelArena, PoolWorkersReuseArenasAcrossWarmJobs) {
  comm::WorkerPool pool;
  Matrix a = random_matrix(96, 96, 77);
  auto job = [&] {
    Matrix c(96, 96);
    syrk_lower(a.view(), c.view());
  };
  auto lease = pool.acquire(2);
  lease.dispatch(0, job);
  lease.dispatch(1, job);
  lease.wait();
  const auto grows_cold = pool.arena_grow_count();
  EXPECT_GE(grows_cold, 2u);  // each worker grew its pack slot once
  EXPECT_GT(pool.arena_doubles_reserved(), 0u);
  for (int round = 0; round < 3; ++round) {
    lease.dispatch(0, job);
    lease.dispatch(1, job);
    lease.wait();
  }
  // Warm same-shape jobs never touch the allocator.
  EXPECT_EQ(pool.arena_grow_count(), grows_cold);
}

// ---------------------------------------------------------------------------
// The send slot: reduce_scatter_owned's buffer, kept per worker
// ---------------------------------------------------------------------------

/// Requests that compute into the send slot before reducing: 1D blocking,
/// pipelined and Bruck (padded), 3D blocking and pipelined, on 12 ranks.
std::vector<core::SyrkRequest> send_slot_requests(const Matrix& a) {
  using core::ReduceKind;
  std::vector<core::SyrkRequest> reqs(5, core::SyrkRequest(a));
  reqs[0].use_1d();
  reqs[1].use_1d().with_pipeline(3);
  reqs[2].use_1d().with_reduce(ReduceKind::kBruck);
  reqs[3].use_3d(2, 2);
  reqs[4].use_3d(2, 2).with_pipeline(3);
  return reqs;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (x.cols() != 0 && std::memcmp(x.data() + i * x.ld(),
                                     y.data() + i * y.ld(),
                                     x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SendSlot, DirtySlotNeverLeaksIntoAResult) {
  // Every rank's slot first holds triangles of entries >= 1e200; the same
  // requests on ordinary inputs must then match fresh workers bitwise.
  Matrix huge = random_matrix(48, 24, 701);
  for (std::size_t i = 0; i < huge.rows(); ++i) {
    for (std::size_t j = 0; j < huge.cols(); ++j) {
      huge(i, j) = 1e101 * (2.0 + huge(i, j));
    }
  }
  const Matrix small = random_matrix(48, 24, 702);
  comm::WorkerPool warm_pool;
  core::Session warm(12, warm_pool);
  for (const auto& req : send_slot_requests(huge)) {
    const core::SyrkRun run = core::syrk(warm, req);
    ASSERT_GE(run.c(0, 0), 1e200);
  }
  const auto reqs = send_slot_requests(small);
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const core::SyrkRun got = core::syrk(warm, reqs[r]);
    comm::WorkerPool fresh_pool;
    core::Session fresh(12, fresh_pool);
    const core::SyrkRun want = core::syrk(fresh, reqs[r]);
    EXPECT_TRUE(bitwise_equal(got.c, want.c)) << "request " << r;
  }
}

TEST(SendSlot, WarmSameShapeRequestsDoNotGrowArenas) {
  const Matrix a = random_matrix(48, 24, 703);
  comm::WorkerPool pool;
  core::Session session(12, pool);
  const auto reqs = send_slot_requests(a);
  // 1D and 3D once each sizes every worker's slots.
  core::syrk(session, reqs[0]);
  core::syrk(session, reqs[3]);
  const std::uint64_t grows = pool.arena_grow_count();
  for (int round = 0; round < 2; ++round) {
    core::syrk(session, reqs[0]);
    core::syrk(session, reqs[3]);
  }
  EXPECT_EQ(pool.arena_grow_count(), grows);
}

TEST(SendSlot, BuffersOfKeptBlockSizeBypassTheSlot) {
  // A 1D rank's send buffer is the whole packed triangle: at n1 = 2944 it
  // is 34.7 MB, past kKeptBlockBytes, so each rank computes into a
  // per-request block and no worker's slot grows to hold it. The first
  // request's entries are >= 1e200, and the block it frees is kept for the
  // second (align.hpp), which therefore starts from a dirty buffer as a
  // warm slot would. Integer entries keep every sum exact, so the result
  // must equal the serial oracle bitwise, as the slot path's does.
  constexpr std::size_t n1 = 2944, n2 = 4;
  static_assert(n1 * (n1 + 1) / 2 * sizeof(double) >= kKeptBlockBytes);
  const Matrix huge(n1, n2, 1e101);
  Matrix ints(n1, n2);
  Rng rng(706);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t j = 0; j < n2; ++j) {
      ints(i, j) = std::floor(rng.uniform(-8, 8));
    }
  }
  comm::WorkerPool pool;
  core::Session session(2, pool);
  auto dirty = std::make_unique<core::SyrkRun>(
      core::syrk(session, core::SyrkRequest(huge).use_1d()));
  ASSERT_GE(dirty->c(n1 - 1, 0), 1e200);
  const std::uint64_t reuses = kept_block_reuses();
  const core::SyrkRun got =
      core::syrk(session, core::SyrkRequest(ints).use_1d());
  EXPECT_EQ(kept_block_reuses(), reuses + 1);  // one rank got the dirty block
  dirty.reset();
  EXPECT_LT(pool.arena_doubles_reserved(), kKeptBlockBytes / sizeof(double));
  EXPECT_TRUE(bitwise_equal(got.c, syrk_reference(ints.view())));
}

// ---------------------------------------------------------------------------
// The one-block store behind AlignedAllocator (align.hpp)
// ---------------------------------------------------------------------------

// skinny_planned's shape: C is 2048² doubles, exactly kKeptBlockBytes.
constexpr std::size_t kSkinnyN1 = 2048;
constexpr std::size_t kSkinnyN2 = 64;
static_assert(kSkinnyN1 * kSkinnyN1 * sizeof(double) == kKeptBlockBytes);

/// Drops a NaN-filled matrix of C's size, so the store keeps a dirty block
/// that the next request's C gets back.
void drop_nan_result() {
  const Matrix dirty(kSkinnyN1, kSkinnyN1,
                     std::numeric_limits<double>::quiet_NaN());
}

/// Every entry of `c` is finite and `c` matches the serial oracle.
void expect_syrk_of(const Matrix& c, const Matrix& a) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(c(i, j))) << "C(" << i << ", " << j << ")";
    }
  }
  const Matrix ref = syrk_reference(a.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), kTol);
}

TEST(KeptBlock, WarmSameShapeRequestReusesIt) {
  const Matrix a = random_matrix(kSkinnyN1, kSkinnyN2, 601);
  core::Session session(1);
  { const core::SyrkRun first = core::syrk(session, core::SyrkRequest(a)); }
  const std::uint64_t reuses = kept_block_reuses();
  const std::uint64_t allocations = large_block_allocations();
  const core::SyrkRun second = core::syrk(session, core::SyrkRequest(a));
  EXPECT_EQ(kept_block_reuses() - reuses, 1u);
  EXPECT_EQ(large_block_allocations() - allocations, 0u);
}

TEST(KeptBlock, LiveResultsNeverShareStorage) {
  const Matrix a = random_matrix(kSkinnyN1, kSkinnyN2, 602);
  const Matrix b = random_matrix(kSkinnyN1, kSkinnyN2, 603);
  core::Session session(1);
  { const core::SyrkRun dropped = core::syrk(session, core::SyrkRequest(a)); }
  const std::uint64_t allocations = large_block_allocations();
  // The first takes the kept block; the second, asked for while the first
  // is alive, must get storage of its own.
  const core::SyrkRun ra = core::syrk(session, core::SyrkRequest(a));
  const core::SyrkRun rb = core::syrk(session, core::SyrkRequest(b));
  EXPECT_EQ(large_block_allocations() - allocations, 1u);
  EXPECT_NE(ra.c.data(), rb.c.data());
  expect_syrk_of(ra.c, a);
  expect_syrk_of(rb.c, b);
}

TEST(KeptBlock, BlocksUnderThresholdBypassIt) {
  drop_nan_result();
  const std::uint64_t reuses = kept_block_reuses();
  const std::uint64_t allocations = large_block_allocations();
  // wide_1d's C: 1024² doubles, 8 MiB, recycled by glibc's heap.
  for (int i = 0; i < 2; ++i) {
    const Matrix c(1024, 1024);
  }
  // One double short of the threshold.
  for (int i = 0; i < 2; ++i) {
    const AlignedVector v(kKeptBlockBytes / sizeof(double) - 1);
  }
  EXPECT_EQ(kept_block_reuses() - reuses, 0u);
  EXPECT_EQ(large_block_allocations() - allocations, 0u);
  // ... and neither evicted the kept block.
  const Matrix c(kSkinnyN1, kSkinnyN1);
  EXPECT_EQ(kept_block_reuses() - reuses, 1u);
}

/// 2048×64 on a session of `procs` ranks, planner default or pinned 1D.
struct SkinnyCase {
  const char* name;
  int procs;
  bool pinned_1d;
  core::Algorithm algorithm;  // the plan the request must resolve to
  bool folded;
};

void PrintTo(const SkinnyCase& t, std::ostream* os) { *os << t.name; }

core::SyrkRequest skinny_request(const SkinnyCase& t, const Matrix& a,
                                 const core::Session& session) {
  core::SyrkRequest req(a);
  if (t.pinned_1d) req.use_1d();
  const core::Plan plan = core::resolve_plan(session, req);
  EXPECT_EQ(plan.algorithm, t.algorithm);
  EXPECT_EQ(plan.folded(), t.folded);
  return req;
}

const SkinnyCase kOneRank{"OneRankOneD", 1, false, core::Algorithm::kOneD,
                          false};
const SkinnyCase kFoldedTwoD{"FoldedTwoDOnFour", 4, false,
                             core::Algorithm::kTwoD, true};
const SkinnyCase kPinnedOneD{"PinnedOneDOnFour", 4, true,
                             core::Algorithm::kOneD, false};

auto skinny_name(const ::testing::TestParamInfo<SkinnyCase>& info) {
  return std::string(info.param.name);
}

class KeptBlockDirty : public ::testing::TestWithParam<SkinnyCase> {};

TEST_P(KeptBlockDirty, EveryEntryOverwritten) {
  const SkinnyCase& t = GetParam();
  const Matrix a = random_matrix(kSkinnyN1, kSkinnyN2, 604);
  core::Session session(t.procs);
  const core::SyrkRequest req = skinny_request(t, a, session);
  drop_nan_result();
  const std::uint64_t reuses = kept_block_reuses();
  const core::SyrkRun run = core::syrk(session, req);
  ASSERT_EQ(kept_block_reuses() - reuses, 1u) << "C did not get the NaN block";
  expect_syrk_of(run.c, a);
}

INSTANTIATE_TEST_SUITE_P(Skinny, KeptBlockDirty,
                         ::testing::Values(kOneRank, kFoldedTwoD,
                                           kPinnedOneD),
                         skinny_name);

/// Minor page faults of the whole process so far.
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

struct FaultCase {
  SkinnyCase shape;
  long limit;  // a fresh C alone faults 8,193 pages
};

void PrintTo(const FaultCase& t, std::ostream* os) { *os << t.shape.name; }

class KeptBlockFaults : public ::testing::TestWithParam<FaultCase> {};

TEST_P(KeptBlockFaults, WarmRequestDoesNotFaultItsResult) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory is mapped on first touch, and "
                  "ru_minflt counts those faults too";
#endif
  const FaultCase& t = GetParam();
  const Matrix a = random_matrix(kSkinnyN1, kSkinnyN2, 605);
  core::Session session(t.shape.procs);
  const core::SyrkRequest req = skinny_request(t.shape, a, session);
  { const core::SyrkRun warm = core::syrk(session, req); }
  const long before = minor_faults();
  const core::SyrkRun run = core::syrk(session, req);
  EXPECT_LT(minor_faults() - before, t.limit);
}

INSTANTIATE_TEST_SUITE_P(
    Skinny, KeptBlockFaults,
    ::testing::Values(FaultCase{kOneRank, 256}, FaultCase{kFoldedTwoD, 4096}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.shape.name);
    });

#if defined(__SANITIZE_ADDRESS__)
TEST(KeptBlock, DroppedResultStaysPoisonedUntilReused) {
  const Matrix a = random_matrix(kSkinnyN1, kSkinnyN2, 606);
  core::Session session(1);
  const double* data = nullptr;
  {
    const core::SyrkRun run = core::syrk(session, core::SyrkRequest(a));
    data = run.c.data();
    EXPECT_FALSE(__asan_address_is_poisoned(data));
  }
  // Kept, not freed: a stale read of the dropped result still reports.
  EXPECT_TRUE(__asan_address_is_poisoned(data));
  EXPECT_TRUE(__asan_address_is_poisoned(data + kSkinnyN1 * kSkinnyN1 - 1));
  const core::SyrkRun next = core::syrk(session, core::SyrkRequest(a));
  ASSERT_EQ(next.c.data(), data);
  EXPECT_FALSE(__asan_address_is_poisoned(data));
}
#endif

}  // namespace
}  // namespace parsyrk
