// E13 — google-benchmark microbenchmarks of the local kernels and runtime
// collectives. Not a paper claim (the paper's results are communication
// volumes); this is the engineering sanity layer: the packed engine must
// beat the naive oracle, and collective wall time must scale with volume.
// Items processed = multiply-adds, so the rate column reads as MAC/s across
// both tiers.
#include <benchmark/benchmark.h>

#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "matrix/random.hpp"
#include "matrix/ukernel.hpp"
#include "simmpi/comm.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace {

using namespace parsyrk;

// The packed kernels behind a plain signature, so one template times
// every tier: accumulating into a C zero-filled each iteration (β = 1, the
// default), or writing C without reading it (β = 0, no fill).
void gemm_nt_beta1(const ConstMatrixView& a, const ConstMatrixView& b,
                    const MatrixView& c) {
  gemm_nt(a, b, c);
}
void gemm_nt_beta0(const ConstMatrixView& a, const ConstMatrixView& b,
                   const MatrixView& c) {
  gemm_nt(a, b, c, Beta::kZero);
}
void syrk_lower_beta1(const ConstMatrixView& a, const MatrixView& c) {
  syrk_lower(a, c);
}
void syrk_lower_beta0(const ConstMatrixView& a, const MatrixView& c) {
  syrk_lower(a, c, Beta::kZero);
}
void syr2k_lower_beta1(const ConstMatrixView& a,
                              const ConstMatrixView& b, const MatrixView& c) {
  syr2k_lower(a, b, c);
}
void symm_lower_left_beta1(const ConstMatrixView& s,
                            const ConstMatrixView& b, const MatrixView& c) {
  symm_lower_left(s, b, c);
}

// --- GEMM-NT tiers: C (n×n) += A·Bᵀ, k = n. MACs = n³. ---

template <void (*Kernel)(const ConstMatrixView&, const ConstMatrixView&,
                         const MatrixView&),
          bool kFill = true>
void BM_GemmNtTier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    if (kFill) c.fill(0.0);
    Kernel(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNtTier<gemm_nt_naive>)
    ->Name("BM_GemmNtNaive")->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_GemmNtTier<gemm_nt_beta1>)
    ->Name("BM_GemmNtPacked")->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_GemmNtTier<gemm_nt_beta0, false>)
    ->Name("BM_GemmNtPackedBeta0")->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// --- SYRK tiers: C (n×n lower) += A·Aᵀ, k = n/4. MACs = n²k/2. ---

template <void (*Kernel)(const ConstMatrixView&, const MatrixView&),
          bool kFill = true>
void BM_SyrkTier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n / 4, 3);
  Matrix c(n, n);
  kern::reset_pack_bytes();
  for (auto _ : state) {
    if (kFill) c.fill(0.0);
    Kernel(a.view(), c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * (n / 4) / 2);
  state.counters["pack_bytes_per_iter"] = benchmark::Counter(
      static_cast<double>(kern::pack_bytes()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SyrkTier<syrk_lower_naive>)
    ->Name("BM_SyrkLowerNaive")->Arg(128)->Arg(256);
BENCHMARK(BM_SyrkTier<syrk_lower_beta1>)
    ->Name("BM_SyrkLowerPacked")->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_SyrkTier<syrk_lower_beta0, false>)
    ->Name("BM_SyrkLowerPackedBeta0")->Arg(128)->Arg(256)->Arg(512);

// --- SYR2K tiers: C (n×n lower) += A·Bᵀ + B·Aᵀ, k = n/4. MACs = n²k. ---

template <void (*Kernel)(const ConstMatrixView&, const ConstMatrixView&,
                         const MatrixView&)>
void BM_Syr2kTier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n / 4, 4);
  Matrix b = random_matrix(n, n / 4, 5);
  Matrix c(n, n);
  for (auto _ : state) {
    c.fill(0.0);
    Kernel(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * (n / 4));
}
BENCHMARK(BM_Syr2kTier<syr2k_lower_naive>)
    ->Name("BM_Syr2kLowerNaive")->Arg(128)->Arg(256);
BENCHMARK(BM_Syr2kTier<syr2k_lower_beta1>)
    ->Name("BM_Syr2kLowerPacked")->Arg(128)->Arg(256)->Arg(512);

// --- SYMM tiers: C (n×m) += S·B, S n×n symmetric, m = n. MACs = n²m. ---

template <void (*Kernel)(const ConstMatrixView&, const ConstMatrixView&,
                         const MatrixView&)>
void BM_SymmTier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix s = random_matrix(n, n, 7);
  Matrix b = random_matrix(n, n, 8);
  Matrix c(n, n);
  for (auto _ : state) {
    c.fill(0.0);
    Kernel(s.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_SymmTier<symm_lower_left_naive>)
    ->Name("BM_SymmLowerLeftNaive")->Arg(128)->Arg(256);
BENCHMARK(BM_SymmTier<symm_lower_left_beta1>)
    ->Name("BM_SymmLowerLeftPacked")->Arg(128)->Arg(256)->Arg(512);

void BM_SparseSyrk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double fill = static_cast<double>(state.range(1)) / 100.0;
  Matrix m(n, 2 * n);
  Rng rng(6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 2 * n; ++j) {
      if (rng.uniform() < fill) m(i, j) = rng.uniform(-1, 1);
    }
  }
  const sparse::Csr s = sparse::Csr::from_dense(m.view());
  Matrix c(n, n);
  for (auto _ : state) {
    c.fill(0.0);
    sparse::sparse_syrk_lower(s, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          sparse::sparse_syrk_flops(s));
}
BENCHMARK(BM_SparseSyrk)->Args({256, 10})->Args({256, 2});

void BM_AllToAll(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  comm::World world(p);
  for (auto _ : state) {
    world.run([&](comm::Comm& comm) {
      std::vector<std::vector<double>> send(
          p, std::vector<double>(block, 1.0));
      auto out = comm.all_to_all_v(send);
      benchmark::DoNotOptimize(out.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * p * (p - 1) * block);
}
BENCHMARK(BM_AllToAll)->Args({4, 1024})->Args({8, 1024})->Args({16, 1024});

void BM_ReduceScatter(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  comm::World world(p);
  for (auto _ : state) {
    world.run([&](comm::Comm& comm) {
      std::vector<double> data(block * p, 1.0);
      auto out = comm.reduce_scatter_equal(data);
      benchmark::DoNotOptimize(out.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * p * (p - 1) * block);
}
BENCHMARK(BM_ReduceScatter)->Args({4, 1024})->Args({8, 1024})->Args({16, 1024});

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ukernel", kern::active_ukernel().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
