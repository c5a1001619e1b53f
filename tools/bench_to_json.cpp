// Kernel perf snapshot tool: times the local-kernel tiers and emits the
// machine-readable trajectory committed as BENCH_KERNELS.json.
//
//   bench_to_json [--out FILE] [--min-time SECONDS]
//       runs the full suite and writes the JSON snapshot (stdout if no
//       --out). Rates are reported as GMAC/s (multiply-adds, the unit the
//       microbenchmarks also use; GF/s = 2x) together with the bytes the
//       engine packed per call. Rows with impl "packed" accumulate into a C
//       zero-filled inside the timed call; "packed_beta0" rows (syrk_lower
//       and gemm_nt) run Beta::kZero and time no fill.
//
//   bench_to_json --smoke [--factor F]
//       cheap perf gate for ctest: asserts the packed syrk_lower beats the
//       naive oracle by at least F (default 1.3 — far below the measured
//       margin, so scheduler noise cannot flake the suite) at n=256, and
//       that a host with AVX-512 runs the avx512 micro-kernel unless
//       PARSYRK_UKERNEL forces a tier; exits nonzero otherwise.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "matrix/kernels.hpp"
#include "matrix/pack.hpp"
#include "matrix/random.hpp"
#include "matrix/ukernel.hpp"

namespace {

using namespace parsyrk;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string kernel;  // syrk_lower, gemm_nt, ...
  std::string impl;    // naive | packed | packed_beta0
  std::size_t n = 0;
  std::size_t k = 0;
  double gmacs_per_sec = 0.0;
  std::uint64_t bytes_packed_per_call = 0;
};

/// Times `body` (which performs `macs` multiply-adds per call): repeats
/// until `min_time` seconds have elapsed, returns the best-iteration rate.
template <typename F>
double measure_gmacs(F&& body, double macs, double min_time) {
  body();  // warm-up: page in operands, resolve dispatch, grow the arena
  double best = 0.0;
  double elapsed = 0.0;
  while (elapsed < min_time) {
    const auto t0 = Clock::now();
    body();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    elapsed += dt.count();
    best = std::max(best, macs / dt.count() / 1e9);
  }
  return best;
}

template <typename F>
Row run_case(const std::string& kernel, const std::string& impl,
             std::size_t n, std::size_t k, double macs, double min_time,
             F&& body) {
  kern::reset_pack_bytes();
  body();
  const std::uint64_t bytes_per_call = kern::pack_bytes();
  Row row;
  row.kernel = kernel;
  row.impl = impl;
  row.n = n;
  row.k = k;
  row.gmacs_per_sec = measure_gmacs(body, macs, min_time);
  row.bytes_packed_per_call = bytes_per_call;
  return row;
}

std::vector<Row> run_suite(double min_time) {
  std::vector<Row> rows;
  const std::vector<std::size_t> sizes = {128, 256, 512};
  for (std::size_t n : sizes) {
    const std::size_t k = n / 4;
    Matrix a = random_matrix(n, k, 3);
    Matrix b = random_matrix(n, k, 4);
    Matrix c(n, n);
    const double syrk_macs = double(n) * double(n) * double(k) / 2.0;
    auto syrk_case = [&](const char* impl, auto fn) {
      rows.push_back(run_case("syrk_lower", impl, n, k, syrk_macs, min_time,
                              [&] { c.fill(0.0); fn(a.view(), c.view()); }));
    };
    if (n <= 256) syrk_case("naive", syrk_lower_naive);
    syrk_case("packed", [](auto av, auto cv) { syrk_lower(av, cv); });
    rows.push_back(run_case("syrk_lower", "packed_beta0", n, k, syrk_macs,
                            min_time, [&] {
                              syrk_lower(a.view(), c.view(), Beta::kZero);
                            }));

    const double syr2k_macs = double(n) * double(n) * double(k);
    auto syr2k_case = [&](const char* impl, auto fn) {
      rows.push_back(
          run_case("syr2k_lower", impl, n, k, syr2k_macs, min_time,
                   [&] { c.fill(0.0); fn(a.view(), b.view(), c.view()); }));
    };
    if (n <= 256) syr2k_case("naive", syr2k_lower_naive);
    syr2k_case("packed",
               [](auto av, auto bv, auto cv) { syr2k_lower(av, bv, cv); });
  }
  for (std::size_t n : sizes) {
    Matrix a = random_matrix(n, n, 1);
    Matrix b = random_matrix(n, n, 2);
    Matrix c(n, n);
    const double macs = double(n) * double(n) * double(n);
    auto gemm_case = [&](const char* impl, auto fn) {
      rows.push_back(
          run_case("gemm_nt", impl, n, n, macs, min_time,
                   [&] { c.fill(0.0); fn(a.view(), b.view(), c.view()); }));
    };
    if (n <= 256) gemm_case("naive", gemm_nt_naive);
    gemm_case("packed", [](auto av, auto bv, auto cv) { gemm_nt(av, bv, cv); });
    rows.push_back(run_case("gemm_nt", "packed_beta0", n, n, macs, min_time,
                            [&] {
                              gemm_nt(a.view(), b.view(), c.view(),
                                      Beta::kZero);
                            }));

    auto symm_case = [&](const char* impl, auto fn) {
      rows.push_back(
          run_case("symm_lower_left", impl, n, n, macs, min_time,
                   [&] { c.fill(0.0); fn(a.view(), b.view(), c.view()); }));
    };
    if (n <= 256) symm_case("naive", symm_lower_left_naive);
    symm_case("packed", [](auto sv, auto bv, auto cv) {
      symm_lower_left(sv, bv, cv);
    });
  }
  return rows;
}

std::string to_json(const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"unit\": \"gmacs_per_sec = 1e9 multiply-adds per second "
        "(GF/s = 2x)\",\n";
  os << "  \"ukernel\": \"" << kern::active_ukernel().name << "\",\n";
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"kernel\": \"" << r.kernel << "\", \"impl\": \"" << r.impl
       << "\", \"n\": " << r.n << ", \"k\": " << r.k
       << ", \"gmacs_per_sec\": " << r.gmacs_per_sec
       << ", \"bytes_packed_per_call\": " << r.bytes_packed_per_call << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Tier selection, not timing: without an override, a host that supports
/// AVX-512 must have picked the avx512 micro-kernel.
bool selected_fastest_tier() {
  const char* force = std::getenv("PARSYRK_UKERNEL");
  if (force != nullptr && *force != '\0') return true;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    return std::strcmp(kern::active_ukernel().name, "avx512") == 0;
  }
#endif
  return true;
}

int run_smoke(double factor) {
  if (!selected_fastest_tier()) {
    std::cerr << "FAIL: host supports AVX-512 but the active micro-kernel is "
              << kern::active_ukernel().name << "\n";
    return 1;
  }
  const std::size_t n = 256, k = 64;
  Matrix a = random_matrix(n, k, 3);
  Matrix c(n, n);
  const double macs = double(n) * double(n) * double(k) / 2.0;
  const double naive = measure_gmacs(
      [&] { c.fill(0.0); syrk_lower_naive(a.view(), c.view()); }, macs, 0.1);
  const double packed = measure_gmacs(
      [&] { c.fill(0.0); syrk_lower(a.view(), c.view()); }, macs, 0.1);
  std::cout << "syrk_lower n=" << n << " k=" << k << ": naive " << naive
            << " GMAC/s, packed " << packed << " GMAC/s (" << packed / naive
            << "x, ukernel=" << kern::active_ukernel().name << ")\n";
  if (packed < factor * naive) {
    std::cerr << "FAIL: packed < " << factor << "x naive\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  double min_time = 0.25;
  bool smoke = false;
  double factor = 1.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--min-time" && i + 1 < argc) {
      min_time = std::strtod(argv[++i], nullptr);
    } else if (arg == "--factor" && i + 1 < argc) {
      factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_to_json [--out FILE] [--min-time S] "
                   "[--smoke [--factor F]]\n";
      return 2;
    }
  }
  if (smoke) return run_smoke(factor);
  const std::string json = to_json(run_suite(min_time));
  if (out.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(out);
    f << json;
    if (!f) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}
