// Register-blocked micro-kernel with runtime ISA dispatch.
//
// The local-kernel engine (kernels.cpp) tiles every dense kernel down to
// kMR x kNR accumulator tiles fed from packed panels (pack.hpp) and calls
// one micro-kernel in the innermost position. Every x86-64 build carries
// three tiers of that micro-kernel, fastest first:
//
//   * avx512  — 8 zmm accumulator rows (function-level target "avx512f");
//   * avx2    — two 4x8 passes in ymm registers (target "avx2,fma");
//   * generic — the portable C++ body, compiled for the baseline ISA.
//
// Other architectures carry the generic tier only. The process picks the
// fastest tier the running CPU supports, once, at first use; the
// PARSYRK_UKERNEL environment variable forces a named tier instead. A name
// that is unknown or that the host cannot run throws InvalidArgument.
#pragma once

#include <cstddef>
#include <span>

namespace parsyrk::kern {

/// Micro-tile rows. Equal to kNR so a symmetric pack (SYRK/SYR2K) serves as
/// both the left and the right operand panel.
inline constexpr std::size_t kMR = 8;
/// Micro-tile columns.
inline constexpr std::size_t kNR = 8;
/// k-dimension cache block (doubles): one kMR/kNR strip pair stays in L1.
inline constexpr std::size_t kKC = 256;
/// m-dimension cache block: the left-operand pack (kMC x kKC) stays in L2.
inline constexpr std::size_t kMC = 512;

/// C tile (kMR x kNR, row-major accumulator) += Apanel · Bpanelᵀ over kc
/// packed k-steps. Panels are packed strips (pack.hpp).
using MicroKernelFn = void (*)(std::size_t kc, const double* a,
                               const double* b, double* acc);

struct Ukernel {
  MicroKernelFn fn;
  const char* name;  // "avx512", "avx2" or "generic"
};

/// The tiers the running CPU supports, fastest first; "generic" is always
/// present and always last.
std::span<const Ukernel> host_ukernels();

/// The tier named by `override_name` among `tiers`, or `tiers.front()` when
/// the name is null or empty. Throws InvalidArgument, naming the value and
/// listing `tiers`, when no tier has that name.
const Ukernel& select_ukernel(const char* override_name,
                              std::span<const Ukernel> tiers);

/// The micro-kernel selected for this process: select_ukernel over
/// PARSYRK_UKERNEL and host_ukernels(), resolved once (thread-safe).
const Ukernel& active_ukernel();

}  // namespace parsyrk::kern
