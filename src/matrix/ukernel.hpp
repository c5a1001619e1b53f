// Register-blocked micro-kernel with runtime ISA dispatch.
//
// The local-kernel engine (kernels.cpp) tiles every dense kernel down to
// kMR x kNR accumulator tiles fed from packed panels (pack.hpp) and calls
// one micro-kernel in the innermost position. Every x86-64 build carries
// three tiers of that micro-kernel, fastest first:
//
//   * avx512  — 8 zmm accumulator rows (function-level target "avx512f");
//   * avx2    — two 4x8 passes in ymm registers per tile (target
//               "avx2,fma");
//   * generic — the portable C++ body, compiled for the baseline ISA.
//
// The micro-kernel writes its tile from registers into C's rows itself
// (TileOp), so a whole tile costs one pass over its C entries.
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

/// How the micro-kernel writes its tile Σ into C. Σ is one FMA chain per
/// entry over the kc k-steps, started from +0.0 unless chained.
enum class TileOp {
  kStore,  ///< C := 0.0 + Σ; C is never read (β = 0). A Σ of −0.0 reads
           ///< +0.0, as zero-fill-then-add gives.
  kAdd,    ///< C := C + Σ (β = 1, and every k block after the first).
  kChain,  ///< Σ's chains start from C's values, then C := Σ.
};

/// Writes the kMR x kNR tile Σ = Apanel · Bpanelᵀ over kc packed k-steps
/// into C as `op` says. `a` is one packed kMR strip and `b` one packed kNR
/// strip (pack.hpp); c[i] points at the tile's first entry in row i, and
/// the row's kNR entries are contiguous.
using MicroKernelFn = void (*)(std::size_t kc, const double* a,
                               const double* b, double* const* c, TileOp op);

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
