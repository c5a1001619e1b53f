// Aligned allocation for matrix and kernel-scratch storage.
//
// The packed micro-kernel engine (ukernel.hpp) reads its operands with
// full-width vector loads; rows therefore start on 64-byte boundaries:
// matrices allocate with a leading dimension rounded up to the vector
// granule and a 64-byte-aligned base pointer.
//
// Blocks of kKeptBlockBytes or more pass through a one-block store
// (align.cpp): the last such block freed is kept, and the next allocation of
// exactly its size gets it back. glibc maps every block that large fresh, so
// a warm caller that drops a dense 2048² result and asks for the next one
// would otherwise pay a page fault and a kernel zero-fill per 4 KiB page.
// Smaller blocks recycle through glibc's heap and take the plain path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace parsyrk {

/// Alignment (bytes) of every Matrix / kernel-scratch allocation: one cache
/// line, which is also the widest vector register (AVX-512) in play.
inline constexpr std::size_t kMatrixAlignment = 64;

/// Leading-dimension granule in doubles: rows are padded so each starts on a
/// kMatrixAlignment boundary.
inline constexpr std::size_t kLdGranule = kMatrixAlignment / sizeof(double);

/// Smallest multiple of kLdGranule that is >= cols (0 stays 0).
constexpr std::size_t padded_ld(std::size_t cols) {
  return (cols + kLdGranule - 1) / kLdGranule * kLdGranule;
}

/// Smallest block the one-block store keeps: glibc's cap on its adaptive
/// mmap threshold (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), the size from
/// which it stops recycling freed blocks.
inline constexpr std::size_t kKeptBlockBytes = std::size_t{32} << 20;

/// kMatrixAlignment-aligned storage of `bytes` bytes: the kept block when it
/// has exactly this size, otherwise a new block from `::operator new`.
/// Contents are uninitialised; a reused block holds the entries of the
/// matrix that last owned it.
void* allocate_aligned(std::size_t bytes);

/// Releases storage from allocate_aligned(bytes). A block of
/// kKeptBlockBytes or more is kept (under ASan, poisoned until reused) and
/// the block kept before it is released.
void deallocate_aligned(void* p, std::size_t bytes);

/// Allocations of kKeptBlockBytes or more served by the kept block
/// (monotonic). Tests assert a warm same-shape request adds one.
std::uint64_t kept_block_reuses();

/// Allocations of kKeptBlockBytes or more that the kept block could not
/// serve, each a new block from `::operator new` (monotonic). Tests assert
/// a warm same-shape request adds none.
std::uint64_t large_block_allocations();

/// Minimal allocator handing out kMatrixAlignment-aligned storage.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(allocate_aligned(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { deallocate_aligned(p, n * sizeof(T)); }

  /// Default-initialises: sizing a vector (`AlignedVector(n)`, `resize`)
  /// leaves doubles uninitialised instead of zero-filling them, so large
  /// buffers whose owners write every element skip a serial fill pass.
  /// Construction from a value (`AlignedVector(n, v)`) is unchanged.
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

/// 64-byte-aligned growable buffer of doubles.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

}  // namespace parsyrk
