// Aligned allocation for matrix and kernel-scratch storage.
//
// The packed micro-kernel engine (ukernel.hpp) reads its operands with
// full-width vector loads; rows therefore start on 64-byte boundaries:
// matrices allocate with a leading dimension rounded up to the vector
// granule and a 64-byte-aligned base pointer.
#pragma once

#include <cstddef>
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

/// Minimal allocator handing out kMatrixAlignment-aligned storage.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kMatrixAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kMatrixAlignment));
  }

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
