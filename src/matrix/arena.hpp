// Reusable, 64-byte-aligned kernel scratch space.
//
// The packed kernel engine needs two pack buffers (left and right operand
// panels) per call, and a rank that reduces its owned blocks needs one send
// buffer per request for the kernels to write. Allocating them per call
// would put a malloc (and, for large buffers, fresh pages) on the hot path
// of every Local-SYRK a worker runs; instead each long-lived pool worker
// (simmpi::WorkerPool) owns a KernelArena that grows to the high-water mark
// of the jobs it has run and is then reused allocation-free. Threads that
// are not pool workers (tests, benchmarks, the main thread) fall back to a
// thread_local arena with the same behavior.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "matrix/align.hpp"

namespace parsyrk::kern {

class KernelArena {
 public:
  static constexpr int kSlots = 3;
  static constexpr int kSlotPackA = 0;
  static constexpr int kSlotPackB = 1;
  /// The send buffer core::internal::reduce_scatter_owned computes into.
  static constexpr int kSlotSend = 2;

  KernelArena() = default;
  KernelArena(const KernelArena&) = delete;
  KernelArena& operator=(const KernelArena&) = delete;

  /// A 64-byte-aligned buffer of at least `count` doubles. The buffer is
  /// owned by the arena and reused across calls: a second request for the
  /// same slot invalidates the first. Contents are uninitialized, and a
  /// slot grows by replacing its block, never by copying it.
  double* buffer(int slot, std::size_t count);

  /// Number of times any slot had to (re)allocate — flat across warm
  /// same-shape jobs, which tests assert.
  std::uint64_t grow_count() const {
    return grows_.load(std::memory_order_relaxed);
  }

  /// Total doubles currently reserved across slots.
  std::size_t doubles_reserved() const;

  /// The arena for the calling thread: the pool worker's own arena when set
  /// (WorkerPool installs it via set_current at thread start), otherwise a
  /// lazily created thread_local fallback.
  static KernelArena& current();

  /// Installs `arena` as the calling thread's arena (nullptr restores the
  /// thread_local fallback). Called by the worker pool, not by kernels.
  static void set_current(KernelArena* arena);

 private:
  AlignedVector slots_[kSlots];
  std::atomic<std::uint64_t> grows_{0};
};

}  // namespace parsyrk::kern
