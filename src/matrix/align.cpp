#include "matrix/align.hpp"

#include <atomic>
#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else  // the no-op forms asan_interface.h itself gives without ASan
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace parsyrk {

namespace {

/// The one kept block. Results are allocated on the caller's or the
/// service scheduler's thread and freed on caller and consumer threads, so
/// one mutex guards the slot; the counters are read without it.
struct BlockStore {
  std::mutex mu;
  void* block = nullptr;  // guarded by mu
  std::size_t bytes = 0;  // guarded by mu
  std::atomic<std::uint64_t> reuses{0};
  std::atomic<std::uint64_t> allocations{0};
};

/// Never destroyed: static Matrix objects may be freed after this file's
/// destructors have run, and the kept block stays reachable from here, so
/// LeakSanitizer does not report it at exit.
BlockStore& store() {
  static BlockStore* const s = new BlockStore;
  return *s;
}

void* new_block(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t(kMatrixAlignment));
}

void delete_block(void* p) {
  ::operator delete(p, std::align_val_t(kMatrixAlignment));
}

}  // namespace

void* allocate_aligned(std::size_t bytes) {
  if (bytes < kKeptBlockBytes) return new_block(bytes);
  BlockStore& s = store();
  void* kept = nullptr;
  {
    std::lock_guard lock(s.mu);
    if (s.bytes == bytes) kept = std::exchange(s.block, nullptr);
  }
  if (kept != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(kept, bytes);
    s.reuses.fetch_add(1, std::memory_order_relaxed);
    return kept;
  }
  void* p = new_block(bytes);
  s.allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void deallocate_aligned(void* p, std::size_t bytes) {
  if (bytes < kKeptBlockBytes) {
    delete_block(p);
    return;
  }
  BlockStore& s = store();
  ASAN_POISON_MEMORY_REGION(p, bytes);
  void* evicted = nullptr;
  {
    std::lock_guard lock(s.mu);
    evicted = std::exchange(s.block, p);
    s.bytes = bytes;
  }
  if (evicted != nullptr) delete_block(evicted);
}

std::uint64_t kept_block_reuses() {
  return store().reuses.load(std::memory_order_relaxed);
}

std::uint64_t large_block_allocations() {
  return store().allocations.load(std::memory_order_relaxed);
}

}  // namespace parsyrk
