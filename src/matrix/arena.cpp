#include "matrix/arena.hpp"

#include "support/check.hpp"

namespace parsyrk::kern {

namespace {
thread_local KernelArena* tls_arena = nullptr;
}  // namespace

double* KernelArena::buffer(int slot, std::size_t count) {
  PARSYRK_CHECK(slot >= 0 && slot < kSlots);
  AlignedVector& buf = slots_[slot];
  if (buf.size() < count) {
    buf = AlignedVector();  // release the old block before taking the new
    buf.resize(count);
    grows_.fetch_add(1, std::memory_order_relaxed);
  }
  return buf.data();
}

std::size_t KernelArena::doubles_reserved() const {
  std::size_t total = 0;
  for (const auto& s : slots_) total += s.size();
  return total;
}

KernelArena& KernelArena::current() {
  if (tls_arena != nullptr) return *tls_arena;
  static thread_local KernelArena fallback;
  return fallback;
}

void KernelArena::set_current(KernelArena* arena) { tls_arena = arena; }

}  // namespace parsyrk::kern
