// Counting global allocator, linked only into the benchmark binary. Every
// operator new bumps a thread-local counter, so a ledger batch timed on one
// thread reads its own allocations/op without contention from other threads
// (and the children pay one uncontended increment per allocation).
#include <cstdlib>
#include <new>

#include "perfbench.hpp"

namespace {

thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++t_allocs;
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size == 0 ? a : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t thread_allocs() { return t_allocs; }

bool alloc_self_check() {
  // A direct call (a new-expression may legally be elided) and one
  // library allocation: each must count exactly once.
  uint64_t before = thread_allocs();
  void* p = ::operator new(64);
  uint64_t after_raw = thread_allocs();
  ::operator delete(p);
  std::vector<uint8_t> bytes(100, 1);
  asm volatile("" : : "g"(bytes.data()) : "memory");  // keep it allocated
  uint64_t after_vec = thread_allocs();
  return after_raw - before == 1 && after_vec - after_raw == 1;
}

}  // namespace perfbench
