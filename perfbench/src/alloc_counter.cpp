// Replaces this binary's global operator new/delete with malloc-backed
// versions that count calls and bytes per thread, so core.allocs_per_read
// measures exactly the heap traffic of the calls a thread makes. The
// array and nothrow forms of the standard library forward to these.
#include <algorithm>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

thread_local manymap::u64 t_alloc_calls = 0;
thread_local manymap::u64 t_alloc_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++t_alloc_calls;
  t_alloc_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_alloc_calls;
  t_alloc_bytes += size;
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace manymap::perfbench {

AllocCount thread_allocs() { return {t_alloc_calls, t_alloc_bytes}; }

}  // namespace manymap::perfbench
