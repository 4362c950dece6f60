#include "alloc_hook.h"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace hostbench::alloc {
namespace {

Snapshot g_counts;

void note_alloc(void* p) {
  ++g_counts.calls;
  g_counts.live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  if (g_counts.live_bytes > g_counts.peak_bytes) {
    g_counts.peak_bytes = g_counts.live_bytes;
  }
}

void note_free(void* p) {
  g_counts.live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  note_free(p);
  std::free(p);
}

}  // namespace

Snapshot snapshot() { return g_counts; }

void reset_peak() { g_counts.peak_bytes = g_counts.live_bytes; }

}  // namespace hostbench::alloc

using hostbench::alloc::allocate;
using hostbench::alloc::allocate_aligned;
using hostbench::alloc::release;

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
