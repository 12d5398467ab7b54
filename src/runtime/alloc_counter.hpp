// alloc_counter.hpp — opt-in process-wide heap allocation counting.
//
// The zero-allocation contracts of the BFS engine ("a warm workspace BFS
// performs no heap allocation"; "a steady-state oracle hit performs no heap
// allocation") are *tested*, not just asserted in comments. Proof needs a
// counting allocator, and replacing ::operator new is a per-program decision
// (the replacement must be defined exactly once per binary), so this header
// only declares the query API; a binary that wants counting places
//
//   NAV_DEFINE_ALLOC_COUNTER()
//
// at namespace scope in exactly one of its translation units (the alloc test
// suite and bench_micro do). Binaries that never invoke the macro keep the
// stock allocator and pay nothing.
//
// Counting is a single relaxed atomic increment per allocation; deallocation
// is not counted (the contracts are about allocation pressure). All replaced
// forms funnel through malloc/free, so sanitizers still interpose normally.
#pragma once

#include <cstdint>

namespace nav {

/// Allocations performed by this process so far. Only meaningful in binaries
/// that define the counting allocator via NAV_DEFINE_ALLOC_COUNTER();
/// elsewhere the symbol is simply absent (link error on misuse, not silence).
[[nodiscard]] std::uint64_t allocation_count() noexcept;

/// Bytes requested from the allocator so far (same caveats). Lets tests
/// distinguish small bookkeeping nodes from an O(n) buffer that slipped
/// through a recycling path.
[[nodiscard]] std::uint64_t allocation_bytes() noexcept;

}  // namespace nav

// The macro body needs these; include here so call sites stay one-liners.
#include <atomic>
#include <cstdlib>
#include <new>

#define NAV_DEFINE_ALLOC_COUNTER()                                            \
  namespace nav::alloc_counter_detail {                                       \
  std::atomic<std::uint64_t> g_count{0};                                      \
  std::atomic<std::uint64_t> g_bytes{0};                                      \
  inline void* counted_alloc(std::size_t size) {                              \
    g_count.fetch_add(1, std::memory_order_relaxed);                          \
    g_bytes.fetch_add(size, std::memory_order_relaxed);                       \
    return std::malloc(size == 0 ? 1 : size);                                 \
  }                                                                           \
  inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {   \
    g_count.fetch_add(1, std::memory_order_relaxed);                          \
    g_bytes.fetch_add(size, std::memory_order_relaxed);                       \
    void* p = nullptr;                                                        \
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,     \
                       size == 0 ? 1 : size) != 0) {                          \
      return nullptr;                                                         \
    }                                                                         \
    return p;                                                                 \
  }                                                                           \
  /* Out of line on purpose: inlined into a caller whose pointer gcc          \
     traced to operator new, a bare std::free reads as a mismatched           \
     deallocation (-Wmismatched-new-delete). */                               \
  [[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }     \
  }                                                                           \
  namespace nav {                                                             \
  std::uint64_t allocation_count() noexcept {                                 \
    return alloc_counter_detail::g_count.load(std::memory_order_relaxed);     \
  }                                                                           \
  std::uint64_t allocation_bytes() noexcept {                                 \
    return alloc_counter_detail::g_bytes.load(std::memory_order_relaxed);     \
  }                                                                           \
  }                                                                           \
  void* operator new(std::size_t size) {                                      \
    if (void* p = ::nav::alloc_counter_detail::counted_alloc(size)) return p; \
    throw std::bad_alloc();                                                   \
  }                                                                           \
  void* operator new[](std::size_t size) { return ::operator new(size); }     \
  void* operator new(std::size_t size, const std::nothrow_t&) noexcept {      \
    return ::nav::alloc_counter_detail::counted_alloc(size);                  \
  }                                                                           \
  void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {    \
    return ::nav::alloc_counter_detail::counted_alloc(size);                  \
  }                                                                           \
  void* operator new(std::size_t size, std::align_val_t align) {              \
    void* p = ::nav::alloc_counter_detail::counted_aligned_alloc(             \
        size, static_cast<std::size_t>(align));                               \
    if (p == nullptr) throw std::bad_alloc();                                 \
    return p;                                                                 \
  }                                                                           \
  void* operator new[](std::size_t size, std::align_val_t align) {            \
    return ::operator new(size, align);                                       \
  }                                                                           \
  void operator delete(void* p) noexcept {                                    \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete[](void* p) noexcept {                                  \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete(void* p, std::size_t) noexcept {                       \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete[](void* p, std::size_t) noexcept {                     \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete(void* p, const std::nothrow_t&) noexcept {             \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {           \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete(void* p, std::align_val_t) noexcept {                  \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete[](void* p, std::align_val_t) noexcept {                \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {     \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {   \
    ::nav::alloc_counter_detail::counted_free(p);                             \
  }                                                                           \
  static_assert(true, "NAV_DEFINE_ALLOC_COUNTER requires a trailing semicolon")
