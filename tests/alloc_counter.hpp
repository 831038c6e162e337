// Heap-allocation counting for "steady state allocates nothing" tests.
//
// Include from exactly one source file of a test binary: it replaces
// the binary's global operator new/delete with ones that bump
// g_heap_allocations and then allocate as usual. Sanitizers bring their
// own operator new, so under them nothing is replaced,
// DAIET_TEST_SANITIZED is defined, and the tests skip themselves
// instead of fighting them for the symbol.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DAIET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DAIET_TEST_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

#ifndef DAIET_TEST_SANITIZED
// GCC cannot see that the deletes below pair with these news, hence
// the pragma.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
