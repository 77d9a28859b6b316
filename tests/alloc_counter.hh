/**
 * @file
 * Global allocation counter for allocation-free tests (test-only).
 *
 * Replaces the global operator new/delete so that every heap
 * allocation in the binary bumps g_new_calls. Counting is the only
 * side effect; allocation still goes through malloc, so every other
 * test in the binary is unaffected. The replacements are ordinary
 * (non-inline) definitions: include this header from exactly one
 * translation unit of a test binary.
 */

#ifndef MOBIUS_TESTS_ALLOC_COUNTER_HH
#define MOBIUS_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdlib>
#include <new>

// GCC flags free() on new-ed pointers without seeing that the
// matching operator new below is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

/** Calls to the global operator new (and new[]) so far. */
static std::atomic<std::size_t> g_new_calls{0};

void *
operator new(std::size_t n)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // MOBIUS_TESTS_ALLOC_COUNTER_HH
