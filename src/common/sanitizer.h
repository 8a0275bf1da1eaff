// Sanitizer awareness layer.
//
// CoRM's hot paths use custom synchronization (the SpinLock, the Vyukov
// MPMC inbox, the block-ownership hand-off, and the FaRM-style seqlock
// object layout). This header gives those primitives a vocabulary for
// talking to ThreadSanitizer so that TSan models their happens-before
// edges precisely instead of being silenced by coarse suppressions:
//
//  * CORM_TSAN_ACQUIRE(addr) / CORM_TSAN_RELEASE(addr) wrap
//    __tsan_acquire/__tsan_release (the primitives behind the classic
//    AnnotateHappensAfter/AnnotateHappensBefore macros). A release on an
//    address followed by an acquire on the same address establishes a
//    happens-before edge. They compile to nothing outside TSan builds.
//
//  * CORM_NO_SANITIZE_THREAD marks a function whose memory accesses model
//    *hardware* (simulated RNIC DMA) rather than CPU threads. One-sided
//    RDMA reads race with local stores by design; the object layout's
//    version/checksum validation rejects torn snapshots after the fact
//    (paper §3.2.3). Keeping the DMA side uninstrumented removes exactly
//    that benign-by-design race while leaving the CPU side fully
//    instrumented, so real races between workers are still caught.
//
// The header also centralizes the CORM_AUDIT switch for the runtime
// invariant audits (see lock_rank.h, alloc/block.h, core/corm_node.h):
// audit *functions* are always compiled (tests call them directly); the
// hot-path *hooks* only fire when the build enables CORM_AUDIT.

#ifndef CORM_COMMON_SANITIZER_H_
#define CORM_COMMON_SANITIZER_H_

#include <cstddef>
#include <cstring>

// --- Sanitizer detection (GCC defines __SANITIZE_*__; Clang has
// --- __has_feature). ------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define CORM_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CORM_TSAN_ENABLED 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CORM_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CORM_ASAN_ENABLED 1
#endif
#endif

// --- TSan annotations. ----------------------------------------------------

#ifdef CORM_TSAN_ENABLED
#if __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#else
// Toolchain ships the runtime but not the header: declare the two symbols
// we need (they are part of the stable tsan interface).
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

#define CORM_TSAN_ACQUIRE(addr) \
  __tsan_acquire(const_cast<void*>(static_cast<const volatile void*>(addr)))
#define CORM_TSAN_RELEASE(addr) \
  __tsan_release(const_cast<void*>(static_cast<const volatile void*>(addr)))
#define CORM_NO_SANITIZE_THREAD __attribute__((no_sanitize_thread))

#else  // !CORM_TSAN_ENABLED

#define CORM_TSAN_ACQUIRE(addr) \
  do {                          \
  } while (0)
#define CORM_TSAN_RELEASE(addr) \
  do {                          \
  } while (0)
#define CORM_NO_SANITIZE_THREAD

#endif  // CORM_TSAN_ENABLED

// --- Intentionally racy copies. -------------------------------------------

namespace corm {

// Copies bytes that race with concurrent accesses *by design*: seqlock
// snapshot reads validated after the fact (paper §3.2.3) and the simulated
// RNIC's one-sided DMA. Under TSan a plain memcpy would still be caught by
// the libtsan interceptor even inside a no_sanitize function, so the TSan
// build copies through volatile bytes (uninstrumented, never libcall-ized);
// every other build keeps the memcpy fast path.
CORM_NO_SANITIZE_THREAD inline void RacyCopy(void* dst, const void* src,
                                             size_t n) {
#ifdef CORM_TSAN_ENABLED
  auto* d = static_cast<volatile unsigned char*>(dst);
  const auto* s = static_cast<const volatile unsigned char*>(src);
  for (size_t i = 0; i < n; ++i) d[i] = s[i];
#else
  std::memcpy(dst, src, n);
#endif
}

// Compares bytes that may race with a concurrent writer (the re-read half
// of a double-collect snapshot); same TSan treatment as RacyCopy.
CORM_NO_SANITIZE_THREAD inline bool RacyEqual(const void* a, const void* b,
                                              size_t n) {
#ifdef CORM_TSAN_ENABLED
  const auto* x = static_cast<const volatile unsigned char*>(a);
  const auto* y = static_cast<const volatile unsigned char*>(b);
  for (size_t i = 0; i < n; ++i) {
    if (x[i] != y[i]) return false;
  }
  return true;
#else
  return std::memcmp(a, b, n) == 0;
#endif
}

}  // namespace corm

// --- Runtime invariant audits (CORM_AUDIT). -------------------------------

// kAuditEnabled is a compile-time constant so hot-path hooks fold away
// entirely in normal builds:  if constexpr (kAuditEnabled) { ... }.
namespace corm {
#if defined(CORM_AUDIT) && CORM_AUDIT
inline constexpr bool kAuditEnabled = true;
#else
inline constexpr bool kAuditEnabled = false;
#endif
}  // namespace corm

#endif  // CORM_COMMON_SANITIZER_H_
