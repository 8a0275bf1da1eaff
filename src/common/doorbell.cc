// corm-hotpath
#include "common/doorbell.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace corm {

namespace {
// std::atomic<uint32_t> is lock-free with the layout of a plain uint32_t,
// which is what the futex syscall addresses.
uint32_t* FutexWord(std::atomic<uint32_t>* word) {
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t));
  static_assert(std::atomic<uint32_t>::is_always_lock_free);
  return reinterpret_cast<uint32_t*>(word);
}
}  // namespace

Doorbell::WaitResult Doorbell::Wait(uint32_t key, uint64_t timeout_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ULL);
  // Sleeps only while the epoch still equals `key`; EAGAIN (already rung),
  // ETIMEDOUT and EINTR all simply end the wait.
  syscall(SYS_futex, FutexWord(&epoch_), FUTEX_WAIT_PRIVATE, key, &ts,
          nullptr, 0);
  waiters_.fetch_sub(1, std::memory_order_relaxed);
  return epoch_.load(std::memory_order_acquire) != key ? WaitResult::kRung
                                                       : WaitResult::kTimeout;
}

void Doorbell::WakeAll() {
  syscall(SYS_futex, FutexWord(&epoch_), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
          nullptr, 0);
}

}  // namespace corm
