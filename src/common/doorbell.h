// corm-hotpath
//
// Doorbell: a futex eventcount that parks one consumer thread until a
// producer publishes work for it — the software form of a receiver arming
// its completion channel (ibv_req_notify_cq) and blocking in
// ibv_get_cq_event until the next completion.
//
// Consumer protocol (arm -> re-poll -> sleep):
//
//   const uint32_t key = bell.Arm();
//   if (PollForWork()) { bell.Disarm(); ... }
//   else bell.Wait(key, timeout_ns);
//
// Producer protocol: publish the work (queue push, flag store, RDMA write),
// then bell.Ring().
//
// No wakeup is lost. Arm() registers the waiter and issues a seq_cst fence
// before the consumer re-polls; Ring() issues a seq_cst fence after the
// producer published and only then reads the waiter count. Between the two
// fences one side must see the other: either the re-poll finds the work, or
// Ring() sees the waiter, bumps the epoch and wakes it — and a Wait() whose
// key is already stale returns at once, because FUTEX_WAIT compares the
// epoch word atomically with going to sleep. A producer that rings while
// nobody is armed pays the fence and one load, never a syscall.

#ifndef CORM_COMMON_DOORBELL_H_
#define CORM_COMMON_DOORBELL_H_

#include <atomic>
#include <cstdint>

namespace corm {

class Doorbell {
 public:
  enum class WaitResult : uint8_t {
    kRung,     // a Ring() since Arm() ended the wait
    kTimeout,  // the timeout (or a spurious wakeup) ended it
  };

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  // Registers the caller as a waiter; returns the key Wait() sleeps on.
  // Every Arm() is paired with exactly one Disarm() or Wait().
  [[nodiscard]] uint32_t Arm() {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_acquire);
  }

  // Withdraws an Arm() whose re-poll found work.
  void Disarm() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  // Sleeps until a Ring() after the Arm() that returned `key`, or until
  // `timeout_ns` passes. Returns at once when the bell already rang.
  WaitResult Wait(uint32_t key, uint64_t timeout_ns);

  // Wakes the armed waiters, if any. Call after publishing the work.
  void Ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    epoch_.fetch_add(1, std::memory_order_release);
    WakeAll();
  }

 private:
  void WakeAll();  // FUTEX_WAKE on epoch_ (doorbell.cc)

  // The futex word. Its own cacheline: producers write it only when a
  // waiter is armed, so an awake consumer's polling never shares a line
  // with it.
  alignas(64) std::atomic<uint32_t> epoch_{0};
  std::atomic<uint32_t> waiters_{0};
};

}  // namespace corm

#endif  // CORM_COMMON_DOORBELL_H_
