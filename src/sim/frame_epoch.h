// Epoch-based reclamation for memory that lock-free translators may still be
// reading (DESIGN.md §7.6).
//
// The page table (sim/address_space.h) and the RNIC's MTT and region table
// (rdma/rnic.h) are read without a lock: a translation is two acquire loads,
// and the caller then dereferences the host pointer it got. A remap, unmap,
// ODP invalidation or deregistration that races such a reader must not free
// what the reader holds. So nothing those tables point at is freed when it
// is unlinked. It is *retired* instead, tagged with the epoch current at the
// unlink, and freed only once no reader that entered at or before that epoch
// is still inside. Mesh (PAPERS.md) releases a physical span by the same
// rule: only after every mapping to it is gone.
//
// Readers: a FrameEpoch::Guard brackets every use of a translated pointer.
// Guards nest (only the outermost one publishes), cost one store and one
// fence to enter and one store to leave, and live in per-thread cache-line
// slots. The number of threads is unbounded: a thread claims a slot on its
// first guard and hands it back at thread exit, and a later thread reuses it.
//
// Writers: unlink under the structure's own lock, then RetireList::Retire.
// RetireList::Reclaim frees what no guard can still see; it takes no guard
// itself and must be called outside one to make progress on objects the
// calling thread retired.

#ifndef CORM_SIM_FRAME_EPOCH_H_
#define CORM_SIM_FRAME_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace corm::sim {

class FrameEpoch {
 public:
  // RAII read-side critical section. Nestable; never hold one across a
  // blocking wait that other threads' reclamation would have to outlast.
  class Guard {
   public:
    Guard() { Enter(); }
    ~Guard() { Exit(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
  };

  // True when the calling thread is inside a guard (audit checks).
  static bool InGuard();

  // Returns the tag for an object unlinked before this call and advances
  // the global epoch past it.
  static uint64_t Advance();

  // Smallest epoch at which any thread's outermost guard entered, or
  // UINT64_MAX when no thread is inside one. An object tagged t may be
  // freed once OldestActive() > t.
  static uint64_t OldestActive();

  // Slots ever created: the peak number of threads that held a slot at
  // once (diagnostics).
  static size_t SlotCount();

 private:
  static void Enter();
  static void Exit();
};

// Objects retired from one lock-free structure, freed by Reclaim once no
// guard can still see them. `Owner` is the owning handle (a unique_ptr or
// shared_ptr); destroying it frees the object. Items still pending die
// with the list: its owner is being destroyed, so no reader remains.
template <typename Owner>
class RetireList {
 public:
  RetireList() = default;
  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;

  void Retire(Owner obj) {
    const uint64_t tag = FrameEpoch::Advance();
    LockGuard<Mutex> lock(mu_);
    items_.emplace_back(tag, std::move(obj));
    pending_.store(items_.size(), std::memory_order_relaxed);
  }

  // Frees every item no guard can still see; returns how many. Cheap when
  // nothing is retired (one relaxed load).
  size_t Reclaim() {
    if (pending() == 0) return 0;
    std::vector<Owner> dead;
    {
      LockGuard<Mutex> lock(mu_);
      if (items_.empty()) return 0;
      const uint64_t oldest = FrameEpoch::OldestActive();
      size_t kept = 0;
      for (size_t i = 0; i < items_.size(); ++i) {
        if (items_[i].first < oldest) {
          dead.push_back(std::move(items_[i].second));
        } else if (kept++ != i) {
          items_[kept - 1] = std::move(items_[i]);
        }
      }
      items_.resize(kept);
      pending_.store(kept, std::memory_order_relaxed);
      reclaimed_.fetch_add(dead.size(), std::memory_order_relaxed);
    }
    return dead.size();  // `dead` frees its items outside the lock
  }

  // Retired but not yet freed (a gauge).
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }
  // Freed by Reclaim so far (a counter).
  uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  // Substrate lock (rank kSubstrate: a leaf; Retire runs under the owning
  // structure's lock).
  mutable Mutex mu_;
  std::vector<std::pair<uint64_t, Owner>> items_ GUARDED_BY(mu_);
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

}  // namespace corm::sim

#endif  // CORM_SIM_FRAME_EPOCH_H_
