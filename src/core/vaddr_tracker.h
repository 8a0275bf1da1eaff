// VaddrTracker: decides when an old virtual block address can be reused
// (paper §3.3).
//
// Each object's header stores its *home* block — the virtual block where it
// was first allocated. When compaction turns a block into a *ghost* (its
// virtual range now aliases another block's physical pages), the ghost's
// address can only be released once no live object is homed in it: every
// such object has been freed (Free) or explicitly re-homed (ReleasePtr).
//
// The tracker maintains, per block base, the count of live objects homed
// there, plus ghost bookkeeping: the ghost's r_key and which live block it
// currently aliases (ghosts follow their target through further
// compactions).

#ifndef CORM_CORE_VADDR_TRACKER_H_
#define CORM_CORE_VADDR_TRACKER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/block.h"
#include "common/lock_rank.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"

namespace corm::core {

// A ghost range whose last homed object died; the caller must release the
// virtual range + memory region (alloc::BlockAllocator::ReleaseGhost) and
// detach the alias from its target block.
struct GhostToRelease {
  sim::VAddr base = 0;
  rdma::RKey r_key = 0;
  alloc::Block* alias_of = nullptr;
};

class VaddrTracker {
 public:
  VaddrTracker() = default;
  VaddrTracker(const VaddrTracker&) = delete;
  VaddrTracker& operator=(const VaddrTracker&) = delete;

  // A new object was allocated homed at `home_base`.
  void OnAlloc(sim::VAddr home_base) {
    LockGuard<RankedSpinLock> lock(mu_);
    ++entries_[home_base].live_homed;
  }

  // An object homed at `home_base` was freed. Returns the ghost-release
  // action when this was the last live object of a ghost range.
  std::optional<GhostToRelease> OnFree(sim::VAddr home_base) {
    LockGuard<RankedSpinLock> lock(mu_);
    return DecrementLocked(home_base);
  }

  // ReleasePtr: the object's home moved from `old_home` to `new_home`.
  std::optional<GhostToRelease> OnRehome(sim::VAddr old_home,
                                         sim::VAddr new_home) {
    LockGuard<RankedSpinLock> lock(mu_);
    ++entries_[new_home].live_homed;
    return DecrementLocked(old_home);
  }

  // The block at `base` became a ghost aliasing `target` (compaction).
  // Returns a release action when the ghost already has no homed objects.
  std::optional<GhostToRelease> MarkGhost(sim::VAddr base, rdma::RKey r_key,
                                          alloc::Block* target) {
    LockGuard<RankedSpinLock> lock(mu_);
    Entry& e = entries_[base];
    e.is_ghost = true;
    e.r_key = r_key;
    e.alias_of = target;
    if (e.live_homed == 0) {
      GhostToRelease out{base, e.r_key, e.alias_of};
      entries_.erase(base);
      return out;
    }
    return std::nullopt;
  }

  // Points a ghost at a new target (its target was itself compacted away).
  // The compaction leader tracks the affected ghost bases itself.
  void SetAliasTarget(sim::VAddr ghost_base, alloc::Block* new_target) {
    LockGuard<RankedSpinLock> lock(mu_);
    auto it = entries_.find(ghost_base);
    if (it != entries_.end() && it->second.is_ghost) {
      it->second.alias_of = new_target;
    }
  }

  // A normal (non-ghost) block is being fully destroyed; its counter must
  // be zero.
  void OnBlockDestroyed(sim::VAddr base) {
    LockGuard<RankedSpinLock> lock(mu_);
    auto it = entries_.find(base);
    if (it != entries_.end()) {
      CORM_CHECK_EQ(it->second.live_homed, 0u)
          << "destroying block with live homed objects";
      CORM_CHECK(!it->second.is_ghost);
      entries_.erase(it);
    }
  }

  // Live homed-object count (testing).
  uint64_t LiveHomed(sim::VAddr base) const {
    LockGuard<RankedSpinLock> lock(mu_);
    auto it = entries_.find(base);
    return it == entries_.end() ? 0 : it->second.live_homed;
  }

  size_t NumGhosts() const {
    LockGuard<RankedSpinLock> lock(mu_);
    size_t n = 0;
    for (const auto& [base, e] : entries_) n += e.is_ghost;
    return n;
  }

 private:
  struct Entry {
    uint64_t live_homed = 0;
    bool is_ghost = false;
    rdma::RKey r_key = 0;
    alloc::Block* alias_of = nullptr;
  };

  std::optional<GhostToRelease> DecrementLocked(sim::VAddr home_base)
      REQUIRES(mu_) {
    auto it = entries_.find(home_base);
    CORM_CHECK(it != entries_.end()) << "untracked home base";
    CORM_CHECK_GT(it->second.live_homed, 0u);
    if (--it->second.live_homed == 0) {
      if (it->second.is_ghost) {
        GhostToRelease out{home_base, it->second.r_key, it->second.alias_of};
        entries_.erase(it);
        return out;
      }
      entries_.erase(it);  // keep the map tight for non-ghosts too
    }
    return std::nullopt;
  }

  // Leaf lock: nothing else is acquired while it is held.
  mutable RankedSpinLock mu_{LockRank::kVaddrTracker};
  std::unordered_map<sim::VAddr, Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace corm::core

#endif  // CORM_CORE_VADDR_TRACKER_H_
