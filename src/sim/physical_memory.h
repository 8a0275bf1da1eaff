// Simulated physical memory: a pool of 4 KiB frames backed by real heap
// allocations.
//
// Substitution note (DESIGN.md §2): the paper allocates physical pages with
// memfd_create and maps them with mmap. Here a "physical page" is a Frame in
// this pool. Frames are reference counted to model page *pinning*: the OS
// page table holds one reference per mapping, and every RNIC memory-region
// translation entry holds another (RDMA registration pins pages). A frame is
// returned to the pool only when the last reference drops, so a stale,
// never-updated RNIC MTT entry reads stale-but-live data — exactly the
// real-hardware behaviour, and memory-safe in simulation.
//
// Host bytes outlive the last reference by an epoch (DESIGN.md §7.6): the
// page table and the MTT are read without a lock, so a translator may still
// hold a frame's pointer when its last reference drops. The frame leaves
// the accounting (live_frames) and its id is recycled at once, but its slab
// is retired and freed only when no FrameEpoch guard that could have seen
// it is still open.

#ifndef CORM_SIM_PHYSICAL_MEMORY_H_
#define CORM_SIM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_units.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/frame_epoch.h"

namespace corm::sim {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = UINT32_MAX;

inline constexpr size_t kFrameSize = kPageSize;  // 4 KiB

// Thread-safe frame pool. A frame's data pointer stays valid while the frame
// holds a reference, and after that until every FrameEpoch guard open at the
// last Unref has closed.
class PhysicalMemory {
 public:
  // `max_frames` caps the simulated DRAM; 0 means unlimited.
  explicit PhysicalMemory(size_t max_frames = 0) : max_frames_(max_frames) {}

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates a zeroed frame with refcount 1.
  Result<FrameId> AllocFrame();

  // Allocates `n` zeroed frames backed by ONE contiguous slab, so that the
  // bytes of frame i+1 directly follow frame i. This models a physically
  // contiguous extent of a memfd file: CoRM's blocks are linearly
  // addressable (slots may straddle page boundaries), and remaps always
  // retarget whole blocks, preserving linearity.
  Result<std::vector<FrameId>> AllocContiguousFrames(size_t n);

  // Increments the pin count of `id`.
  void Ref(FrameId id);

  // Decrements the pin count; recycles the frame when it reaches zero and
  // retires its slab when that was the slab's last live frame.
  void Unref(FrameId id);

  // Direct pointer to the frame's 4 KiB of data (control path: takes the
  // pool lock; translators read the pointer cached in their own tables).
  uint8_t* FrameData(FrameId id);

  // Current refcount (testing / accounting).
  uint32_t RefCount(FrameId id) const;

  // Number of live (refcount > 0) frames: the "granted" physical memory.
  size_t live_frames() const;
  size_t peak_frames() const;
  uint64_t total_allocs() const;

  // Frees every retired slab no FrameEpoch guard can still see; returns how
  // many. Call outside a guard to free slabs the caller retired itself.
  size_t ReclaimRetired() { return retired_.Reclaim(); }
  // Slabs whose last frame died but whose host bytes are not yet freed.
  size_t retired_slabs() const { return retired_.pending(); }
  // Slabs freed by ReclaimRetired so far.
  uint64_t reclaimed_slabs() const { return retired_.reclaimed(); }

 private:
  using Slab = std::shared_ptr<uint8_t[]>;

  // A frame is a 4 KiB view into a shared slab; the slab is retired with
  // its last frame. Single-frame allocations own a one-page slab.
  struct Frame {
    Slab slab;
    uint8_t* data = nullptr;
    uint32_t refcount = 0;
  };

  const size_t max_frames_;

  // Substrate lock (rank kSubstrate: always a leaf). Frame *data* pointers
  // handed out by FrameData are deliberately not guarded: they model DMA
  // targets whose races are validated by the object-layout seqlock.
  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  std::vector<FrameId> free_list_ GUARDED_BY(mu_);
  size_t live_frames_ GUARDED_BY(mu_) = 0;
  size_t peak_frames_ GUARDED_BY(mu_) = 0;
  uint64_t total_allocs_ GUARDED_BY(mu_) = 0;
  // Declared last: destroyed first, so pool teardown frees retired slabs.
  RetireList<Slab> retired_;
};

}  // namespace corm::sim

#endif  // CORM_SIM_PHYSICAL_MEMORY_H_
