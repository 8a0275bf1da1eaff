#include "sim/physical_memory.h"

#include <cstring>

#include "common/logging.h"

namespace corm::sim {

Result<std::vector<FrameId>> PhysicalMemory::AllocContiguousFrames(size_t n) {
  CORM_CHECK_GT(n, 0u);
  // Allocation is where host memory grows: free what retired slabs allow
  // first.
  retired_.Reclaim();
  LockGuard<Mutex> lock(mu_);
  if (max_frames_ != 0 && live_frames_ + n > max_frames_) {
    return Status::OutOfMemory("simulated DRAM exhausted");
  }
  Slab slab = std::make_shared<uint8_t[]>(n * kFrameSize);
  std::vector<FrameId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FrameId id;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      id = static_cast<FrameId>(frames_.size());
      frames_.emplace_back();
    }
    frames_[id].slab = slab;
    frames_[id].data = slab.get() + i * kFrameSize;
    frames_[id].refcount = 1;
    ids.push_back(id);
  }
  live_frames_ += n;
  total_allocs_ += n;
  if (live_frames_ > peak_frames_) peak_frames_ = live_frames_;
  return ids;
}

Result<FrameId> PhysicalMemory::AllocFrame() {
  auto ids = AllocContiguousFrames(1);
  CORM_RETURN_NOT_OK(ids.status());
  return (*ids)[0];
}

void PhysicalMemory::Ref(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK_GT(frames_[id].refcount, 0u) << "Ref on a free frame";
  ++frames_[id].refcount;
}

void PhysicalMemory::Unref(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK_GT(frames_[id].refcount, 0u) << "Unref on a free frame";
  Frame& frame = frames_[id];
  if (--frame.refcount == 0) {
    // The frame leaves the accounting now; its bytes may still be under a
    // lock-free translator, so the slab's last frame retires it instead of
    // freeing it (the other frames' copies are plain references).
    if (frame.slab.use_count() == 1) {
      retired_.Retire(std::move(frame.slab));
    }
    frame.slab.reset();
    frame.data = nullptr;
    free_list_.push_back(id);
    --live_frames_;
  }
}

uint8_t* PhysicalMemory::FrameData(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK(frames_[id].data != nullptr) << "FrameData on a free frame";
  return frames_[id].data;
}

uint32_t PhysicalMemory::RefCount(FrameId id) const {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  return frames_[id].refcount;
}

size_t PhysicalMemory::live_frames() const {
  LockGuard<Mutex> lock(mu_);
  return live_frames_;
}

size_t PhysicalMemory::peak_frames() const {
  LockGuard<Mutex> lock(mu_);
  return peak_frames_;
}

uint64_t PhysicalMemory::total_allocs() const {
  LockGuard<Mutex> lock(mu_);
  return total_allocs_;
}

}  // namespace corm::sim
