#include "sim/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::sim {

AddressSpace::~AddressSpace() {
  // Drop page-table references so PhysicalMemory accounting stays balanced
  // when address spaces are torn down in tests.
  page_table_.ForEach([this](PageEntry& e) {
    const FrameId frame = e.frame.load(std::memory_order_relaxed);
    if (frame != kInvalidFrame) phys_->Unref(frame);
  });
}

void AddressSpace::MapEntryLocked(VAddr page, FrameId frame) {
  PageEntry& e = page_table_.At(PageIndex(page));
  CORM_CHECK_EQ(e.frame.load(std::memory_order_relaxed), kInvalidFrame)
      << "mapping over an existing mapping at " << page;
  e.frame.store(frame, std::memory_order_relaxed);
  e.data.store(phys_->FrameData(frame), std::memory_order_release);
  ++mapped_pages_;
}

VAddr AddressSpace::ReserveRange(size_t npages) {
  CORM_CHECK_GT(npages, 0u);
  LockGuard<Mutex> lock(mu_);
  reserved_pages_ += npages;
  auto it = free_ranges_.find(npages);
  if (it != free_ranges_.end()) {
    VAddr base = it->second;
    free_ranges_.erase(it);
    return base;
  }
  VAddr base = next_vaddr_;
  next_vaddr_ += npages * kVPageSize;
  return base;
}

void AddressSpace::ReleaseRange(VAddr base, size_t npages) {
  CORM_CHECK_EQ(PageOffset(base), 0u);
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_GE(reserved_pages_, npages);
  reserved_pages_ -= npages;
  free_ranges_.emplace(npages, base);
}

Status AddressSpace::MapFresh(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("MapFresh: base not page aligned");
  }
  std::vector<FrameId> frames;
  frames.reserve(npages);
  for (size_t i = 0; i < npages; ++i) {
    auto frame = phys_->AllocFrame();
    if (!frame.ok()) {
      // Roll back partial allocation.
      for (FrameId f : frames) phys_->Unref(f);
      return frame.status();
    }
    frames.push_back(*frame);
  }
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    // AllocFrame's ref becomes the PT ref.
    MapEntryLocked(base + i * kVPageSize, frames[i]);
  }
  return Status::OK();
}

Status AddressSpace::MapFreshContiguous(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument(
        "MapFreshContiguous: base not page aligned");
  }
  auto frames = phys_->AllocContiguousFrames(npages);
  if (!frames.ok()) return frames.status();
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    // The alloc ref becomes the PT ref.
    MapEntryLocked(base + i * kVPageSize, (*frames)[i]);
  }
  return Status::OK();
}

Status AddressSpace::MapFrames(VAddr base, const std::vector<FrameId>& frames) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("MapFrames: base not page aligned");
  }
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < frames.size(); ++i) {
    phys_->Ref(frames[i]);
    MapEntryLocked(base + i * kVPageSize, frames[i]);
  }
  return Status::OK();
}

Status AddressSpace::Remap(VAddr base, VAddr target, size_t npages) {
  if (PageOffset(base) != 0 || PageOffset(target) != 0) {
    return Status::InvalidArgument("Remap: addresses not page aligned");
  }
  std::vector<VAddr> changed;
  {
    LockGuard<Mutex> lock(mu_);
    auto mapped = [this](VAddr page) {
      const PageEntry* e = FindEntry(page);
      return e != nullptr &&
             e->frame.load(std::memory_order_relaxed) != kInvalidFrame;
    };
    // Validate both ranges first so the operation is all-or-nothing.
    for (size_t i = 0; i < npages; ++i) {
      if (!mapped(base + i * kVPageSize) || !mapped(target + i * kVPageSize)) {
        return Status::InvalidArgument("Remap: unmapped page in range");
      }
    }
    // Highest page first: a lock-free reader walking the range upwards
    // (CorrectViaScan) that sees page i already remapped then sees every
    // later page remapped too, never new frames followed by old ones, the
    // same view it had when translation took this lock.
    for (size_t i = npages; i-- > 0;) {
      const VAddr src_page = base + i * kVPageSize;
      PageEntry& src = page_table_.At(PageIndex(src_page));
      const PageEntry& dst = page_table_.At(PageIndex(target + i * kVPageSize));
      const FrameId old_frame = src.frame.load(std::memory_order_relaxed);
      const FrameId new_frame = dst.frame.load(std::memory_order_relaxed);
      if (old_frame == new_frame) continue;
      phys_->Ref(new_frame);  // PT ref for the new mapping
      src.frame.store(new_frame, std::memory_order_relaxed);
      src.data.store(dst.data.load(std::memory_order_relaxed),
                     std::memory_order_release);
      // The old PT ref drops after the new pointer is published; a
      // translator still holding the old pointer is covered by its guard.
      phys_->Unref(old_frame);
      changed.push_back(src_page);
    }
  }
  std::reverse(changed.begin(), changed.end());  // notify in address order
  for (VAddr page : changed) NotifyChange(page);
  return Status::OK();
}

Status AddressSpace::Unmap(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("Unmap: base not page aligned");
  }
  std::vector<VAddr> changed;
  {
    LockGuard<Mutex> lock(mu_);
    for (size_t i = 0; i < npages; ++i) {
      const VAddr page = base + i * kVPageSize;
      PageEntry* e = page_table_.Find(PageIndex(page));
      const FrameId frame = e == nullptr
                                ? kInvalidFrame
                                : e->frame.load(std::memory_order_relaxed);
      if (frame == kInvalidFrame) {
        return Status::InvalidArgument("Unmap: page not mapped");
      }
      e->data.store(nullptr, std::memory_order_release);
      e->frame.store(kInvalidFrame, std::memory_order_relaxed);
      --mapped_pages_;
      phys_->Unref(frame);
      changed.push_back(page);
    }
  }
  for (VAddr page : changed) NotifyChange(page);
  return Status::OK();
}

Result<FrameId> AddressSpace::TranslatePage(VAddr addr) const {
  const PageEntry* e = FindEntry(addr);
  const FrameId frame =
      e == nullptr ? kInvalidFrame : e->frame.load(std::memory_order_acquire);
  if (frame == kInvalidFrame) return Status::NotFound("page not mapped");
  return frame;
}

uint8_t* AddressSpace::TranslatePtr(VAddr addr) const {
  if constexpr (kAuditEnabled) {
    // The pointer is only safe to use while the caller's guard holds off
    // reclamation of the frame's bytes (DESIGN.md §7.6).
    CORM_CHECK(FrameEpoch::InGuard())
        << "TranslatePtr outside a FrameEpoch guard";
  }
  const PageEntry* e = FindEntry(addr);
  if (e == nullptr) return nullptr;
  uint8_t* data = e->data.load(std::memory_order_acquire);
  return data == nullptr ? nullptr : data + PageOffset(addr);
}

Result<FrameId> AddressSpace::PinPage(VAddr addr, uint8_t** data) {
  LockGuard<Mutex> lock(mu_);
  const PageEntry* e = FindEntry(addr);
  const FrameId frame =
      e == nullptr ? kInvalidFrame : e->frame.load(std::memory_order_relaxed);
  if (frame == kInvalidFrame) return Status::NotFound("page not mapped");
  phys_->Ref(frame);
  *data = e->data.load(std::memory_order_relaxed);
  return frame;
}

Status AddressSpace::ReadVirtual(VAddr addr, void* out, size_t size) const {
  FrameEpoch::Guard epoch;
  auto* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    const size_t in_page = std::min<size_t>(size, kVPageSize - PageOffset(addr));
    const uint8_t* src = TranslatePtr(addr);
    if (src == nullptr) return Status::NotFound("ReadVirtual: unmapped page");
    // Simulated one-sided DMA: remote reads race with local CPU stores by
    // design; consumers validate snapshots via the object layout's version
    // bytes (paper §3.2.3). RacyCopy keeps the hardware side of that race
    // out of TSan while the CPU side stays instrumented.
    RacyCopy(dst, src, in_page);
    dst += in_page;
    addr += in_page;
    size -= in_page;
  }
  return Status::OK();
}

Status AddressSpace::WriteVirtual(VAddr addr, const void* data, size_t size) {
  FrameEpoch::Guard epoch;
  const auto* src = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const size_t in_page = std::min<size_t>(size, kVPageSize - PageOffset(addr));
    uint8_t* dst = TranslatePtr(addr);
    if (dst == nullptr) return Status::NotFound("WriteVirtual: unmapped page");
    RacyCopy(dst, src, in_page);  // simulated DMA write (see ReadVirtual)
    src += in_page;
    addr += in_page;
    size -= in_page;
  }
  return Status::OK();
}

void AddressSpace::AddNotifier(MmuNotifier* notifier) {
  LockGuard<Mutex> lock(mu_);
  notifiers_.push_back(notifier);
}

void AddressSpace::RemoveNotifier(MmuNotifier* notifier) {
  LockGuard<Mutex> lock(mu_);
  notifiers_.erase(std::remove(notifiers_.begin(), notifiers_.end(), notifier),
                   notifiers_.end());
}

void AddressSpace::NotifyChange(VAddr page) {
  std::vector<MmuNotifier*> snapshot;
  {
    LockGuard<Mutex> lock(mu_);
    snapshot = notifiers_;
  }
  for (MmuNotifier* n : snapshot) n->OnMappingChange(page);
}

size_t AddressSpace::mapped_pages() const {
  LockGuard<Mutex> lock(mu_);
  return mapped_pages_;
}

size_t AddressSpace::reserved_pages() const {
  LockGuard<Mutex> lock(mu_);
  return reserved_pages_;
}

}  // namespace corm::sim
