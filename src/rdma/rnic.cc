#include "rdma/rnic.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/sanitizer.h"
#include "sim/fault_injector.h"

namespace corm::rdma {

Rnic::Rnic(sim::AddressSpace* address_space, sim::LatencyModel model)
    : space_(address_space),
      model_(model),
      mtt_cache_(model.MttCacheEntries()) {
  space_->AddNotifier(this);
}

void Rnic::ResetMttCache() {
  for (auto& entry : mtt_cache_) entry.store(0, std::memory_order_relaxed);
  stats_.mtt_cache_hits.store(0, std::memory_order_relaxed);
  stats_.mtt_cache_misses.store(0, std::memory_order_relaxed);
}

uint64_t Rnic::MttCacheAccess(sim::VAddr page) {
  const uint64_t vpage = page >> sim::kVPageShift;
  const size_t set =
      (vpage * 0x9E3779B97F4A7C15ULL >> 17) % mtt_cache_.size();
  auto& entry = mtt_cache_[set];
  if (entry.load(std::memory_order_relaxed) == vpage) {
    stats_.mtt_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  entry.store(vpage, std::memory_order_relaxed);
  stats_.mtt_cache_misses.fetch_add(1, std::memory_order_relaxed);
  return model_.MttCacheMissNs();
}

Rnic::~Rnic() {
  space_->RemoveNotifier(this);
  // Drop all MTT frame references and free the live regions (retired ones
  // die with retired_regions_).
  LockGuard<Mutex> lock(mu_);
  regions_.ForEach([this](std::atomic<MemoryRegion*>& slot) {
    std::unique_ptr<MemoryRegion> mr(slot.exchange(nullptr));
    if (mr == nullptr) return;
    LockGuard<Mutex> elock(mr->entries_mu_);
    for (size_t i = 0; i < mr->npages_; ++i) InvalidateEntryLocked(mr.get(), i);
  });
}

Result<MrKeys> Rnic::RegisterMemory(sim::VAddr base, size_t npages,
                                    bool odp) {
  if (sim::PageOffset(base) != 0 || npages == 0) {
    return Status::InvalidArgument("RegisterMemory: bad range");
  }
  MrKeys keys;
  std::unique_ptr<MemoryRegion> mr;
  {
    // Visible to MMU notifiers from here on, so a remap that races the
    // snapshot below still invalidates what it resolved.
    LockGuard<Mutex> lock(mu_);
    keys.l_key = next_key_;
    keys.r_key = next_key_;
    ++next_key_;
    mr = std::make_unique<MemoryRegion>(base, npages, odp, keys);
    by_base_[base] = mr.get();
  }
  Status st = Status::OK();
  {
    // Pin + snapshot translations into the MTT before the key is published:
    // no access can reach the region half-resolved.
    LockGuard<Mutex> elock(mr->entries_mu_);
    for (size_t i = 0; i < npages && st.ok(); ++i) {
      st = ResolveEntryLocked(mr.get(), i);
    }
    if (!st.ok()) {
      // Unwind: drop what we pinned.
      mr->dead_ = true;
      for (size_t i = 0; i < npages; ++i) InvalidateEntryLocked(mr.get(), i);
    }
  }
  {
    LockGuard<Mutex> lock(mu_);
    if (!st.ok()) {
      auto it = by_base_.find(base);
      if (it != by_base_.end() && it->second == mr.get()) by_base_.erase(it);
    } else {
      regions_.At(keys.r_key).store(mr.release(), std::memory_order_release);
    }
  }
  // A notifier may still hold a region that failed to register.
  if (mr != nullptr) retired_regions_.Retire(std::move(mr));
  retired_regions_.Reclaim();
  if (!st.ok()) return st;
  return keys;
}

Status Rnic::DeregisterMemory(RKey r_key) {
  std::unique_ptr<MemoryRegion> mr;
  {
    LockGuard<Mutex> lock(mu_);
    auto* slot = regions_.Find(r_key);
    if (slot != nullptr) mr.reset(slot->exchange(nullptr));
    if (mr == nullptr) {
      return Status::NotFound("DeregisterMemory: unknown r_key");
    }
    auto it = by_base_.find(mr->base());
    if (it != by_base_.end() && it->second == mr.get()) by_base_.erase(it);
  }
  {
    LockGuard<Mutex> elock(mr->entries_mu_);
    mr->dead_ = true;
    for (size_t i = 0; i < mr->npages_; ++i) InvalidateEntryLocked(mr.get(), i);
  }
  // A lock-free access may still hold the region: retire it.
  retired_regions_.Retire(std::move(mr));
  retired_regions_.Reclaim();
  return Status::OK();
}

Status Rnic::ResolveEntryLocked(MemoryRegion* mr, size_t page_idx) {
  // A fault or repair racing DeregisterMemory must not pin a frame the
  // deregistration already released.
  if (mr->dead_) return Status::NotFound("region deregistered");
  uint8_t* data = nullptr;
  auto frame =
      space_->PinPage(mr->base_ + page_idx * sim::kVPageSize, &data);
  if (!frame.ok()) return frame.status();
  auto& entry = mr->entries_[page_idx];
  const sim::FrameId old = entry.frame;
  entry.frame = *frame;
  entry.data.store(data, std::memory_order_release);
  // The old pin drops after the new pointer is published; an access still
  // holding the old pointer is covered by its guard.
  if (old != sim::kInvalidFrame) space_->physical_memory()->Unref(old);
  return Status::OK();
}

void Rnic::InvalidateEntryLocked(MemoryRegion* mr, size_t page_idx) {
  auto& entry = mr->entries_[page_idx];
  if (entry.frame == sim::kInvalidFrame) return;
  entry.data.store(nullptr, std::memory_order_release);
  space_->physical_memory()->Unref(entry.frame);
  entry.frame = sim::kInvalidFrame;
}

Result<Rnic::EntryBytes> Rnic::EntryData(MemoryRegion* mr, size_t page_idx,
                                         bool* broke_qp) {
  auto& entry = mr->entries_[page_idx];
  EntryBytes out{entry.data.load(std::memory_order_acquire), 0};
  if (out.bytes == nullptr) {
    if (!mr->odp_) {
      return BreakQp(broke_qp, "MTT entry invalid on non-ODP region");
    }
    // ODP fault: re-resolve from the OS page table (modeled 63 us) under
    // the entry lock, unless a racing access already did.
    LockGuard<Mutex> elock(mr->entries_mu_);
    if (entry.frame == sim::kInvalidFrame) {
      Status st = ResolveEntryLocked(mr, page_idx);
      if (!st.ok()) {
        return BreakQp(broke_qp, "ODP fault on unmapped page: " + st.message());
      }
      out.fault_ns = model_.OdpMissNs();
      stats_.odp_faults.fetch_add(1, std::memory_order_relaxed);
    }
    out.bytes = entry.data.load(std::memory_order_relaxed);
  }
  if constexpr (kAuditEnabled) {
    // The bytes stay allocated only while the access's guard is open.
    CORM_CHECK(sim::FrameEpoch::InGuard())
        << "MTT dereference outside a FrameEpoch guard";
  }
  return out;
}

Result<uint64_t> Rnic::ReregMr(RKey r_key) {
  CORM_RETURN_NOT_OK(BeginRereg(r_key));
  CORM_RETURN_NOT_OK(EndRereg(r_key));
  return model_.ReregMrNs();
}

Status Rnic::BeginRereg(RKey r_key) {
  sim::FrameEpoch::Guard epoch;
  MemoryRegion* mr = FindRegion(r_key);
  if (!mr) return Status::NotFound("ReregMr: unknown r_key");
  bool expected = false;
  if (!mr->reregistering_.compare_exchange_strong(expected, true)) {
    return Status::Internal("ReregMr: already re-registering");
  }
  stats_.reregs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Rnic::EndRereg(RKey r_key) {
  sim::FrameEpoch::Guard epoch;
  MemoryRegion* mr = FindRegion(r_key);
  if (!mr) return Status::NotFound("ReregMr: unknown r_key");
  {
    LockGuard<Mutex> elock(mr->entries_mu_);
    for (size_t i = 0; i < mr->npages_; ++i) {
      Status st = ResolveEntryLocked(mr, i);
      if (!st.ok()) {
        mr->reregistering_.store(false);
        return st;
      }
    }
  }
  mr->reregistering_.store(false);
  return Status::OK();
}

Result<uint64_t> Rnic::AdviseRegion(MemoryRegion* mr, sim::VAddr addr,
                                    size_t len) {
  if (!mr->Covers(addr, len)) {
    return Status::InvalidArgument("AdviseMr: range outside region");
  }
  if (!mr->odp_) {
    return Status::NotSupported("AdviseMr: region not registered with ODP");
  }
  const size_t first = (addr - mr->base_) >> sim::kVPageShift;
  const size_t last = (addr + len - 1 - mr->base_) >> sim::kVPageShift;
  uint64_t ns = 0;
  LockGuard<Mutex> elock(mr->entries_mu_);
  for (size_t i = first; i <= last; ++i) {
    if (mr->entries_[i].frame == sim::kInvalidFrame) {
      CORM_RETURN_NOT_OK(ResolveEntryLocked(mr, i));
      ns += model_.AdviseMrNs();
      stats_.prefetches.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ns;
}

Result<uint64_t> Rnic::AdviseMr(RKey r_key, sim::VAddr addr, size_t len) {
  sim::FrameEpoch::Guard epoch;
  MemoryRegion* mr = FindRegion(r_key);
  if (!mr) return Status::NotFound("AdviseMr: unknown r_key");
  return AdviseRegion(mr, addr, len);
}

Status Rnic::ReregRegion(MemoryRegion* mr) {
  bool expected = false;
  if (!mr->reregistering_.compare_exchange_strong(expected, true)) {
    return Status::Internal("ReregMr: already re-registering");
  }
  stats_.reregs.fetch_add(1, std::memory_order_relaxed);
  {
    LockGuard<Mutex> elock(mr->entries_mu_);
    for (size_t i = 0; i < mr->npages_; ++i) {
      Status st = ResolveEntryLocked(mr, i);
      if (!st.ok()) {
        mr->reregistering_.store(false);
        return st;
      }
    }
  }
  mr->reregistering_.store(false);
  return Status::OK();
}

// One table pass resolves every key; the per-region repairs then run
// back-to-back as a single epoch (no table walk between them).
Result<std::vector<MemoryRegion*>> Rnic::LookupBatch(
    const std::vector<RKey>& keys, const char* what) {
  std::vector<MemoryRegion*> mrs;
  mrs.reserve(keys.size());
  for (RKey key : keys) {
    MemoryRegion* mr = FindRegion(key);
    if (mr == nullptr) {
      return Status::NotFound(std::string(what) + ": unknown r_key");
    }
    mrs.push_back(mr);
  }
  return mrs;
}

Status Rnic::ReregMrBatch(const std::vector<RKey>& keys) {
  if (keys.empty()) return Status::OK();
  sim::FrameEpoch::Guard epoch;
  auto mrs = LookupBatch(keys, "ReregMrBatch");
  CORM_RETURN_NOT_OK(mrs.status());
  stats_.repair_batches.fetch_add(1, std::memory_order_relaxed);
  for (MemoryRegion* mr : *mrs) {
    CORM_RETURN_NOT_OK(ReregRegion(mr));
  }
  return Status::OK();
}

Status Rnic::AdviseMrBatch(const std::vector<MrRange>& ranges) {
  if (ranges.empty()) return Status::OK();
  std::vector<RKey> keys;
  keys.reserve(ranges.size());
  for (const MrRange& r : ranges) keys.push_back(r.r_key);
  sim::FrameEpoch::Guard epoch;
  auto mrs = LookupBatch(keys, "AdviseMrBatch");
  CORM_RETURN_NOT_OK(mrs.status());
  stats_.repair_batches.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < ranges.size(); ++i) {
    auto ns = AdviseRegion((*mrs)[i], ranges[i].addr, ranges[i].len);
    CORM_RETURN_NOT_OK(ns.status());
  }
  return Status::OK();
}

namespace {

// One-sided READ DMA. An RNIC reads host memory in whole cache lines, so
// each 64-byte line of the result is as of one instant: the atomicity that
// FaRM-style per-line versions rely on (paper §3.2.3), since a line's
// version byte and its data then cannot come from different writes. A
// plain memcpy gives no such guarantee against a concurrent CPU writer: it
// may copy a line's header before the writer locks it and the rest after
// the writer's first stores. So each line is copied again until a re-read
// finds it unchanged. Lines are 64-byte aligned in the simulated address
// space (`addr` is the simulated address of `src`), whatever the host
// alignment of the frame's bytes.
constexpr size_t kDmaLineBytes = 64;

void DmaReadLines(uint8_t* dst, const uint8_t* src, size_t len,
                  sim::VAddr addr) {
  while (len > 0) {
    const size_t in_line =
        std::min<size_t>(len, kDmaLineBytes - addr % kDmaLineBytes);
    do {
      RacyCopy(dst, src, in_line);
    } while (!RacyEqual(dst, src, in_line));
    dst += in_line;
    src += in_line;
    addr += in_line;
    len -= in_line;
  }
}

}  // namespace

Status Rnic::BreakQp(bool* broke_qp, std::string why) {
  *broke_qp = true;
  stats_.qp_breaks.fetch_add(1, std::memory_order_relaxed);
  return Status::QpBroken(std::move(why));
}

bool Rnic::InjectedQpBreak() {
  // Injected transport-level fault (cable pull, firmware hiccup): the QP
  // transitions to the error state exactly like the organic break paths,
  // so clients exercise the same reconnect machinery.
  auto* fi = sim::GlobalFaultInjector();
  return fi != nullptr && fi->ShouldFire(sim::fault_sites::kQpBreak);
}

Result<MemoryRegion*> Rnic::AccessRegion(RKey r_key, sim::VAddr addr,
                                         size_t len, bool* broke_qp) {
  MemoryRegion* mr = FindRegion(r_key);
  if (mr == nullptr) {
    // Invalid r_key: the IB spec says the QP moves to the error state.
    return BreakQp(broke_qp, "remote access error: unknown r_key");
  }
  if (!mr->Covers(addr, len)) {
    return BreakQp(broke_qp, "remote access error: out of region bounds");
  }
  if (mr->reregistering_.load(std::memory_order_acquire)) {
    // Access while ibv_rereg_mr is in flight (paper §3.5, first strategy).
    return BreakQp(broke_qp, "access during memory re-registration");
  }
  return mr;
}

Result<uint64_t> Rnic::MttAccess(RKey r_key, sim::VAddr addr, void* buf,
                                 size_t len, bool is_write, bool* broke_qp) {
  *broke_qp = false;
  if (InjectedQpBreak()) return BreakQp(broke_qp, "injected QP break");
  sim::FrameEpoch::Guard epoch;
  auto region = AccessRegion(r_key, addr, len, broke_qp);
  if (!region.ok()) return region.status();
  MemoryRegion* mr = *region;

  (is_write ? stats_.writes : stats_.reads)
      .fetch_add(1, std::memory_order_relaxed);

  uint64_t fault_ns = 0;
  auto* cbuf = static_cast<uint8_t*>(buf);
  sim::VAddr cur = addr;
  size_t remaining = len;
  while (remaining > 0) {
    fault_ns += MttCacheAccess(cur);
    const size_t page_idx = (cur - mr->base_) >> sim::kVPageShift;
    auto data = EntryData(mr, page_idx, broke_qp);
    if (!data.ok()) return data.status();
    fault_ns += data->fault_ns;
    const size_t in_page =
        std::min<size_t>(remaining, sim::kVPageSize - sim::PageOffset(cur));
    uint8_t* frame_ptr = data->bytes + sim::PageOffset(cur);
    if (is_write) {
      std::memcpy(frame_ptr, cbuf, in_page);
    } else {
      DmaReadLines(cbuf, frame_ptr, in_page, cur);
    }
    cbuf += in_page;
    cur += in_page;
    remaining -= in_page;
  }
  return fault_ns;
}

Result<uint64_t> Rnic::MttAtomic(RKey r_key, sim::VAddr addr, bool is_cas,
                                 uint64_t compare, uint64_t operand,
                                 uint64_t* old_value, bool* broke_qp) {
  *broke_qp = false;
  if (InjectedQpBreak()) return BreakQp(broke_qp, "injected QP break");
  if (addr % sizeof(uint64_t) != 0) {
    // The IB spec only defines atomics on naturally-aligned 8-byte words.
    return BreakQp(broke_qp, "remote atomic on unaligned address");
  }
  sim::FrameEpoch::Guard epoch;
  auto region = AccessRegion(r_key, addr, sizeof(uint64_t), broke_qp);
  if (!region.ok()) return region.status();
  MemoryRegion* mr = *region;
  stats_.atomics.fetch_add(1, std::memory_order_relaxed);

  uint64_t fault_ns = MttCacheAccess(addr);
  const size_t page_idx = (addr - mr->base_) >> sim::kVPageShift;
  auto data = EntryData(mr, page_idx, broke_qp);
  if (!data.ok()) return data.status();
  fault_ns += data->fault_ns;
  auto* word = reinterpret_cast<uint64_t*>(data->bytes + sim::PageOffset(addr));
  std::atomic_ref<uint64_t> ref(*word);
  if (is_cas) {
    uint64_t expected = compare;
    ref.compare_exchange_strong(expected, operand,
                                std::memory_order_acq_rel);
    *old_value = expected;  // prior contents whether or not the CAS won
  } else {
    *old_value = ref.fetch_add(operand, std::memory_order_acq_rel);
  }
  return fault_ns;
}

void Rnic::OnMappingChange(sim::VAddr page) {
  // Regions are disjoint: find the (at most one) region covering `page`
  // via the base-ordered index, then invalidate under the region's lock.
  // The guard keeps a region deregistered in between alive.
  sim::FrameEpoch::Guard epoch;
  MemoryRegion* affected = nullptr;
  {
    LockGuard<Mutex> lock(mu_);
    auto it = by_base_.upper_bound(page);
    if (it != by_base_.begin()) {
      --it;
      auto& mr = it->second;
      if (mr->odp_ && page >= mr->base_ && page < mr->base_ + mr->length()) {
        affected = mr;
      }
    }
  }
  if (!affected) return;
  const size_t idx = (page - affected->base()) >> sim::kVPageShift;
  LockGuard<Mutex> elock(affected->entries_mu_);
  InvalidateEntryLocked(affected, idx);
}

}  // namespace corm::rdma
