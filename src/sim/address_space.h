// Simulated per-node virtual address space: page table, virtual-address
// allocation with reuse, remapping, and MMU-notifier callbacks.
//
// This is the component that makes CoRM's compaction mechanism observable in
// simulation: CPU-side code reaches memory only through Translate*, so after
// Remap() a virtual page genuinely resolves to the destination block's
// physical frame. Like an MMU walk, translation takes no lock: the page
// table is a two-level radix table (sim/radix_table.h) whose entries hold
// the frame's host pointer, published with release stores by the mapping
// calls (which still serialize on the table lock). A translated pointer is
// used inside a FrameEpoch guard (sim/frame_epoch.h), which keeps the
// frame's bytes alive across a racing remap or unmap. RNICs snapshot
// translations at registration time into their own MTT (rdma/rnic.h); ODP
// memory regions additionally subscribe to this address space's
// MmuNotifier so remaps invalidate their entries, which mirrors the Linux
// mmu_notifier → ODP pipeline.

#ifndef CORM_SIM_ADDRESS_SPACE_H_
#define CORM_SIM_ADDRESS_SPACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/frame_epoch.h"
#include "sim/physical_memory.h"
#include "sim/radix_table.h"

namespace corm::sim {

// Simulated virtual address. Page-aligned addresses map whole pages.
using VAddr = uint64_t;

inline constexpr VAddr kVPageShift = 12;
inline constexpr VAddr kVPageSize = 1ULL << kVPageShift;  // matches kFrameSize

inline constexpr VAddr PageBase(VAddr a) { return a & ~(kVPageSize - 1); }
inline constexpr uint64_t PageOffset(VAddr a) { return a & (kVPageSize - 1); }

// Callback interface for consumers that cache translations (ODP regions).
class MmuNotifier {
 public:
  virtual ~MmuNotifier() = default;
  // The mapping of `page` (page-aligned) changed or was removed. The holder
  // must drop / invalidate any cached translation for it.
  virtual void OnMappingChange(VAddr page) = 0;
};

class AddressSpace {
 public:
  // All reserved ranges start at this base, so (vaddr - kBase) >> 12 is a
  // compact page index (CoRM packs it into object headers, paper §3.3).
  static constexpr VAddr kBase = 0x0000'1000'0000'0000ULL;

  explicit AddressSpace(PhysicalMemory* phys) : phys_(phys) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  ~AddressSpace();

  // --- Virtual address allocation (no backing). -------------------------
  // Reserves a page-aligned range of `npages` pages and returns its base.
  // Released ranges are recycled, which is what lets CoRM reuse virtual
  // addresses after ReleasePtr/Free (paper §3.3).
  VAddr ReserveRange(size_t npages);
  void ReleaseRange(VAddr base, size_t npages);

  // --- Mapping. ----------------------------------------------------------
  // Maps npages starting at `base` to freshly allocated frames
  // (memfd_create + mmap in the paper). Takes a page-table reference on
  // each frame.
  Status MapFresh(VAddr base, size_t npages);

  // MapFresh, but backed by ONE contiguous slab (a linear memfd extent):
  // the bytes of page i+1 directly follow page i in host memory, so a
  // CPU-side consumer may hold a single TranslatePtr(base) pointer across
  // the whole range. The keyed index table needs this — its server-side
  // view walks buckets linearly (index/index_table.h).
  Status MapFreshContiguous(VAddr base, size_t npages);

  // Maps pages at `base` to explicit frames (shared mapping of an existing
  // memfd region). Takes a reference on each frame.
  Status MapFrames(VAddr base, const std::vector<FrameId>& frames);

  // Points npages at `base` to the frames that currently back `target`
  // (mmap(MAP_FIXED) of the destination block's memfd file over the source
  // block's virtual range — the core compaction remap, paper §3.1.2).
  // Old frames lose the page-table reference. Fires MmuNotifiers.
  Status Remap(VAddr base, VAddr target, size_t npages);

  // Removes the mappings and drops the page-table references.
  Status Unmap(VAddr base, size_t npages);

  // --- Translation (the CPU/MMU path; lock-free). -------------------------
  // Frame currently backing the page containing `addr`.
  Result<FrameId> TranslatePage(VAddr addr) const;

  // Direct byte pointer for CPU load/store at `addr`. Returns nullptr for
  // unmapped addresses. Two acquire loads, no lock. The caller must be
  // inside a FrameEpoch::Guard (checked in audit builds) and may use the
  // pointer until the guard closes: a remap or unmap that races it only
  // retires the old frame's bytes. What the bytes *mean* after a remap is
  // CoRM's business (object header locks and IDs, paper §3.2).
  uint8_t* TranslatePtr(VAddr addr) const;

  // Takes a reference on the frame backing the page containing `addr`,
  // atomically with respect to Remap/Unmap, and returns it with its host
  // pointer in `*data` (MTT resolution: registration pins pages).
  Result<FrameId> PinPage(VAddr addr, uint8_t** data);

  // Copies `size` bytes crossing page boundaries through translation (each
  // call opens its own FrameEpoch guard).
  Status ReadVirtual(VAddr addr, void* out, size_t size) const;
  Status WriteVirtual(VAddr addr, const void* data, size_t size);

  // --- MMU notifiers. ------------------------------------------------------
  void AddNotifier(MmuNotifier* notifier);
  void RemoveNotifier(MmuNotifier* notifier);

  PhysicalMemory* physical_memory() const { return phys_; }

  // Number of mapped pages (diagnostics; a counter, not a table walk).
  size_t mapped_pages() const;
  // Total reserved-but-unreleased virtual pages: virtual address footprint.
  size_t reserved_pages() const;

 private:
  // One page-table entry. Written only under mu_ (data last on map, first
  // on unmap, both with release); read lock-free with acquire loads.
  struct PageEntry {
    std::atomic<uint8_t*> data{nullptr};  // frame bytes; null = unmapped
    std::atomic<FrameId> frame{kInvalidFrame};
  };
  // Index = (vaddr - kBase) >> kVPageShift. 2^16 leaf pointers (a 512 KiB
  // root) x 4096-entry leaves (64 KiB, one per 16 MiB of address space):
  // 1 TiB of virtual space per node.
  using PageTable = RadixTable<PageEntry, 16, 12>;

  static uint64_t PageIndex(VAddr addr) {
    return (addr - kBase) >> kVPageShift;
  }
  // Lock-free: the entry for `addr`, or null outside any created leaf.
  const PageEntry* FindEntry(VAddr addr) const {
    return addr < kBase ? nullptr : page_table_.Find(PageIndex(addr));
  }
  // Under mu_: publishes `frame` (already referenced) at `page`.
  void MapEntryLocked(VAddr page, FrameId frame) REQUIRES(mu_);
  void NotifyChange(VAddr page);

  PhysicalMemory* const phys_;

  // Substrate lock (rank kSubstrate: always a leaf, models the kernel's
  // mmap_lock). Annotated for clang thread-safety analysis. It serializes
  // the page table's *writers*; readers take no lock (DESIGN.md §10.7).
  mutable Mutex mu_;
  PageTable page_table_;
  size_t mapped_pages_ GUARDED_BY(mu_) = 0;
  // Virtual allocator state: bump pointer + freelist of ranges by size.
  VAddr next_vaddr_ GUARDED_BY(mu_) = kBase;
  std::multimap<size_t, VAddr> free_ranges_ GUARDED_BY(mu_);  // npages -> base
  size_t reserved_pages_ GUARDED_BY(mu_) = 0;
  std::vector<MmuNotifier*> notifiers_ GUARDED_BY(mu_);
};

}  // namespace corm::sim

#endif  // CORM_SIM_ADDRESS_SPACE_H_
