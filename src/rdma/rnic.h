// Simulated RDMA NIC (RNIC).
//
// The RNIC keeps its own Memory Translation Table (MTT): a *snapshot* of the
// OS page-table entries taken when a memory region is registered
// (paper §2.2.1, Fig. 2). Because it is a snapshot, remapping a page in the
// AddressSpace does NOT update the RNIC unless one of the paper's three
// repair strategies runs (§3.5):
//
//   1. ibv_rereg_mr  -> Rnic::ReregMr (keys preserved; QPs touching the
//      region while re-registration is in flight break, per the IB spec);
//   2. ODP           -> regions registered with odp=true subscribe to the
//      AddressSpace MmuNotifier; a remap invalidates the affected MTT
//      entries and the next RDMA access pays a ~63 us fault to re-resolve;
//   3. ODP+prefetch  -> Rnic::AdviseMr eagerly re-resolves invalid entries.
//
// MTT entries hold references on their physical frames, modeling the page
// pinning performed by real RDMA registration: a stale entry reads stale
// (but live) data, never freed memory.
//
// Like the NIC's own translation, the data path takes no lock
// (DESIGN.md §7.6): the region is found in a radix table indexed by r_key,
// and an MTT entry is one acquire load of the pinned frame's host pointer.
// The region's entry lock is taken only on an ODP fault. Every access runs
// inside a FrameEpoch guard, so an invalidation, re-registration or
// deregistration that races it retires what it unlinks instead of freeing
// it.

#ifndef CORM_RDMA_RNIC_H_
#define CORM_RDMA_RNIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/address_space.h"
#include "sim/frame_epoch.h"
#include "sim/latency_model.h"
#include "sim/physical_memory.h"
#include "sim/radix_table.h"

namespace corm::rdma {

using RKey = uint32_t;
using LKey = uint32_t;

// Keys returned by memory registration.
struct MrKeys {
  LKey l_key = 0;
  RKey r_key = 0;
};

// One registered memory region and its MTT entries.
class MemoryRegion {
 public:
  MemoryRegion(sim::VAddr base, size_t npages, bool odp, MrKeys keys)
      : base_(base),
        npages_(npages),
        odp_(odp),
        keys_(keys),
        entries_(std::make_unique<MttEntry[]>(npages)) {}

  sim::VAddr base() const { return base_; }
  size_t npages() const { return npages_; }
  size_t length() const { return npages_ * sim::kVPageSize; }
  bool odp() const { return odp_; }
  const MrKeys& keys() const { return keys_; }

  bool Covers(sim::VAddr addr, size_t len) const {
    return addr >= base_ && addr + len <= base_ + length();
  }

 private:
  friend class Rnic;

  // `data` is written under entries_mu_ (release) and read lock-free
  // (acquire) by the data path; `frame` is only touched under entries_mu_.
  struct MttEntry {
    // Pinned frame's host bytes; null => invalid (ODP fault required, or
    // never resolved).
    std::atomic<uint8_t*> data{nullptr};
    sim::FrameId frame = sim::kInvalidFrame;
  };

  const sim::VAddr base_;
  const size_t npages_;
  const bool odp_;
  const MrKeys keys_;

  mutable Mutex entries_mu_;
  // Fixed at registration. Not GUARDED_BY: `data` is read without the lock
  // (DESIGN.md §10.7); every write holds entries_mu_.
  const std::unique_ptr<MttEntry[]> entries_;
  // Set by DeregisterMemory: a racing ODP fault or repair must not pin a
  // frame the deregistration already released.
  bool dead_ GUARDED_BY(entries_mu_) = false;
  // Set while ibv_rereg_mr is in flight; accesses then break the QP.
  std::atomic<bool> reregistering_{false};
};

// Counters for observing RNIC behaviour in tests and benches.
struct RnicStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> odp_faults{0};
  std::atomic<uint64_t> prefetches{0};
  std::atomic<uint64_t> reregs{0};
  std::atomic<uint64_t> qp_breaks{0};
  std::atomic<uint64_t> mtt_cache_hits{0};
  std::atomic<uint64_t> mtt_cache_misses{0};
  std::atomic<uint64_t> repair_batches{0};  // batched MTT repair epochs
  std::atomic<uint64_t> atomics{0};         // masked-atomic verbs executed
};

// One registered range inside a batched repair call.
struct MrRange {
  RKey r_key = 0;
  sim::VAddr addr = 0;
  size_t len = 0;
};

class Rnic : public sim::MmuNotifier {
 public:
  // `model` selects the latency constants (ConnectX-3 vs -5).
  Rnic(sim::AddressSpace* address_space, sim::LatencyModel model);
  ~Rnic() override;

  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  // --- Registration (ibv_reg_mr). -------------------------------------
  // Registers [base, base + npages * page) and snapshots translations into
  // the MTT. With odp=true the entries start valid but become invalid on
  // remap (they re-resolve lazily); with odp=false they are immutable until
  // ReregMr.
  Result<MrKeys> RegisterMemory(sim::VAddr base, size_t npages, bool odp);

  // Deregisters and drops MTT frame references.
  Status DeregisterMemory(RKey r_key);

  // --- The three §3.5 repair strategies. --------------------------------
  // ibv_rereg_mr: refreshes all MTT entries from the page table, preserving
  // keys. Models the dangerous window: while in flight, RDMA access to the
  // region breaks the QP. Returns the modeled duration (ns).
  Result<uint64_t> ReregMr(RKey r_key);

  // ibv_advise_mr(PREFETCH): re-resolves invalid ODP entries in the given
  // range. Returns modeled ns.
  Result<uint64_t> AdviseMr(RKey r_key, sim::VAddr addr, size_t len);

  // --- Batched repair (one MTT repair epoch per compaction slice). ------
  // Repairs every listed region in one pass: one registration-table lock
  // acquisition resolves all keys up front, then the per-region repair runs
  // back-to-back. Semantically identical to calling ReregMr / AdviseMr per
  // entry (same per-range modeled cost, charged by the caller); batching
  // removes the per-call table walk so a block and its chained ghost
  // aliases repair as a single epoch. Counted in RnicStats::repair_batches.
  Status ReregMrBatch(const std::vector<RKey>& keys);
  Status AdviseMrBatch(const std::vector<MrRange>& ranges);

  // --- Data path used by QueuePair. -----------------------------------
  // Reads/writes `len` bytes at `addr` through the MTT. Returns modeled ns
  // spent in MTT faults (0 when all entries were valid). `broke_qp` is set
  // when the access hit a region under re-registration.
  Result<uint64_t> MttAccess(RKey r_key, sim::VAddr addr, void* buf,
                             size_t len, bool is_write, bool* broke_qp);

  // Masked-atomic verb on one naturally-aligned 8-byte word behind the MTT
  // (ibv_wr_atomic_cmp_swp / ibv_wr_atomic_fetch_add). `is_cas` selects
  // compare-and-swap (compare/operand) vs fetch-add (operand is the
  // addend); `*old_value` always receives the word's prior contents — the
  // IB atomic reply. The RMW executes as a CPU atomic on the resolved
  // frame, so RNIC atomics and local std::atomic_ref accesses to the same
  // word are globally coherent (IBV_ATOMIC_GLOB semantics). Returns modeled
  // fault ns like MttAccess; same QP-break contract.
  Result<uint64_t> MttAtomic(RKey r_key, sim::VAddr addr, bool is_cas,
                             uint64_t compare, uint64_t operand,
                             uint64_t* old_value, bool* broke_qp);

  // --- WRITE_WITH_IMM receive side. -------------------------------------
  // An inbound WRITE_WITH_IMM hands its 32-bit immediate to the owning
  // node's handler right after the payload lands: the receive completion a
  // real host picks up from its completion channel. The handler is
  // installed once, before the RNIC is reachable by any peer; without one
  // immediates are dropped (the payload still lands).
  void SetImmHandler(std::function<void(uint32_t imm)> handler) {
    imm_handler_ = std::move(handler);
  }
  void DeliverImm(uint32_t imm) {
    if (imm_handler_) imm_handler_(imm);
  }

  // MmuNotifier: the OS remapped `page`; invalidate ODP entries.
  void OnMappingChange(sim::VAddr page) override;

  // Testing hooks: splits ReregMr into an explicit window so races can be
  // injected deterministically.
  Status BeginRereg(RKey r_key);
  Status EndRereg(RKey r_key);

  const sim::LatencyModel& model() const { return model_; }
  const RnicStats& stats() const { return stats_; }
  sim::AddressSpace* address_space() const { return space_; }

  // Lock-free: the region registered under r_key, or null. The pointer is
  // only safe to dereference inside a FrameEpoch guard (a deregistered
  // region is retired, not freed).
  MemoryRegion* FindRegion(RKey r_key) const {
    const auto* slot = regions_.Find(r_key);
    return slot == nullptr ? nullptr : slot->load(std::memory_order_acquire);
  }

  // Resets the MTT translation cache (benches isolate configurations).
  void ResetMttCache();

 private:
  // Resolves entry `page_idx` of `mr` from the OS page table, taking a
  // frame reference. Caller holds mr->entries_mu_.
  Status ResolveEntryLocked(MemoryRegion* mr, size_t page_idx)
      REQUIRES(mr->entries_mu_);

  // Drops entry `page_idx`'s frame reference and marks it invalid.
  void InvalidateEntryLocked(MemoryRegion* mr, size_t page_idx)
      REQUIRES(mr->entries_mu_);

  // The host bytes behind MTT entry `page_idx`: one acquire load, or on an
  // invalid ODP entry a fault that resolves it under the entry lock (unless
  // a racing access already did; only the resolver pays `fault_ns`).
  // QpBroken when the entry cannot be used. Caller holds a guard.
  struct EntryBytes {
    uint8_t* bytes;
    uint64_t fault_ns;
  };
  Result<EntryBytes> EntryData(MemoryRegion* mr, size_t page_idx,
                               bool* broke_qp);

  // Whether the kQpBreak fault site fires for this access.
  static bool InjectedQpBreak();
  // Shared QP-level checks of MttAccess/MttAtomic: the region for
  // [addr, addr + len) under r_key, or QpBroken. Caller holds a guard.
  Result<MemoryRegion*> AccessRegion(RKey r_key, sim::VAddr addr, size_t len,
                                     bool* broke_qp);
  // Marks the QP broken and returns the error.
  Status BreakQp(bool* broke_qp, std::string why);

  // Batch building blocks: repair one already-resolved region.
  Result<uint64_t> AdviseRegion(MemoryRegion* mr, sim::VAddr addr, size_t len);
  Status ReregRegion(MemoryRegion* mr);
  // Resolves every key through the lock-free table. Caller holds a guard.
  Result<std::vector<MemoryRegion*>> LookupBatch(
      const std::vector<RKey>& keys, const char* what);

  // Models the RNIC's bounded translation cache (§4.2.2): direct-mapped
  // over virtual pages. Returns the modeled miss penalty (0 on hit).
  uint64_t MttCacheAccess(sim::VAddr page);

  sim::AddressSpace* const space_;
  const sim::LatencyModel model_;

  // Registration-table lock (rank kSubstrate). Serializes registration and
  // deregistration; the data path never takes it.
  Mutex mu_;
  // r_key -> region, the owning pointer (keys are never reused). 2^16 leaf
  // pointers x 2^16-entry leaves cover the whole 32-bit key space. Written
  // under mu_, read lock-free (DESIGN.md §10.7).
  sim::RadixTable<std::atomic<MemoryRegion*>, 16, 16> regions_;
  // Deregistered regions, freed once no guard can still see them.
  sim::RetireList<std::unique_ptr<MemoryRegion>> retired_regions_;
  // Disjoint regions ordered by base vaddr: O(log n) page->region lookup
  // for MMU-notifier invalidations.
  std::map<sim::VAddr, MemoryRegion*> by_base_ GUARDED_BY(mu_);
  uint32_t next_key_ GUARDED_BY(mu_) = 1;
  RnicStats stats_;
  // Direct-mapped translation cache: cached vpage per set (0 = empty).
  std::vector<std::atomic<uint64_t>> mtt_cache_;
  std::function<void(uint32_t)> imm_handler_;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_RNIC_H_
