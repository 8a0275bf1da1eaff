// Worker: one CoRM worker thread (paper §2.2.2, §3.1.4).
//
// Each worker polls (a) its private inbox — ownership-bound operations
// forwarded by peers, pointer-correction queries, compaction-protocol
// messages — and (b) the shared RPC queue. Worker 0 additionally acts as
// the compaction leader when a Compact control message arrives.
//
// Internal header: not part of the public API surface.

#ifndef CORM_CORE_WORKER_H_
#define CORM_CORE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/block.h"
#include "alloc/thread_allocator.h"
#include "common/doorbell.h"
#include "common/mpmc_queue.h"
#include "common/random.h"
#include "common/slice.h"
#include "core/addr.h"
#include "core/corm_node.h"
#include "core/rpc_protocol.h"
#include "index/index_table.h"
#include "rdma/rpc_transport.h"

namespace corm::core {

// --- Inter-worker message payloads (reply slots are caller-owned). --------

struct CorrectionReply {
  std::atomic<bool> done{false};
  bool owned = false;  // the addressee owned the block when it looked
  bool found = false;
  uint32_t slot = 0;
};

struct CollectReply {
  std::atomic<bool> done{false};
  std::vector<std::unique_ptr<alloc::Block>> blocks;
};

struct StatsReply {
  std::atomic<bool> done{false};
  // granted/used bytes and block counts per size class.
  std::vector<uint64_t> granted;
  std::vector<uint64_t> used;
  std::vector<uint64_t> nblocks;
};

struct CompactRequest {
  std::atomic<bool> done{false};
  uint32_t class_idx = 0;
  Status status;
  CompactionReport report;
};

// Reply slot for an on-thread invariant audit (CormNode::Audit). The worker
// runs its ThreadAllocator::Audit between operations, so the audit sees a
// quiescent view of the allocator without extra locking.
struct AuditReply {
  std::atomic<bool> done{false};
  Status status;
};

struct BulkRequest {
  std::atomic<bool> done{false};
  bool is_alloc = false;
  // Alloc inputs/outputs.
  size_t count = 0;
  uint32_t payload_size = 0;
  uint64_t index_base = 0;  // pattern seed offset for determinism
  std::vector<GlobalAddr> out_addrs;
  // Free inputs.
  std::vector<GlobalAddr> free_addrs;
  Status status;
};

struct WorkerMsg {
  enum class Kind : uint8_t {
    kForwardedRpc,  // ownership-bound RPC (Free) routed to the block owner
    kCorrection,    // pointer-correction query (thread messaging, §3.2.1)
    kCollect,       // compaction stage 1: donate low-occupancy blocks
    kStats,         // fragmentation accounting snapshot
    kCompact,       // run a compaction as leader
    kBulk,          // bulk alloc/free loader
    kAudit,         // run the thread-allocator invariant audit in-thread
  };
  Kind kind = Kind::kForwardedRpc;

  rdma::RpcMessage* rpc = nullptr;  // kForwardedRpc

  // kCorrection
  const alloc::Block* block = nullptr;
  uint16_t obj_id = 0;
  CorrectionReply* correction = nullptr;

  // kCollect
  uint32_t class_idx = 0;
  double max_occupancy = 0.0;
  size_t max_blocks = 0;
  CollectReply* collect = nullptr;

  StatsReply* stats = nullptr;      // kStats
  CompactRequest* compact = nullptr;  // kCompact
  BulkRequest* bulk = nullptr;        // kBulk
  AuditReply* audit = nullptr;        // kAudit
};

class Worker {
 public:
  Worker(CormNode* node, int id);
  ~Worker();  // out-of-line: CompactionEngine is incomplete here

  // Thread body; returns when the node's stop flag is set. Drains the
  // worker's own RPC ring in batches (stealing only from rings whose owner
  // worker is parked) and interleaves inbox messages between batch items so
  // correction queries are never starved behind a long batch. An idle
  // worker keeps polling for kSpinBeforeParkNs, then parks on its ring's
  // doorbell until a producer rings it.
  void Run();

  // Enqueues a message (any thread) and rings the worker's doorbell. Spins
  // while the inbox is full.
  void Send(WorkerMsg msg);

  int id() const { return id_; }
  alloc::ThreadAllocator* allocator() { return &allocator_; }

  // True while the worker is parked on its doorbell (armed, re-polling or
  // asleep). Siblings steal from a ring only while its owner is parked — an
  // awake owner drains its own ring, and stealing from it would keep every
  // idle worker spinning on load that belongs to one worker (see Run()).
  bool parked() const { return parked_.load(std::memory_order_relaxed); }

  // Result of locating an object (public for internal free helpers).
  struct Resolved {
    alloc::Block* block = nullptr;
    uint32_t slot = 0;
    sim::VAddr base = 0;      // block base the client's pointer references
    // The slot's bytes through `base`, translated once by ResolveObject;
    // valid for the rest of the poll (its FrameEpoch guard).
    uint8_t* ptr = nullptr;
    bool old_block = false;   // pointer references a ghost base (§3.3)
  };

 private:
  // --- Dispatch. ---------------------------------------------------------
  // One pass over every work source: an inbox message, else an RPC batch
  // from the own ring (or a parked sibling's), the replicated-log ingress,
  // and one compaction slice. Returns true when any of them did work.
  bool PollOnce(rdma::RpcMessage** batch);
  void HandleInbox(WorkerMsg& msg);
  void HandleRpc(rdma::RpcMessage* rpc, bool forwarded);

  // --- RPC operation handlers. -------------------------------------------
  void HandleAlloc(rdma::RpcMessage* rpc);
  void HandleFree(rdma::RpcMessage* rpc, bool forwarded);
  void HandleRead(rdma::RpcMessage* rpc);
  void HandleWrite(rdma::RpcMessage* rpc);
  void HandleReleasePtr(rdma::RpcMessage* rpc);

  // --- Keyed index operations (DESIGN.md §13). ----------------------------
  // Authoritative lookup behind the one-sided bucket probe.
  void HandleIndexLookup(rdma::RpcMessage* rpc);
  // Fresh key: allocates the object with the value already in it and
  // publishes it under the key. Live key: returns its object for the
  // client's bracketed Write.
  void HandleIndexPut(rdma::RpcMessage* rpc);
  // Unlinks the key, then frees its object through HandleFree (in place,
  // or forwarded to the owning worker).
  void HandleIndexRemove(rdma::RpcMessage* rpc);
  // Resolves a live entry's stored hint through ResolveObject and
  // self-heals the bucket entry (fresh pointer + owner hint + current
  // epoch) when it was stale or fenced, so RPC fallbacks repair the
  // one-sided path as a side effect. An entry that outlived its object is
  // unlinked and reported NotFound.
  Result<GlobalAddr> ResolveIndexEntry(uint64_t key,
                                       const index::IndexEntry& entry);

  // --- Replicated-log apply path (DESIGN.md §11). ------------------------
  // Drains up to kReplApplyBatch in-sequence records from every ingress
  // ring this worker owns (ring id % num_workers == id_). Returns the
  // number of records durably applied.
  size_t DrainReplIngress();
  // Applies one record through the object seqlock (same lock discipline as
  // HandleWrite). Returns true when the ring may advance past the record —
  // applied, duplicate, epoch-fenced, or orphaned — and false when the
  // object is transiently unavailable (write-locked or kCompacting): the
  // record stays at the ring head and is retried on a later drain, which
  // is the replication/compaction hand-off.
  bool ApplyReplRecord(const rdma::ReplRecordHeader& hdr,
                       const Buffer& payload);

  // --- Shared helpers. ----------------------------------------------------
  // Locates the object referenced by `addr`: optimistic hinted-offset check
  // first, then the configured correction strategy. Never blocks on locked
  // objects (that is the caller's concern).
  Result<Resolved> ResolveObject(const GlobalAddr& addr);

  // Pointer correction backends (§3.2.1).
  Result<uint32_t> CorrectViaOwner(alloc::Block* block, uint16_t obj_id);
  Result<uint32_t> CorrectViaScan(const alloc::Block* block, sim::VAddr base,
                                  uint16_t obj_id);

  // Allocates one object; returns its address. `init` (at most
  // `payload_size` bytes) is stamped into the payload before the header is
  // published. Used by RPC + bulk paths.
  Result<GlobalAddr> AllocObject(uint32_t payload_size, Slice init);
  // Frees a resolved object (this worker must own the block).
  Status FreeResolved(const Resolved& r);

  // Byte pointer to a slot through the *client-visible* base (aliases
  // resolve to the same frames after remap).
  uint8_t* SlotPtr(sim::VAddr base, const alloc::Block* block, uint32_t slot);

  // Generates a block-local object ID (unique when the class is
  // compactable; paper §3.1.2). Bounded: after kIdRandomDraws failed random
  // draws (dense block: rejection sampling degenerates) it scans the ID
  // space from a random start, which is guaranteed to find a free ID.
  Result<uint16_t> DrawObjectId(alloc::Block* block);

  // Directory lookup through this worker's private cache, invalidated by
  // the directory epoch (stale entries miss and refetch; see the freshness
  // argument at LookupBlockCached's definition).
  CormNode::DirectoryEntry LookupBlockCached(sim::VAddr base);

  // Destroys an empty block owned by this worker.
  void MaybeReleaseEmptyBlock(alloc::Block* block);

  void HandleBulk(BulkRequest* req);

  // The compaction engine runs on the leader's thread between RPC batches
  // and reaches into the worker's private helpers (SlotPtr, inbox) as the
  // leader-side half of the protocol.
  friend class CompactionEngine;

  // RPCs a worker drains from its RPC ring per queue synchronization;
  // `batch` in PollOnce holds this many.
  static constexpr size_t kPollBatch = 16;
  // Records applied per ingress ring per drain pass: bounds how long the
  // apply path keeps the worker away from its RPC ring.
  static constexpr int kReplApplyBatch = 16;
  // Random ID draws before DrawObjectId falls back to scanning.
  static constexpr int kIdRandomDraws = 32;
  // How long an idle worker keeps polling before it parks on its doorbell.
  // A request that finds its worker still spinning skips the futex wake; a
  // closed-loop client's next RPC arrives within a few microseconds, so
  // this budget keeps the worker awake between them (DESIGN.md §7.3).
  static constexpr uint64_t kSpinBeforeParkNs = 50'000;
  // Cap on one doorbell sleep. A safety net only: every producer of worker
  // work rings, so under load a park ends on a ring, not on this.
  static constexpr uint64_t kParkTimeoutNs = 1'000'000;

  // Direct-mapped directory cache slot: valid while the stamped epoch still
  // equals the directory's (any directory mutation invalidates all slots).
  struct DirCacheSlot {
    sim::VAddr base = 0;
    uint64_t epoch = 0;
    CormNode::DirectoryEntry entry;
  };
  static constexpr size_t kDirCacheSlots = 256;  // power of two

  CormNode* const node_;
  const int id_;
  alloc::ThreadAllocator allocator_;
  std::atomic<bool> parked_{false};
  // This worker's RPC ring doorbell (owned by the node's RpcQueue).
  Doorbell* const doorbell_;
  MpmcQueue<WorkerMsg> inbox_;
  Rng rng_;
  // This worker's cacheline-padded stat shard; counters on the data plane
  // are plain increments with no shared-line contention.
  NodeStatShard& stats_;
  // Reusable read-payload staging buffer (capacity persists across ops, so
  // the steady-state read path performs no heap allocation).
  Buffer read_scratch_;
  // Replicated-log apply staging: the record snapshot pulled from the ring
  // and the stored-image scratch the seal path rewrites. High-water sized.
  Buffer repl_record_buf_;
  Buffer repl_seal_scratch_;
  std::vector<DirCacheSlot> dir_cache_;
  // Leader-side compaction state machine (compaction_engine.h), stepped
  // one budgeted slice at a time from Run(); present on every worker but
  // only ever driven on the one that receives kCompact messages.
  std::unique_ptr<CompactionEngine> engine_;
};

}  // namespace corm::core

#endif  // CORM_CORE_WORKER_H_
