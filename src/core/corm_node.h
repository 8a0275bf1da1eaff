// CormNode: a CoRM memory server (paper §3).
//
// The node owns the simulated substrate (physical memory, address space,
// memfd pool, RNIC), a pool of worker threads that poll the per-worker RPC
// rings (§2.2.2), the per-worker thread-local allocators (§3.1.1), and the
// two-stage compaction protocol (§3.1.4). Clients talk to it through
// core::Context (client.h), which issues RPCs and one-sided RDMA reads.

#ifndef CORM_CORE_CORM_NODE_H_
#define CORM_CORE_CORM_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/block.h"
#include "alloc/block_allocator.h"
#include "alloc/fragmentation.h"
#include "alloc/size_classes.h"
#include "alloc/thread_allocator.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sharded_counters.h"
#include "common/thread_annotations.h"
#include "core/addr.h"
#include "core/block_directory.h"
#include "core/object_layout.h"
#include "core/vaddr_tracker.h"
#include "index/index_table.h"
#include "rdma/rnic.h"
#include "rdma/repl_log_ring.h"
#include "rdma/rpc_transport.h"
#include "sim/address_space.h"
#include "sim/latency_model.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"
#include "sync/sync_scheme.h"

namespace corm::core {

// Phases of the incremental compaction engine (DESIGN.md §9). A compaction
// run walks Select → Collect → ConflictCheck → (Copy → Remap → Fixup)* →
// Reclaim; each Step() executes one budget-bounded slice of the current
// phase so data-plane RPCs interleave between slices.
enum class CompactionPhase : uint8_t {
  kIdle,           // no run in progress
  kSelect,         // validate the class, fan out Collect messages
  kCollect,        // gather donated blocks (deadline-bounded, §3.1.4)
  kConflictCheck,  // pick the next probability-ranked disjoint pair (§3.1.2)
  kCopy,           // lock + copy objects of the current pair, budgeted
  kIndexRepair,    // rewrite moved objects' index entries (DESIGN.md §13)
  kRemap,          // virtual-address remap + batched MTT repair (§3.5)
  kFixup,          // retire src, audit dst, re-enter ConflictCheck
  kReclaim,        // return leftover blocks, publish the report
};

// Server-side strategy for fixing indirect pointers on RPC paths (§3.2.1).
enum class RpcCorrectionStrategy {
  kThreadMessaging,  // forward to the owner thread; it queries block metadata
  kBlockScan,        // the serving thread scans the block's slots
};

struct CormConfig {
  int num_workers = 8;
  size_t block_pages = 1;          // 4 KiB blocks (paper default)
  int object_id_bits = 16;         // CoRM-16 (paper default)
  sim::RemapStrategy remap_strategy = sim::RemapStrategy::kOdpPrefetch;
  sim::RnicModel rnic_model = sim::RnicModel::kConnectX5;
  sim::CpuModel cpu_model = sim::CpuModel::kIntelXeon;
  RpcCorrectionStrategy rpc_correction =
      RpcCorrectionStrategy::kThreadMessaging;
  // Lock-free read validation: FaRM-style cacheline versions (the paper's
  // deliberate default) or the §4.2.1 checksum alternative.
  ConsistencyMode consistency = ConsistencyMode::kCachelineVersions;
  // Compaction triggers when granted/used exceeds this per-class ratio.
  double fragmentation_threshold = 1.3;
  // Collection phase: only blocks at or below this occupancy are donated.
  double collection_max_occupancy = 0.9;
  // Upper bound on blocks gathered per compaction run (§4.3.2 discusses an
  // unbounded run causing a long unavailability window).
  size_t compaction_max_blocks = SIZE_MAX;

  // --- Incremental compaction engine (DESIGN.md §9). ---------------------
  // Objects copied per Copy slice. The slice budget bounds how long the
  // leader is away from its RPC ring per engine step; SIZE_MAX approximates
  // the old monolithic behaviour (whole pair in one slice).
  size_t compaction_slice_objects = 32;
  // Candidate pairs conflict-checked per ConflictCheck slice (each check is
  // an ID-map walk, the §3.1.2 exact disjointness test).
  size_t compaction_slice_pairs = 4;
  // Wall-clock budget for the Collect phase: a worker that never answers
  // its Collect message (fault site compaction.collect_stall) converts to
  // kTimeout instead of hanging the leader.
  uint64_t compaction_collect_deadline_ns = 2'000'000'000;
  // Background scheduler: a duty-cycled thread polls per-class
  // fragmentation every interval and feeds over-threshold classes to the
  // engine, replacing ad-hoc CompactIfFragmented call sites.
  bool background_compaction = false;
  uint64_t compaction_check_interval_us = 2000;
  // Test-only: invoked on the leader thread at every phase transition (the
  // new phase is passed). May block — the engine then pauses between
  // slices, which is exactly what the resumability tests need.
  std::function<void(CompactionPhase)> compaction_phase_hook;
  // Back blocks with 2 MiB huge pages (modeled remap cost per 2 MiB unit;
  // paper §3.1.1, §4.3.1).
  bool huge_pages = false;
  size_t max_frames = 0;  // simulated DRAM cap; 0 = unlimited
  uint64_t seed = 42;
  // Two-sided message rate of the server NIC (Send/Recv); every RPC costs
  // two messages, so ops saturate at half this rate (Fig. 12). 0 = no cap.
  uint64_t nic_msg_rate = 1'400'000;

  // --- Remote synchronization (DESIGN.md §12). ----------------------------
  // Client read/write synchronization scheme (the §12 shootout knob):
  // optimistic versioned reads or an RDMA-CAS spinlock. Snapshot validation
  // stays on in every scheme.
  sync::SchemeKind sync_scheme = sync::SchemeKind::kOptimistic;
  // How long a waiter watches an unchanged held lock word before stealing
  // it (crashed-holder recovery, fault site sync.holder_crash).
  uint64_t sync_lease_ns = 2'000'000;

  // --- Keyed index (DESIGN.md §13). --------------------------------------
  // Buckets in this node's registered index table (4-way buckets, two
  // candidate buckets per key — capacity 8×buckets/2 keys at worst case,
  // ~3×buckets keys comfortably). The table is the authoritative
  // key→pointer map, so a full bucket pair rejects the insert rather than
  // evicting.
  size_t index_buckets = 512;

  sim::LatencyModel MakeLatencyModel() const {
    return sim::LatencyModel{rnic_model, cpu_model};
  }
};

// Every node counter, defined once: each X(name) entry below generates a
// StatCounter in NodeStatShard, a uint64_t of the same name in NodeStats and
// its sum term in CormNode::stats(), so the three cannot drift apart. The
// comment beside an entry says what its increment sites count. Workers bump
// their own shard; client threads (contexts, replicated contexts, cluster
// failover) and the background scheduler bump the overflow shard through
// client_stat_shard().
#define CORM_NODE_COUNTERS(X)                                                 \
  /* Worker RPC service and pointer correction (§3.2) */                      \
  X(rpc_allocs)                    /* Alloc RPCs served */                    \
  X(rpc_frees)                     /* Free RPCs served */                     \
  X(rpc_reads)                     /* Read RPCs served */                     \
  X(rpc_writes)                    /* Write RPCs served */                    \
  X(rpc_releases)                  /* block-release RPCs served */            \
  X(corrections_messaging)         /* stale hints sent to the block owner */  \
  X(corrections_scan)              /* block scans for an object ID */         \
  X(forwarded_ops)                 /* RPCs forwarded to the block's owner */  \
  /* Compaction (§3.1; engine in DESIGN.md §9) */                             \
  X(compaction_runs)               /* runs started, refused ones included */  \
  X(blocks_compacted)              /* source blocks merged and retired */     \
  X(objects_moved)                 /* objects copied to a new offset */       \
  X(objects_offset_preserved)      /* objects copied to the same offset */    \
  X(compaction_slices)             /* engine slices run */                    \
  X(compaction_phase_transitions)  /* phase changes across runs */            \
  X(compaction_planner_rejections) /* planned pairs the exact check killed */ \
  X(compaction_bytes_copied)       /* payload bytes copied */                 \
  X(compaction_timeouts)           /* runs aborted on a deadline */           \
  X(compaction_bg_runs)            /* runs the background scheduler began */  \
  X(ghosts_released)               /* ghost ranges released (§3.3) */         \
  /* Worker data plane */                                                     \
  X(old_pointer_uses)              /* objects resolved via a ghost base */    \
  X(id_draw_fallbacks)             /* ID draws that fell back to a scan */    \
  X(dir_cache_hits)                /* worker directory-cache hits */          \
  X(dir_cache_misses)              /* worker directory-cache misses */        \
  X(rpc_batches)                   /* ring polls that returned >= 1 RPC */    \
  X(rpc_polled)                    /* RPCs those polls carried */             \
  /* Idle parking on the worker's doorbell (DESIGN.md §7.3) */                \
  X(worker_parks)                  /* doorbell sleeps entered */              \
  X(worker_park_wakes)             /* sleeps ended by a ring */               \
  X(worker_park_timeouts)          /* sleeps that ran to the cap */           \
  /* Replicated log (DESIGN.md §11): ship side on the primary's */            \
  /* overflow shard, apply side on the worker draining the ring */            \
  X(repl_ship_records)             /* records written into replica rings */   \
  X(repl_acked_writes)             /* writes acked, degraded ones included */ \
  X(repl_degraded_writes)          /* writes that lost a replica */           \
  X(repl_quorum_timeouts)          /* writes whose quorum never formed */     \
  X(repl_failovers)                /* primary failovers executed */           \
  X(repl_seals)                    /* epoch seals shipped by failover */      \
  X(repl_stale_reads)              /* replica copies rejected on read */      \
  X(repl_anti_entropy_repairs)     /* replicas the sweep re-shipped */        \
  X(repl_applied_records)          /* records applied */                      \
  X(repl_fenced_records)           /* stale-epoch records rejected */         \
  X(repl_apply_dups)               /* duplicate or old-version records */     \
  X(repl_apply_orphans)            /* dropped: object freed or too small */   \
  /* Remote sync and doorbell batching (DESIGN.md §12); overflow shard */     \
  X(sync_lock_acquires)            /* locks or read admissions obtained */    \
  X(sync_lock_conflicts)           /* attempts that saw a competing holder */ \
  X(sync_lock_steals)              /* expired leases whose slot was stolen */ \
  X(sync_lock_timeouts)            /* acquire retry budgets exhausted */      \
  X(doorbell_batches)              /* chained posts, one doorbell each */     \
  X(doorbell_batched_wrs)          /* WRs those chains carried */             \
  /* Keyed index (DESIGN.md §13) */                                           \
  X(index_lookups)                 /* keyed ops started (Get/Put/Del) */      \
  X(index_one_sided_hits)          /* keyed ops resolved without an RPC */    \
  X(index_rpc_fallbacks)           /* kIndexLookup/kIndexPut RPCs served */   \
  X(index_repairs)                 /* bucket entries rewritten or unlinked */ \
  X(index_fenced_entries)          /* live entries fenced by an epoch seal */ \
  X(index_rehomes)                 /* key ranges taken from a dead node */

// One worker's cacheline-padded block of node counters. Workers only ever
// touch their own shard (plus an overflow shard for non-worker threads), so
// data-plane increments never share a cacheline (see sharded_counters.h).
struct NodeStatShard {
#define CORM_NODE_SHARD_FIELD(name) StatCounter name;
  CORM_NODE_COUNTERS(CORM_NODE_SHARD_FIELD)
#undef CORM_NODE_SHARD_FIELD
};

// Aggregated snapshot of the sharded counters (CormNode::stats()): a flat
// struct of uint64_t, one per CORM_NODE_COUNTERS entry, then two fields
// with no shard behind them. A read concurrent with increments is a
// momentary snapshot.
struct NodeStats {
#define CORM_NODE_STATS_FIELD(name) uint64_t name = 0;
  CORM_NODE_COUNTERS(CORM_NODE_STATS_FIELD)
#undef CORM_NODE_STATS_FIELD
  // Read from the node's PhysicalMemory, not the shards (DESIGN.md §7.6):
  // frame slabs freed by epoch reclamation (a counter), and slabs whose
  // last frame died but whose host bytes still wait for a guard to close
  // (a gauge; a quiescent node drains it to 0).
  uint64_t frame_slabs_reclaimed = 0;
  uint64_t frame_slabs_retired = 0;
};

// Result of one compaction run.
struct CompactionReport {
  uint32_t class_idx = 0;
  size_t blocks_collected = 0;
  size_t blocks_freed = 0;
  size_t objects_moved = 0;
  size_t objects_relocated = 0;  // subset that changed offset (indirect)
  uint64_t collection_ns = 0;    // modeled duration of the collect stage
  uint64_t compaction_ns = 0;    // modeled duration of the merge stage
  // Engine-era fields (DESIGN.md §9).
  size_t slices = 0;               // Step() slices the run consumed
  size_t planner_candidates = 0;   // pairs the probability planner proposed
  size_t planner_rejections = 0;   // of those, killed by the exact ID check
};

class Worker;            // defined in worker.h (internal)
class CompactionEngine;  // defined in compaction_engine.h (internal)

class CormNode {
 public:
  explicit CormNode(CormConfig config);
  ~CormNode();

  CormNode(const CormNode&) = delete;
  CormNode& operator=(const CormNode&) = delete;

  // --- Client-visible endpoints. ---------------------------------------
  rdma::RpcQueue* rpc_queue() { return &rpc_queue_; }
  rdma::Rnic* rnic() { return rnic_.get(); }
  const CormConfig& config() const { return config_; }
  const alloc::SizeClassTable& classes() const { return classes_; }
  size_t block_bytes() const { return config_.block_pages * sim::kVPageSize; }
  sim::LatencyModel latency_model() const {
    return config_.MakeLatencyModel();
  }

  // --- Fault shims (chaos/testing). --------------------------------------
  // Models a node whose CPU stops serving inbound RPCs (the crash half the
  // reachability flag in dsm::Cluster cannot express): workers finish the
  // requests they already dequeued (up to one drained batch), then stop
  // polling the RPC rings until ResumeService(). Intra-node control
  // messages (corrections, compaction, audits) keep flowing so the control
  // plane and teardown never wedge on a crashed node.
  void PauseService() { paused_.store(true, std::memory_order_release); }
  // Rings every worker: the requests and log records that queued up while
  // the node was paused are served at once, not after a park timeout.
  void ResumeService() {
    paused_.store(false, std::memory_order_release);
    rpc_queue_.RingAll();
  }
  bool IsServingRequests() const {
    return !paused_.load(std::memory_order_acquire);
  }

  // --- Control plane (callable from any non-worker thread). -------------
  // Runs one compaction of `class_idx` through the leader worker's sliced
  // engine and waits for the report. The leader keeps serving data-plane
  // RPCs between engine slices, so this no longer stalls the node; a worker
  // that never answers the Collect fan-out converts to kTimeout via the
  // engine's bounded Collect phase.
  Result<CompactionReport> Compact(uint32_t class_idx);

  // Compacts every class whose fragmentation ratio exceeds the configured
  // threshold (§3.1.3). Returns one report per compacted class.
  Result<std::vector<CompactionReport>> CompactIfFragmented();

  // Per-class fragmentation, gathered from the workers via messages.
  std::vector<alloc::ClassFragmentation> Fragmentation();

  // Physical memory currently granted (bytes): live frames * 4 KiB.
  uint64_t ActiveMemoryBytes() const;
  // Reserved virtual address space (bytes).
  uint64_t VirtualMemoryBytes() const;

  // --- Bulk loaders (bypass the RPC path; for tests & benchmarks). -------
  // Allocates `count` objects of `payload_size` bytes spread round-robin
  // across workers; each object is filled with a deterministic pattern
  // derived from its index.
  Result<std::vector<GlobalAddr>> BulkAlloc(size_t count, size_t payload_size);
  // Frees the given objects (routed to their owning workers).
  Status BulkFree(const std::vector<GlobalAddr>& addrs);

  // Aggregated counter snapshot (sums the per-worker shards).
  NodeStats stats() const;

  // Size class whose payload capacity fits `payload_size`.
  Result<uint32_t> ClassForPayload(uint32_t payload_size) const;

  // True when the object-ID space addresses every slot of a block of this
  // class, so IDs are unique per block, the ID map is kept and the class
  // can be compacted (§4.4.1).
  bool ClassCompactable(uint32_t class_idx) const;

  // Number of unreleased ghost virtual ranges (testing / diagnostics).
  size_t vaddr_ghosts_for_testing() const {
    return vaddr_tracker_.NumGhosts();
  }

  // Direct access to the sharded directory (lock-free-read assertion test).
  const BlockDirectory& directory_for_testing() const { return directory_; }

  // Human-readable node report: per-class fragmentation, memory, ghost and
  // operation counters. For operators and examples.
  std::string DebugReport();

  // Full-node invariant audit: every worker cross-checks its thread
  // allocator on-thread (bitmap/ID-map/counter consistency, non-full stack
  // integrity), then the block allocator's lifecycle counters are verified.
  // Always compiled — tests call it directly; the CORM_AUDIT build adds
  // per-operation hooks on top. Callable from any non-worker thread.
  Status Audit();

  // Single-block audit, used by the compaction leader after every merge and
  // by tests: the directory must resolve the block's base (and each ghost
  // alias) back to it, every quiescent live slot's header must agree with
  // the block's ID map, class and home-block directory entry, and the
  // payload consistency metadata (cacheline versions / checksum) must
  // validate. Slots under a concurrent write are skipped via the seqlock.
  Status AuditBlock(const alloc::Block& block);

  // Background compaction scheduler control (config.background_compaction
  // starts it at construction; these let tests and operators toggle it).
  void StartBackgroundCompaction();
  void StopBackgroundCompaction();

  // --- Background task registry (DESIGN.md §11). -------------------------
  // Registers `task` with the duty-cycled scheduler thread: it runs once
  // per tick while the node is serving (the same gate the compaction pass
  // uses). Returns a handle for UnregisterBackgroundTask, which blocks
  // until any in-progress tick of the task has finished — after it returns,
  // the task will never run again and its captures may be destroyed.
  int RegisterBackgroundTask(std::function<void()> task);
  void UnregisterBackgroundTask(int id);

  // --- Replicated-log ingress (DESIGN.md §11). ---------------------------
  // Remote-access coordinates of one ingress ring, handed to the primary's
  // ReplicaLogShipper at session setup.
  struct ReplIngressCoords {
    int id = 0;
    sim::VAddr base = 0;
    rdma::RKey r_key = 0;
    uint32_t slots = 0;
    uint32_t slot_bytes = 0;
  };
  // Creates a sequenced ingress ring in this node's registered memory.
  // Ring `id` is drained (and its records applied in sequence order) by
  // worker `id % num_workers` between RPC batches. Rings live until node
  // teardown — like RPC rings, they are connection state, not data.
  Result<ReplIngressCoords> CreateReplIngress(uint32_t slots,
                                              uint32_t slot_bytes);

  // Stat shard for non-worker threads (clients, control plane): the
  // replication layer attributes its ship-side counters to the primary
  // node through this.
  NodeStatShard& client_stat_shard() { return stat_shard(-1); }

  // --- Sync-lock table (DESIGN.md §12). ----------------------------------
  // Lock words in the table (objects hash to slots; collisions are safe,
  // just extra contention).
  static constexpr uint32_t kSyncLockSlots = 1024;
  // Remote-access coordinates of this node's sync-lock table:
  // kSyncLockSlots lock words hashed by object address. Registered (ODP)
  // at construction, like a repl ring.
  sync::LockTableCoords sync_table() const {
    sync::LockTableCoords coords;
    coords.base = sync_table_base_;
    coords.r_key = sync_table_keys_.r_key;
    coords.slots = kSyncLockSlots;
    return coords;
  }

  // --- Keyed index table (DESIGN.md §13). --------------------------------
  // Remote-access coordinates of this node's index bucket table: word 0 is
  // the index fence epoch, buckets follow the 64-byte header. Registered
  // (ODP) at construction like the sync-lock table.
  index::IndexTableCoords index_table() const {
    index::IndexTableCoords coords;
    coords.base = index_table_base_;
    coords.r_key = index_table_keys_.r_key;
    coords.buckets = index_buckets_;
    return coords;
  }
  // Node-side seqlocked view over the same memory (workers, the compaction
  // engine's IndexRepair sub-phase, and the DSM re-home path go through
  // it).
  index::IndexTable* index_view() { return index_view_.get(); }
  // Current index fence epoch (word 0 of the table).
  uint64_t IndexEpoch() const;
  // Bumps the index epoch, instantly fencing every earlier entry: a
  // one-sided lookup that matches a fenced entry must revalidate through
  // the RPC path, which re-mints the entry under the new epoch. Invoked by
  // the DSM layer when a re-homed node revives holding pre-crash entries.
  // Counts the newly fenced live entries into index_fenced_entries.
  void SealIndexEpoch();

 private:
  friend class Worker;
  friend class CompactionEngine;

  // Block directory entry: maps a live *virtual block base* (current blocks
  // and ghost aliases) to the Block that owns the bytes behind it.
  using DirectoryEntry = BlockDirectory::Entry;

  // Lock-free read (see block_directory.h for the safety argument).
  DirectoryEntry LookupBlock(sim::VAddr base) const {
    return directory_.Lookup(base);
  }
  void DirectoryInsert(sim::VAddr base, alloc::Block* block, bool is_alias) {
    directory_.Insert(base, block, is_alias);
  }
  void DirectoryErase(sim::VAddr base) { directory_.Erase(base); }

  // Compaction remap of src into dst with all node-level bookkeeping
  // (directory retarget, ghost tracking) serialized under the alias lock.
  // Returns the modeled remap duration; the caller paces it afterwards.
  Result<uint64_t> MergeRemap(alloc::Block* src, alloc::Block* dst);

  // Releases a ghost virtual range after its last homed object died.
  void ReleaseGhostAction(const GhostToRelease& ghost);

  // Retires a merged-away source or destroyed block. The Block object stays
  // alive in the graveyard for the node's lifetime so that in-flight
  // references from other workers (correction routing, scans, stale
  // lock-free directory reads) never dangle.
  void RetireBlock(std::unique_ptr<alloc::Block> block);

  // Binds the calling thread to worker `id` for stat-shard attribution.
  void BindWorkerThread(int id);
  // The calling thread's stat shard: its worker's shard on a worker thread,
  // the overflow shard (index num_workers) otherwise.
  NodeStatShard& CurrentStatShard();
  NodeStatShard& stat_shard(int worker_id) {
    const bool is_worker = worker_id >= 0 && worker_id < config_.num_workers;
    return stat_shards_.shard(
        is_worker ? static_cast<size_t>(worker_id)
                  : static_cast<size_t>(config_.num_workers));
  }

  Worker* worker(int idx) { return workers_[idx].get(); }
  int num_workers() const { return config_.num_workers; }

  const CormConfig config_;
  alloc::SizeClassTable classes_;

  // Substrate. Order matters for destruction (reverse of declaration).
  std::unique_ptr<sim::PhysicalMemory> phys_;
  std::unique_ptr<sim::AddressSpace> space_;
  std::unique_ptr<sim::MemFileManager> files_;
  std::unique_ptr<rdma::Rnic> rnic_;
  std::unique_ptr<alloc::BlockAllocator> block_allocator_;

  rdma::RpcQueue rpc_queue_;
  VaddrTracker vaddr_tracker_;
  Sharded<NodeStatShard> stat_shards_;

  // Sharded, lock-free-read block directory (replaces the old
  // RankedSharedMutex + unordered_map; see block_directory.h).
  BlockDirectory directory_;

  // Serializes ghost-alias-list mutation (Block::aliases()) between the
  // compaction remap retarget and the last-object ghost release — the role
  // the old whole-directory lock played. Ranked below the directory shard
  // locks so both paths may update directory entries while holding it.
  RankedSpinLock alias_mu_{LockRank::kAliasList};

  // Leaf lock: push-only until node teardown.
  RankedSpinLock graveyard_mu_{LockRank::kGraveyard};
  std::vector<std::unique_ptr<alloc::Block>> graveyard_
      GUARDED_BY(graveyard_mu_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  // Replicated-log ingress registry. Fixed capacity, pre-sized at
  // construction: workers scan [0, repl_ingress_count_) lock-free between
  // RPC batches, so the vector must never reallocate. Appends serialize on
  // repl_ingress_mu_ and publish by release-storing the new count.
  // Declared after rnic_/space_ (rings deregister through both on
  // destruction, so they must be destroyed first).
  static constexpr size_t kMaxReplIngress = 512;
  RankedSpinLock repl_ingress_mu_{LockRank::kReplIngress};
  std::vector<std::unique_ptr<rdma::ReplLogRing>> repl_ingress_;
  std::atomic<size_t> repl_ingress_count_{0};

  // Sync-lock table backing state (mapped + registered in the constructor,
  // torn down explicitly in ~CormNode after the threads join — it needs
  // rnic_ and space_ alive).
  sim::VAddr sync_table_base_ = 0;
  size_t sync_table_pages_ = 0;
  rdma::MrKeys sync_table_keys_;

  // Keyed index table backing state (same lifecycle as the sync table).
  sim::VAddr index_table_base_ = 0;
  size_t index_table_pages_ = 0;
  rdma::MrKeys index_table_keys_;
  uint32_t index_buckets_ = 0;
  std::unique_ptr<index::IndexTable> index_view_;

  // Background scheduler (DESIGN.md §9, generalized in §11): one
  // duty-cycled thread that runs the compaction pass (when
  // sched_compact_ is set) and every registered background task per tick.
  // The thread exists while either client needs it; sched_running_ guards
  // Start/Stop idempotence.
  void BackgroundSchedulerLoop();
  void EnsureSchedulerThread();
  void StopSchedulerThreadIfIdle();
  std::thread sched_thread_;
  std::atomic<bool> sched_stop_{false};
  bool sched_running_ = false;
  std::atomic<bool> sched_compact_{false};
  // Outermost-ranked: tasks run while it is held (that is what gives
  // UnregisterBackgroundTask its blocks-until-done guarantee) and may take
  // any CoRM lock underneath.
  RankedSpinLock sched_tasks_mu_{LockRank::kScheduler};
  std::vector<std::pair<int, std::function<void()>>> sched_tasks_
      GUARDED_BY(sched_tasks_mu_);
  int sched_task_next_id_ GUARDED_BY(sched_tasks_mu_) = 0;
};

}  // namespace corm::core

#endif  // CORM_CORE_CORM_NODE_H_
