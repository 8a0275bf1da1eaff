// corm-hotpath
#include "core/worker.h"

#include <algorithm>
#include <cstring>

#include "common/cpu_relax.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/sanitizer.h"
#include "common/thread_annotations.h"
#include "core/compaction_engine.h"
#include "core/object_layout.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::core {

Worker::Worker(CormNode* node, int id)
    : node_(node),
      id_(id),
      allocator_(id, node->block_allocator_.get()),
      doorbell_(node->rpc_queue()->doorbell(id)),
      inbox_(1024),
      rng_(node->config().seed * 7919 + static_cast<uint64_t>(id) + 1),
      stats_(node->stat_shard(id)),
      dir_cache_(kDirCacheSlots) {  // NOLINT(corm-hotpath-alloc) ctor only
  static_assert((kDirCacheSlots & (kDirCacheSlots - 1)) == 0,
                "direct-mapped cache wants a power-of-two slot count");
  // NOLINT(corm-hotpath-alloc) ctor only
  engine_ = std::make_unique<CompactionEngine>(node, this);
}

Worker::~Worker() = default;

void Worker::Send(WorkerMsg msg) {
  while (!inbox_.TryPush(msg)) {
    CpuRelax();
  }
  doorbell_->Ring();
}

void Worker::Run() {
  node_->BindWorkerThread(id_);
  rdma::RpcMessage* batch[kPollBatch];
  // The current dry spell's spin budget, started by its first dry poll; any
  // work ends the spell. A park does not: a wake that finds no work parks
  // again at once instead of spinning a fresh budget.
  bool dry = false;
  Deadline spin(kSpinBeforeParkNs);
  // Run loop, not a completion wait: bounded by stop_. NOLINT(corm-spin-wait)
  while (!node_->stop_.load(std::memory_order_relaxed)) {
    if (PollOnce(batch)) {
      dry = false;
      // Outside the poll's guard: frees slabs this poll retired, once no
      // other translator can still hold them (DESIGN.md §7.6).
      node_->phys_->ReclaimRetired();
      continue;
    }
    // Idle. Keep polling (CpuRelax yields, so the threads we might be
    // blocking still run) until the budget is spent: a closed-loop client's
    // next request lands within microseconds and finds us awake, with no
    // futex wake on its path. Past the budget, park. On an oversubscribed
    // host this removes idle workers from the scheduler rotation that every
    // RPC round trip must traverse.
    if (!dry) {
      dry = true;
      spin = Deadline(kSpinBeforeParkNs);
    }
    if (!spin.Expired()) {
      CpuRelax();
      continue;
    }
    // Park: arm the doorbell, re-poll, and only then sleep (the completion-
    // channel pattern: ibv_req_notify_cq, poll the CQ once more, then
    // ibv_get_cq_event). Work published before a producer's Ring() that
    // missed the arm is found by the re-poll; any later Ring() wakes the
    // sleep. The futex timeout is only a safety net. Retired frames are
    // freed first, so a quiescent node holds no host memory for them.
    node_->phys_->ReclaimRetired();
    const uint32_t key = doorbell_->Arm();
    parked_.store(true, std::memory_order_relaxed);
    if (node_->stop_.load(std::memory_order_relaxed) ||
        PollOnce(batch)) {
      doorbell_->Disarm();
      dry = false;
    } else {
      ++stats_.worker_parks;
      if (doorbell_->Wait(key, kParkTimeoutNs) == Doorbell::WaitResult::kRung) {
        ++stats_.worker_park_wakes;
      } else {
        ++stats_.worker_park_timeouts;
      }
    }
    parked_.store(false, std::memory_order_relaxed);
  }
  // Stop raced an active run: complete its request (the control-plane
  // caller is still spinning on it) and hand collected blocks back.
  sim::FrameEpoch::Guard epoch;
  engine_->Shutdown();
}

bool Worker::PollOnce(rdma::RpcMessage** batch) {
  // Every frame pointer this poll translates (slot pointers, ring records,
  // compaction copies) stays readable until the poll returns, even if a
  // remap retires its frame meanwhile (DESIGN.md §7.6). One guard per
  // poll: it never spans a park.
  sim::FrameEpoch::Guard epoch;
  if (auto msg = inbox_.TryPop()) {
    HandleInbox(*msg);
    return true;
  }
  bool worked = false;
  // A paused node (injected crash) stops serving inbound RPCs; queued
  // requests stall until ResumeService or a restart purge, and clients
  // time out per their RetryPolicy.
  if (node_->IsServingRequests()) {
    size_t n = node_->rpc_queue()->PollBatch(id_, batch, kPollBatch);
    if (n == 0) {
      // Steal — but only from rings whose owner is parked. An awake owner
      // drains its own ring faster than we can, and racing it for its
      // traffic would reset every idle sibling's dry-spell counter,
      // keeping the whole pool spinning on load one worker could serve.
      // A parked owner's ring, by contrast, has nobody else on it until
      // its doorbell wakes the owner.
      const int nw = node_->num_workers();
      for (int i = 1; i < nw && n == 0; ++i) {
        const int r = (id_ + i) % nw;
        if (node_->worker(r)->parked()) {
          n = node_->rpc_queue()->PollBatch(r, batch, kPollBatch);
        }
      }
    }
    if (n > 0) {
      ++stats_.rpc_batches;
      stats_.rpc_polled += n;
      for (size_t i = 0; i < n; ++i) {
        HandleRpc(batch[i], /*forwarded=*/false);
        // One inbox message between batch items: forwarded ops and
        // correction replies stay responsive under a deep ring.
        if (auto msg = inbox_.TryPop()) HandleInbox(*msg);
      }
      worked = true;
    }
    // Replicated-log ingress (DESIGN.md §11): apply in-sequence records
    // after the RPC batch, behind the same serving gate — a paused
    // (crashed) node stops applying, and its ring records wait in the
    // registered memory until restart.
    if (DrainReplIngress() > 0) worked = true;
  }
  // One compaction slice per poll, strictly *after* the RPC batch: an
  // active run cannot starve the data plane (the point of the sliced
  // engine), and — load-bearing for fairness — at least one ring batch is
  // served between a run finishing and the next run's Select detaching
  // blocks, so owner-bound ops (Free) that bounced off in-transit blocks
  // get a guaranteed window in which to land.
  if (engine_->active()) {
    engine_->Step();
    worked = true;
  }
  return worked;
}

void Worker::HandleInbox(WorkerMsg& msg) {
  switch (msg.kind) {
    case WorkerMsg::Kind::kForwardedRpc:
      HandleRpc(msg.rpc, /*forwarded=*/true);
      break;
    case WorkerMsg::Kind::kCorrection: {
      // Only the current owner may touch block metadata; if ownership moved
      // while the query was in flight, the requester re-routes.
      if (msg.block->owner_thread() == id_) {
        msg.correction->owned = true;
        const auto slot = msg.block->FindId(msg.obj_id);
        msg.correction->found = slot.has_value();
        msg.correction->slot = slot.value_or(0);
      } else {
        msg.correction->found = false;
      }
      msg.correction->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kCollect: {
      if (auto* fi = sim::GlobalFaultInjector(); fi != nullptr &&
          fi->ShouldFire(sim::fault_sites::kCompactionCollectStall)) {
        // Injected stalled collector: swallow the message without ever
        // publishing the reply. The leader's Collect deadline must convert
        // this into kTimeout (the reply slot survives as an engine zombie).
        break;
      }
      msg.collect->blocks = allocator_.CollectBlocks(
          msg.class_idx, msg.max_occupancy, msg.max_blocks);
      msg.collect->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kStats: {
      const uint32_t n = node_->classes().num_classes();
      // Control-plane snapshot (kStats), never the serving path; the reply
      // vectors are sized once per request. NOLINT(corm-hotpath-alloc)
      msg.stats->granted.resize(n);
      msg.stats->used.resize(n);   // NOLINT(corm-hotpath-alloc) control plane
      msg.stats->nblocks.resize(n);  // NOLINT(corm-hotpath-alloc) see above
      for (uint32_t c = 0; c < n; ++c) {
        msg.stats->granted[c] = allocator_.GrantedBytes(c);
        msg.stats->used[c] = allocator_.UsedBytes(c);
        msg.stats->nblocks[c] = allocator_.NumBlocks(c);
      }
      msg.stats->done.store(true, std::memory_order_release);
      break;
    }
    case WorkerMsg::Kind::kCompact:
      // Queued into the engine; Run() drives it one slice per loop
      // iteration, interleaved with RPC batches.
      engine_->Enqueue(msg.compact);
      break;
    case WorkerMsg::Kind::kBulk:
      HandleBulk(msg.bulk);
      break;
    case WorkerMsg::Kind::kAudit: {
      // Runs between operations on this thread, so the allocator is
      // quiescent; pass the compactability rule so ID-map checks apply
      // exactly to the classes that maintain the map.
      msg.audit->status =
          allocator_.Audit([this](uint32_t c) { return ClassCompactable(c); });
      msg.audit->done.store(true, std::memory_order_release);
      break;
    }
  }
}

// Charges modeled server-side processing time to the RPC: paces the worker
// and reports the duration back to the client for latency accounting.
namespace {
void Charge(rdma::RpcMessage* rpc, uint64_t ns) {
  rpc->server_extra_ns += ns;
  sim::Pace(ns);
}

// ClaimHeader spin bounds (DESIGN.md §6.3): an RPC handler waits out a
// writer lock for 4,096 retries; the log applier for 64, because a record
// it defers simply stays at the ring head for the next drain pass.
constexpr int kClaimSpins = 4096;
constexpr int kApplyClaimSpins = 64;

// An RPC handler's verdict on a claim that did not land: busy is
// ObjectLocked, gone is the caller's `gone`.
Status ClaimFailure(const HeaderClaim& claim, Status gone) {
  if (claim.outcome == ClaimOutcome::kGone) return gone;
  return Status::ObjectLocked(claim.header().lock == LockState::kCompacting
                                  ? "object under compaction"
                                  : "object write-locked");
}
}  // namespace

void Worker::HandleRpc(rdma::RpcMessage* rpc, bool forwarded) {
  switch (PeekOp(rpc->request)) {
    case RpcOp::kAlloc:
      HandleAlloc(rpc);
      break;
    case RpcOp::kFree:
      HandleFree(rpc, forwarded);
      break;
    case RpcOp::kRead:
      HandleRead(rpc);
      break;
    case RpcOp::kWrite:
      HandleWrite(rpc);
      break;
    case RpcOp::kReleasePtr:
      HandleReleasePtr(rpc);
      break;
    case RpcOp::kIndexLookup:
      HandleIndexLookup(rpc);
      break;
    case RpcOp::kIndexPut:
      HandleIndexPut(rpc);
      break;
    case RpcOp::kIndexRemove:
      HandleIndexRemove(rpc);
      break;
    default:
      rpc->Complete(Status::InvalidArgument("unknown RPC opcode"));
  }
}

// ---------------------------------------------------------------------------
// Allocation.
// ---------------------------------------------------------------------------

bool Worker::ClassCompactable(uint32_t class_idx) const {
  const int bits = node_->config().object_id_bits;
  if (bits <= 0) return false;
  const uint64_t id_space = 1ULL << bits;
  const uint64_t slots =
      node_->block_bytes() / node_->classes().ClassSize(class_idx);
  return slots <= id_space;
}

Result<uint16_t> Worker::DrawObjectId(alloc::Block* block) {
  const int bits = std::min(node_->config().object_id_bits, 16);
  const uint16_t mask =
      bits >= 16 ? 0xffff : static_cast<uint16_t>((1u << std::max(bits, 0)) - 1);
  if (!ClassCompactable(block->class_idx())) {
    // Compaction is disabled for this class; IDs need not be unique and the
    // metadata map is not maintained (§4.4.1).
    return static_cast<uint16_t>(rng_.Next() & mask);
  }
  for (int draw = 0; draw < kIdRandomDraws; ++draw) {
    const auto id = static_cast<uint16_t>(rng_.Next() & mask);
    if (!block->HasId(id)) return id;
  }
  // Dense block: each rejection-sampling draw hits a used ID with
  // probability live/space, so an unbounded loop has no worst-case bound.
  // Scan from a random start instead — a compactable class has
  // slots <= id_space and the caller is allocating into a free slot, so a
  // free ID must exist; the randomized start keeps IDs spread out.
  ++stats_.id_draw_fallbacks;
  const uint32_t space = static_cast<uint32_t>(mask) + 1;
  const auto start = static_cast<uint32_t>(rng_.Next() & mask);
  for (uint32_t i = 0; i < space; ++i) {
    const auto id = static_cast<uint16_t>((start + i) & mask);
    if (!block->HasId(id)) return id;
  }
  return Status::Internal("object ID space exhausted in a compactable block");
}

Result<GlobalAddr> Worker::AllocObject(uint32_t payload_size, Slice init) {
  auto class_idx = node_->ClassForPayload(payload_size);
  CORM_RETURN_NOT_OK(class_idx.status());

  auto allocation = allocator_.Alloc(*class_idx);
  CORM_RETURN_NOT_OK(allocation.status());
  alloc::Block* block = allocation->block;
  const uint32_t slot = allocation->slot;
  if (allocation->new_block) {
    node_->DirectoryInsert(block->base(), block, /*is_alias=*/false);
    sim::Pace(node_->latency_model().BlockAllocExtraNs());
  }

  auto id = DrawObjectId(block);
  CORM_RETURN_NOT_OK(id.status());
  if (ClassCompactable(block->class_idx())) {
    CORM_CHECK(block->InsertId(*id, slot));
  }

  uint8_t* ptr = SlotPtr(block->base(), block, slot);
  ObjectHeader h;
  h.version = 1;
  h.lock = LockState::kFree;
  h.class_idx = static_cast<uint8_t>(block->class_idx() & 0x3f);
  h.obj_id = *id;
  h.home_page = HomePageOf(block->base());
  // Stamp the initial payload and the consistency metadata before
  // publishing the header.
  WritePayload(ptr, block->slot_size(), h.version, init.udata(),
               static_cast<uint32_t>(init.size()), node_->config().consistency);
  StoreHeaderWord(ptr, h.Pack());

  node_->vaddr_tracker_.OnAlloc(block->base());

  GlobalAddr addr;
  addr.vaddr = block->SlotAddr(slot);
  addr.r_key = block->keys().r_key;
  addr.obj_id = *id;
  addr.class_idx = static_cast<uint8_t>(*class_idx);
  // The allocating worker owns the block: clients route ownership-bound
  // RPCs straight into this worker's ring.
  addr.SetOwnerHint(id_);
  return addr;
}

void Worker::HandleAlloc(rdma::RpcMessage* rpc) {
  AllocRequest req;
  const Slice init = DecodeRequest(rpc->request, &req);
  ++stats_.rpc_allocs;
  if (req.size > UINT32_MAX || init.size() > req.size) {
    rpc->Complete(Status::InvalidArgument("bad Alloc size"));
    return;
  }
  rpc->server_extra_ns = 0;
  Charge(rpc, node_->latency_model().AllocExtraNs());
  if (!init.empty()) {
    Charge(rpc, node_->latency_model().WriteLockHoldNs(init.size()));
  }
  auto addr = AllocObject(static_cast<uint32_t>(req.size), init);
  if (!addr.ok()) {
    rpc->Complete(addr.status());
    return;
  }
  EncodeResponse(AllocResponse{*addr}, &rpc->response);
  rpc->Complete(Status::OK());
}

// ---------------------------------------------------------------------------
// Object resolution & pointer correction (§3.2).
// ---------------------------------------------------------------------------

uint8_t* Worker::SlotPtr(sim::VAddr base, const alloc::Block* block,
                         uint32_t slot) {
  return node_->space_->TranslatePtr(
      base + static_cast<uint64_t>(slot) * block->slot_size());
}

Result<uint32_t> Worker::CorrectViaScan(const alloc::Block* block,
                                        sim::VAddr base, uint16_t obj_id) {
  ++stats_.corrections_scan;
  const uint32_t slot_size = block->slot_size();
  const uint32_t num_slots = block->num_slots();
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    const uint8_t* ptr = node_->space_->TranslatePtr(
        base + static_cast<uint64_t>(slot) * slot_size);
    if (ptr == nullptr) break;
    const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(ptr));
    if (h.lock != LockState::kTombstone && h.obj_id == obj_id) return slot;
  }
  return Status::NotFound("object ID not found by block scan");
}

Result<uint32_t> Worker::CorrectViaOwner(alloc::Block* block,
                                         uint16_t obj_id) {
  ++stats_.corrections_messaging;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int owner = block->owner_thread();
    if (owner == id_) {
      if (const auto slot = block->FindId(obj_id)) return *slot;
      return Status::NotFound("object ID not present in block");
    }
    if (owner < 0) {
      // Ownership in transit (block collected for compaction, or retired):
      // fall back to scanning through the client-visible bytes, which stay
      // coherent across remaps.
      return CorrectViaScan(block, block->base(), obj_id);
    }
    CorrectionReply reply;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kCorrection;
    msg.block = block;
    msg.obj_id = obj_id;
    msg.correction = &reply;
    node_->worker(owner)->Send(msg);
    // Wait for the reply, serving correction queries addressed to us so two
    // workers correcting into each other's blocks cannot deadlock. This is
    // also the §4.3.2 stall: if the owner is busy compacting, we wait.
    while (!reply.done.load(std::memory_order_acquire)) {  // NOLINT(corm-spin-wait)
      if (auto pending = inbox_.TryPop()) {
        if (pending->kind == WorkerMsg::Kind::kCorrection ||
            pending->kind == WorkerMsg::Kind::kStats ||
            pending->kind == WorkerMsg::Kind::kCollect) {
          HandleInbox(*pending);
        } else {
          Send(*pending);  // requeue; processed after we unblock
        }
      } else {
        CpuRelax();
      }
    }
    if (reply.found) return reply.slot;
    // Decide from the reply, not by re-reading the owner: a compaction run
    // can collect the block and hand it back to the same owner in between.
    // Owned and not found: the ID is gone. Not owned: ownership moved
    // before the owner looked, so retry.
    if (reply.owned) {
      return Status::NotFound("object ID not present in block");
    }
  }
  return Status::Internal("pointer correction ownership churn");
}

// Directory lookup through the worker-private direct-mapped cache.
//
// Freshness: the epoch is read *before* the lookup. If a directory mutation
// lands between the two, the slot caches data at least as fresh as its
// stamp, so the worst case is a conservative refetch on the next access —
// a stamp match can never hide a mutation. A hit whose epoch bump is still
// in flight linearizes as a lookup just before that mutation, exactly the
// schedule a raw lock-free Lookup already admits (see block_directory.h).
CormNode::DirectoryEntry Worker::LookupBlockCached(sim::VAddr base) {
  const uint64_t epoch = node_->directory_.epoch();
  DirCacheSlot& slot =
      dir_cache_[BlockDirectory::Mix(base) & (kDirCacheSlots - 1)];
  if (slot.base == base && slot.epoch == epoch) {
    ++stats_.dir_cache_hits;
    return slot.entry;
  }
  ++stats_.dir_cache_misses;
  slot.entry = node_->LookupBlock(base);
  slot.base = base;
  slot.epoch = epoch;
  return slot.entry;
}

Result<Worker::Resolved> Worker::ResolveObject(const GlobalAddr& addr) {
  const size_t block_bytes = node_->block_bytes();
  const sim::VAddr base = BlockBaseOf(addr.vaddr, block_bytes);
  const CormNode::DirectoryEntry entry = LookupBlockCached(base);
  if (entry.block == nullptr) {
    return Status::StalePointer("virtual block released or never allocated");
  }
  Resolved r;
  r.block = entry.block;
  r.base = base;
  r.old_block = entry.is_alias;
  if (r.old_block) {
    ++stats_.old_pointer_uses;
  }

  // Optimistic hinted access (§3.2): load the header at the hinted offset
  // and compare IDs.
  const uint64_t offset = addr.vaddr - base;
  const uint32_t hint_slot =
      static_cast<uint32_t>(offset / r.block->slot_size());
  if (hint_slot < r.block->num_slots()) {
    uint8_t* ptr = SlotPtr(base, r.block, hint_slot);
    if (ptr != nullptr) {
      const ObjectHeader h = ObjectHeader::Unpack(LoadHeaderWord(ptr));
      if (h.obj_id == addr.obj_id && h.lock != LockState::kTombstone) {
        r.slot = hint_slot;
        r.ptr = ptr;
        return r;
      }
    }
  }

  // Hint is stale: run the configured pointer-correction strategy (§3.2.1).
  Result<uint32_t> slot =
      node_->config().rpc_correction == RpcCorrectionStrategy::kThreadMessaging
          ? CorrectViaOwner(r.block, addr.obj_id)
          : CorrectViaScan(r.block, base, addr.obj_id);
  CORM_RETURN_NOT_OK(slot.status());
  r.slot = *slot;
  r.ptr = SlotPtr(base, r.block, r.slot);
  r.corrected = true;
  return r;
}

// Builds the corrected pointer sent back to the client: same block base the
// client used (old bases stay valid, §3.3), updated offset hint, plus the
// current owner-worker hint for ring affinity on later ops.
namespace {
GlobalAddr CorrectedAddr(const GlobalAddr& in, const Worker::Resolved& r,
                         uint32_t slot_size) {
  GlobalAddr out = in;
  out.vaddr = r.base + static_cast<uint64_t>(r.slot) * slot_size;
  out.flags = r.old_block ? GlobalAddr::kFlagOldBlock : 0;
  out.SetOwnerHint(r.block->owner_thread());
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Read (§3.2.3 consistency via header seqlock on the RPC path).
// ---------------------------------------------------------------------------

// Escape: seqlock reader — consistency comes from re-reading the header
// word around the payload copy (w1 == w2 proves no writer intervened), a
// protocol outside any capability the analyzer can track.
void Worker::HandleRead(rdma::RpcMessage* rpc) NO_THREAD_SAFETY_ANALYSIS {
  ReadRequest req;
  DecodeRequest(rpc->request, &req);
  ++stats_.rpc_reads;

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    rpc->Complete(resolved.status());
    return;
  }
  alloc::Block* block = resolved->block;
  const ConsistencyMode mode = node_->config().consistency;
  if (req.size > PayloadCapacity(block->slot_size(), mode)) {
    rpc->Complete(Status::InvalidArgument("read larger than object payload"));
    return;
  }
  uint8_t* ptr = resolved->ptr;

  ReadResponse resp;
  resp.addr = CorrectedAddr(req.addr, *resolved, block->slot_size());
  resp.size = req.size;
  // Stage the payload in the worker's reusable scratch buffer: resize()
  // only allocates until the high-water mark, so the steady-state read
  // path touches no allocator.
  Buffer& payload = read_scratch_;
  payload.resize(req.size);  // NOLINT(corm-hotpath-alloc) high-water only
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint64_t w1 = LoadHeaderWord(ptr);
    const ObjectHeader h = ObjectHeader::Unpack(w1);
    if (h.lock == LockState::kWriteLocked ||
        h.lock == LockState::kCompacting) {
      rpc->Complete(Status::ObjectLocked("object locked; retry"));
      return;
    }
    if (h.lock == LockState::kTombstone || h.obj_id != req.addr.obj_id) {
      rpc->Complete(Status::ObjectMoved("object moved during read"));
      return;
    }
    ReadPayload(ptr, block->slot_size(), payload.data(), req.size, mode);
    if (LoadHeaderWord(ptr) == w1) {
      // Validation succeeded: the snapshot happened-after the writer's
      // release in WritePayload/StoreHeaderWord (see sanitizer.h).
      CORM_TSAN_ACQUIRE(ptr);
      EncodeResponse(resp, &rpc->response, Slice(payload.data(), req.size));
      rpc->Complete(Status::OK());
      return;
    }
  }
  rpc->Complete(Status::ObjectLocked("object under heavy write contention"));
}

// ---------------------------------------------------------------------------
// Write.
// ---------------------------------------------------------------------------

void Worker::HandleWrite(rdma::RpcMessage* rpc) {
  WriteRequest req;
  Slice payload = DecodeRequest(rpc->request, &req);
  ++stats_.rpc_writes;

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    rpc->Complete(resolved.status());
    return;
  }
  alloc::Block* block = resolved->block;
  const ConsistencyMode mode = node_->config().consistency;
  if (req.size > PayloadCapacity(block->slot_size(), mode) ||
      payload.size() < req.size) {
    rpc->Complete(Status::InvalidArgument("write larger than object payload"));
    return;
  }
  uint8_t* ptr = resolved->ptr;

  const HeaderClaim claim = ClaimHeader(ptr, req.addr.obj_id,
                                        LockState::kWriteLocked, kClaimSpins);
  if (!claim.claimed()) {
    rpc->Complete(ClaimFailure(claim,
                               Status::ObjectMoved("object moved during write")));
    return;
  }
  if (auto* fi = sim::GlobalFaultInjector(); fi != nullptr) {
    uint64_t hold_ns = 0;
    if (fi->ShouldFire(sim::fault_sites::kTornWrite, &hold_ns)) {
      // Injected torn window: publish the new cacheline versions with only
      // a prefix of the payload behind them and linger before the full
      // write below. A concurrent lock-free snapshot lands on a genuinely
      // torn object and must reject it (locked header or version
      // mismatch); the final state is consistent either way.
      WritePayload(ptr, block->slot_size(), NextVersion(claim.header().version),
                   payload.data(), req.size / 2, mode);
      Charge(rpc, hold_ns != 0 ? hold_ns : 2000);
    }
  }
  const uint64_t hold_ns = node_->latency_model().WriteLockHoldNs(req.size);
  rpc->server_extra_ns += hold_ns;
  CommitWrite(ptr, block->slot_size(), claim.word, payload.data(), req.size,
              mode, hold_ns);

  WriteResponse resp;
  resp.addr = CorrectedAddr(req.addr, *resolved, block->slot_size());
  EncodeResponse(resp, &rpc->response);
  rpc->Complete(Status::OK());
}

// ---------------------------------------------------------------------------
// Replicated-log apply path (DESIGN.md §11).
// ---------------------------------------------------------------------------

size_t Worker::DrainReplIngress() {
  const size_t n =
      node_->repl_ingress_count_.load(std::memory_order_acquire);
  if (n == 0) return 0;
  size_t applied = 0;
  const size_t nw = static_cast<size_t>(node_->num_workers());
  for (size_t i = static_cast<size_t>(id_); i < n; i += nw) {
    rdma::ReplLogRing* ring = node_->repl_ingress_[i].get();
    for (int b = 0; b < kReplApplyBatch; ++b) {
      rdma::ReplRecordHeader hdr;
      if (!ring->NextRecord(&hdr, &repl_record_buf_)) break;
      if (!ApplyReplRecord(hdr, repl_record_buf_)) break;
      // Advance only after the record is durably applied (or provably
      // inapplicable): a crash between apply and Advance re-applies on
      // restart, which the version check makes idempotent.
      ring->Advance();
      ++applied;
    }
  }
  return applied;
}

bool Worker::ApplyReplRecord(const rdma::ReplRecordHeader& hdr,
                             const Buffer& payload) {
  GlobalAddr addr;
  static_assert(sizeof(addr) == sizeof(hdr.addr),
                "record address field carries a full GlobalAddr");
  std::memcpy(&addr, hdr.addr, sizeof(addr));

  auto resolved = ResolveObject(addr);
  if (!resolved.ok()) {
    // The object was freed (or never landed): records may outlive objects,
    // so drop it and advance rather than wedging the ring.
    ++stats_.repl_apply_orphans;
    return true;
  }
  alloc::Block* block = resolved->block;
  const ConsistencyMode mode = node_->config().consistency;
  const uint32_t cap = PayloadCapacity(block->slot_size(), mode);
  if (hdr.kind == rdma::kReplRecordData &&
      (payload.size() < sizeof(rdma::ReplObjectHeader) ||
       payload.size() > cap)) {
    ++stats_.repl_apply_orphans;  // image cannot fit this object
    return true;
  }
  uint8_t* ptr = resolved->ptr;

  // Claim the object seqlock as HandleWrite does, but with a short spin
  // bound: a busy object defers the record (it stays at the ring head for
  // the next drain pass) instead of spinning, because this worker must get
  // back to its RPC ring. This deferral is the whole replication/compaction
  // hand-off: while compaction holds the slot, the log simply waits.
  const HeaderClaim claim = ClaimHeader(ptr, addr.obj_id,
                                        LockState::kWriteLocked,
                                        kApplyClaimSpins);
  if (claim.outcome == ClaimOutcome::kBusy) return false;
  if (claim.outcome == ClaimOutcome::kGone) {
    ++stats_.repl_apply_orphans;
    return true;
  }

  // Locked. Read the stored replica-image header and decide.
  rdma::ReplObjectHeader stored;
  ReadPayload(ptr, block->slot_size(), reinterpret_cast<uint8_t*>(&stored),
              sizeof(stored), mode);
  const uint8_t* img = nullptr;  // full image to install, when applying
  size_t img_len = 0;
  if (hdr.kind == rdma::kReplRecordSeal) {
    if (hdr.epoch > stored.epoch && sizeof(stored) + stored.len <= cap) {
      // Seal: rewrite the stored image verbatim with only the epoch bumped.
      // The object crc excludes the epoch by design, so the image stays
      // self-consistent without recomputing payload sums.
      const size_t full = sizeof(stored) + stored.len;
      repl_seal_scratch_.resize(full);  // NOLINT(corm-hotpath-alloc) high-water only
      ReadPayload(ptr, block->slot_size(), repl_seal_scratch_.data(), full,
                  mode);
      stored.epoch = hdr.epoch;
      std::memcpy(repl_seal_scratch_.data(), &stored, sizeof(stored));
      img = repl_seal_scratch_.data();
      img_len = full;
    } else {
      ++stats_.repl_apply_dups;  // already sealed to this epoch or newer
    }
  } else {
    rdma::ReplObjectHeader rec;
    std::memcpy(&rec, payload.data(), sizeof(rec));
    if (hdr.epoch < stored.epoch) {
      // Epoch fence: a record shipped before a failover sealed its epoch
      // must never overwrite post-seal state (fault site repl.seal_race
      // proves this path).
      ++stats_.repl_fenced_records;
    } else if (rec.version <= stored.version) {
      ++stats_.repl_apply_dups;  // retransmit or reordered older write
    } else {
      img = payload.data();
      img_len = payload.size();
    }
  }

  if (img == nullptr) {
    ReleaseClaim(ptr, LockState::kWriteLocked);  // nothing changed
    return true;
  }
  CommitWrite(ptr, block->slot_size(), claim.word, img,
              static_cast<uint32_t>(img_len), mode,
              node_->latency_model().WriteLockHoldNs(img_len));
  ++stats_.repl_applied_records;
  return true;
}

// ---------------------------------------------------------------------------
// Free (ownership-bound: forwarded to the block owner, §3.1.4 invariant).
// ---------------------------------------------------------------------------

void Worker::MaybeReleaseEmptyBlock(alloc::Block* block) {
  if (!block->Empty()) return;
  // An empty block has no live homed objects of its own, and every ghost
  // that aliased it has been released (their homed objects lived here).
  auto owned = allocator_.DetachBlock(block);
  node_->DirectoryErase(owned->base());
  node_->vaddr_tracker_.OnBlockDestroyed(owned->base());
  // The drained descriptor goes to the graveyard: a concurrent lock-free
  // directory reader (or a sibling's cached entry) may still dereference
  // the Block object for a short window after the erase.
  node_->RetireBlock(node_->block_allocator_->DestroyBlock(std::move(owned)));
}

Status Worker::FreeResolved(const Resolved& r) {
  alloc::Block* block = r.block;
  const HeaderClaim claim =
      ClaimHeader(r.ptr, kAnyObjectId, LockState::kTombstone, kClaimSpins);
  if (!claim.claimed()) {
    return ClaimFailure(claim, Status::NotFound("double free"));
  }
  const ObjectHeader h = claim.header();
  if (ClassCompactable(block->class_idx())) block->EraseId(h.obj_id);
  const bool empty = allocator_.Free(block, r.slot);
  auto ghost = node_->vaddr_tracker_.OnFree(HomeVaddrOf(h.home_page));
  if (ghost) node_->ReleaseGhostAction(*ghost);
  if (empty) MaybeReleaseEmptyBlock(block);
  return Status::OK();
}

void Worker::HandleFree(rdma::RpcMessage* rpc, bool forwarded) {
  FreeRequest req;
  DecodeRequest(rpc->request, &req);
  if (!forwarded) {
    // Count on first receipt; the op may be forwarded to the owner.
    ++stats_.rpc_frees;
  }

  // Route to the block owner first (only the owner mutates block metadata).
  const sim::VAddr base = BlockBaseOf(req.addr.vaddr, node_->block_bytes());
  const CormNode::DirectoryEntry entry = LookupBlockCached(base);
  if (entry.block == nullptr) {
    rpc->Complete(Status::StalePointer("virtual block released"));
    return;
  }
  const int owner = entry.block->owner_thread();
  if (owner != id_) {
    if (owner < 0) {
      // Block in transit to the compaction leader; the client retries.
      rpc->Complete(Status::ObjectLocked("block ownership in transit"));
      return;
    }
    ++stats_.forwarded_ops;
    WorkerMsg msg;
    msg.kind = WorkerMsg::Kind::kForwardedRpc;
    msg.rpc = rpc;
    node_->worker(owner)->Send(msg);
    return;  // the owner completes the RPC
  }
  Charge(rpc, node_->latency_model().FreeExtraNs());

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    rpc->Complete(resolved.status());
    return;
  }
  Status st = FreeResolved(*resolved);
  if (st.ok()) {
    FreeResponse resp;
    resp.addr = GlobalAddr{};  // freed: the pointer is dead
    EncodeResponse(resp, &rpc->response);
  }
  rpc->Complete(std::move(st));
}

// ---------------------------------------------------------------------------
// ReleasePtr (§3.3): re-home the object to its current block so the old
// virtual address can be reused once all such objects are released.
// ---------------------------------------------------------------------------

void Worker::HandleReleasePtr(rdma::RpcMessage* rpc) {
  ReleasePtrRequest req;
  DecodeRequest(rpc->request, &req);
  ++stats_.rpc_releases;

  auto resolved = ResolveObject(req.addr);
  if (!resolved.ok()) {
    rpc->Complete(resolved.status());
    return;
  }
  alloc::Block* block = resolved->block;

  // Rewrite the home page to the current block; an object already homed
  // there claims without a store (nothing to release).
  const sim::VAddr new_home = block->base();
  const HeaderClaim claim = ClaimHeader(
      resolved->ptr, req.addr.obj_id,
      [new_home](ObjectHeader h) {
        h.home_page = HomePageOf(new_home);
        return h;
      },
      kClaimSpins);
  if (!claim.claimed()) {
    rpc->Complete(ClaimFailure(
                      claim, Status::ObjectMoved("object moved during release")));
    return;
  }
  const sim::VAddr old_home = HomeVaddrOf(claim.header().home_page);
  if (old_home != new_home) {
    auto ghost = node_->vaddr_tracker_.OnRehome(old_home, new_home);
    if (ghost) node_->ReleaseGhostAction(*ghost);
  }

  // The canonical pointer now lives in the current block.
  ReleasePtrResponse resp;
  resp.addr = req.addr;
  resp.addr.vaddr = block->SlotAddr(resolved->slot);
  resp.addr.r_key = block->keys().r_key;
  resp.addr.flags = 0;
  resp.addr.SetOwnerHint(block->owner_thread());
  EncodeResponse(resp, &rpc->response);
  // Paper §4.1: the release itself adds ~0.3 us on top of the RPC.
  Charge(rpc, 300);
  rpc->Complete(Status::OK());
}

// ---------------------------------------------------------------------------
// Keyed index operations (DESIGN.md §13).
// ---------------------------------------------------------------------------

Result<GlobalAddr> Worker::ResolveIndexEntry(uint64_t key,
                                             const index::IndexEntry& entry) {
  index::IndexTable* table = node_->index_view();
  auto resolved = ResolveObject(entry.addr);
  if (!resolved.ok()) {
    // The entry outlived its object (block released under it). Unlink it so
    // later one-sided probes stop chasing the dangling hint.
    if (table->Remove(key)) ++stats_.index_repairs;
    return Status::NotFound("index entry outlived its object");
  }
  const GlobalAddr canonical =
      CorrectedAddr(entry.addr, *resolved, resolved->block->slot_size());
  const bool fenced =
      entry.fence_epoch != static_cast<uint16_t>(table->Epoch());
  if (fenced || canonical.vaddr != entry.addr.vaddr ||
      canonical.flags != entry.addr.flags) {
    // Self-healing repair: re-mint the entry with the corrected pointer,
    // the live owner hint, and the current epoch, so the next one-sided
    // probe hits without falling back here again.
    if (table->Repair(key, canonical)) ++stats_.index_repairs;
  }
  return canonical;
}

void Worker::HandleIndexLookup(rdma::RpcMessage* rpc) {
  IndexLookupRequest req;
  DecodeRequest(rpc->request, &req);
  // Every kIndexLookup is, by construction, a one-sided probe that gave up
  // (stale hint, torn bucket, fenced entry, or a cold cache): count it as
  // the fallback it is.
  ++stats_.index_rpc_fallbacks;

  index::IndexEntry entry;
  if (!node_->index_view()->Lookup(req.key, &entry)) {
    rpc->Complete(Status::NotFound("key not in index"));
    return;
  }
  auto canonical = ResolveIndexEntry(req.key, entry);
  if (!canonical.ok()) {
    rpc->Complete(canonical.status());
    return;
  }
  EncodeResponse(IndexLookupResponse{*canonical}, &rpc->response);
  rpc->Complete(Status::OK());
}

void Worker::HandleIndexPut(rdma::RpcMessage* rpc) {
  IndexPutRequest req;
  const Slice value = DecodeRequest(rpc->request, &req);
  if (value.size() != req.size) {
    rpc->Complete(Status::InvalidArgument("Put value size mismatch"));
    return;
  }
  // A Put without a cached hint resolves the key here: the same fallback a
  // kIndexLookup counts.
  ++stats_.index_rpc_fallbacks;
  index::IndexTable* table = node_->index_view();

  IndexPutResponse resp;
  resp.existed = 1;
  index::IndexEntry entry;
  if (table->Lookup(req.key, &entry)) {
    auto live = ResolveIndexEntry(req.key, entry);
    if (live.ok()) {
      resp.addr = *live;
      EncodeResponse(resp, &rpc->response);
      rpc->Complete(Status::OK());
      return;
    }
  }

  // Fresh key: the object holds the value before the entry publishes it,
  // so a concurrent Get observes either NotFound or the complete value —
  // never a half-written object behind a live entry.
  Charge(rpc, node_->latency_model().AllocExtraNs() +
                  node_->latency_model().WriteLockHoldNs(req.size));
  auto fresh = AllocObject(req.size, value);
  if (!fresh.ok()) {
    rpc->Complete(fresh.status());
    return;
  }
  GlobalAddr existing;
  Status st = table->Insert(req.key, *fresh, &existing);
  if (st.ok()) {
    resp.addr = *fresh;
    resp.existed = 0;
  } else {
    // Lost the publish race, or the bucket pair is full (or its lock timed
    // out): the object never became visible, so retire it here. This
    // worker allocated it and has not yielded its block since.
    auto mine = ResolveObject(*fresh);
    CORM_CHECK(mine.ok());
    CORM_CHECK(FreeResolved(*mine).ok());
    if (st.code() != StatusCode::kAlreadyExists) {
      rpc->Complete(std::move(st));
      return;
    }
    resp.addr = existing;  // the client writes through the winner's object
  }
  EncodeResponse(resp, &rpc->response);
  rpc->Complete(Status::OK());
}

void Worker::HandleIndexRemove(rdma::RpcMessage* rpc) {
  IndexRemoveRequest req;
  DecodeRequest(rpc->request, &req);

  // Unlink before free: a concurrent keyed lookup sees NotFound rather than
  // a pointer into freed memory.
  index::IndexEntry entry;
  if (!node_->index_view()->Remove(req.key, &entry)) {
    rpc->Complete(Status::NotFound("key not in index"));
    return;
  }
  // The same message becomes the Free of the unlinked object: HandleFree
  // frees it in place when this worker owns the block, else forwards it to
  // the owner over the kForwardedRpc hop.
  EncodeRequest(RpcOp::kFree, FreeRequest{entry.addr}, &rpc->request);
  HandleFree(rpc, /*forwarded=*/false);
}

// ---------------------------------------------------------------------------
// Bulk loader (benchmark/test path, bypasses the RPC wire).
// ---------------------------------------------------------------------------

void Worker::HandleBulk(BulkRequest* req) {
  if (req->is_alloc) {
    // Bulk loader: benchmark/test path, bypasses the RPC wire entirely.
    req->out_addrs.reserve(req->count);  // NOLINT(corm-hotpath-alloc)
    Buffer pattern(req->payload_size);
    for (size_t i = 0; i < req->count; ++i) {
      // Deterministic payload for later verification.
      PatternFill(req->index_base + i, pattern.data(), req->payload_size);
      auto addr =
          AllocObject(req->payload_size, Slice(pattern.data(), pattern.size()));
      if (!addr.ok()) {
        req->status = addr.status();
        break;
      }
      req->out_addrs.push_back(*addr);  // NOLINT(corm-hotpath-alloc) bulk path
    }
  } else {
    std::vector<GlobalAddr> not_mine;
    for (const GlobalAddr& addr : req->free_addrs) {
      const sim::VAddr base = BlockBaseOf(addr.vaddr, node_->block_bytes());
      const CormNode::DirectoryEntry entry = LookupBlockCached(base);
      if (entry.block == nullptr) {
        req->status = Status::StalePointer("bulk free: unknown block");
        continue;
      }
      if (entry.block->owner_thread() != id_) {
        not_mine.push_back(addr);  // NOLINT(corm-hotpath-alloc) bulk path
        continue;
      }
      auto resolved = ResolveObject(addr);
      if (!resolved.ok()) {
        req->status = resolved.status();
        continue;
      }
      Status st = FreeResolved(*resolved);
      if (!st.ok()) req->status = std::move(st);
    }
    req->free_addrs = std::move(not_mine);  // returned for re-routing
  }
  req->done.store(true, std::memory_order_release);
}

}  // namespace corm::core
