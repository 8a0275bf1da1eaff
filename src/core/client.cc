// corm-hotpath
#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "core/object_layout.h"
#include "core/rpc_protocol.h"
#include "index/index_layout.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"
#include "sync/remote_seq.h"

namespace corm::core {

namespace {
// Stripes contexts across the node's RPC rings.
int NextClientRing(int num_rings) {
  static std::atomic<uint32_t> next{0};
  return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<uint32_t>(num_rings));
}

sync::SchemeOptions SchemeOptionsFor(const CormConfig& config,
                                     const Context::Options& options) {
  sync::SchemeOptions so;
  so.lock_retry = options.recovery_retry;
  so.lease_ns = config.sync_lease_ns;
  return so;
}
}  // namespace

Context::Context(CormNode* node, Options options)
    : node_(node),
      options_(options),
      qp_(node->rnic()),
      rpc_(node->rpc_queue(), node->latency_model(), options.rpc_retry),
      ring_(NextClientRing(node->rpc_queue()->num_rings())),
      scratch_(node->block_bytes()),
      batch_scratch_(kBatchChain * node->block_bytes()),
      scheme_(sync::MakeScheme(node->config().sync_scheme, this,
                               node->sync_table(),
                               SchemeOptionsFor(node->config(), options))) {}

std::unique_ptr<Context> Context::Create(CormNode* node, Options options) {
  // Private constructor: make_unique cannot reach it. NOLINT(corm-raw-new)
  return std::unique_ptr<Context>(new Context(node, options));
}

// ---------------------------------------------------------------------------
// Transport helpers.
// ---------------------------------------------------------------------------

Status Context::RpcCallPooled(rdma::RpcMessage** msg, int ring_hint) {
  stats_.rpc_calls++;
  rdma::RpcWireStats wire;
  Status st = rpc_.CallPooled(msg, ring_hint, &wire);
  stats_.modeled_ns_total += wire.network_ns + wire.server_extra_ns;
  if (wire.dup_completion) stats_.dup_completions++;
  if (st.IsTimeout()) stats_.timeouts++;
  if (!st.ok() && *msg != nullptr) {
    // Uniform failure contract for callers: the message is gone.
    rdma::RpcMessagePool::Release(*msg);
    *msg = nullptr;
  }
  return st;
}

int Context::RingHintFor(const GlobalAddr& addr) const {
  const int hint = addr.OwnerHint();
  return hint >= 0 && hint < node_->rpc_queue()->num_rings() ? hint : ring_;
}

Status Context::RawRead(rdma::RKey r_key, sim::VAddr vaddr, void* buf,
                        size_t len) {
  if (options_.local) {
    // Colocated access: CPU loads through the MMU, no RNIC involved.
    return node_->rnic()->address_space()->ReadVirtual(vaddr, buf, len);
  }
  auto ns = qp_.Read(r_key, vaddr, buf, len);
  if (!ns.ok()) {
    RecoverQp();
    return ns.status();
  }
  stats_.modeled_ns_total += *ns;
  return Status::OK();
}

void Context::RecoverQp() {
  if (qp_.state() != rdma::QueuePair::State::kError) return;
  stats_.qp_reconnects++;
  qp_.Reconnect();
}

void Context::CountReadFailure(const Status& st) {
  stats_.direct_read_failures++;
  if (st.IsTornRead()) stats_.torn_reads++;
  if (st.IsObjectLocked()) stats_.locked_reads++;
  if (st.IsObjectMoved()) stats_.moved_reads++;
}

// Tracks the modeled duration of one public API call.
class Context::OpTimer {
 public:
  explicit OpTimer(Context* ctx)
      : ctx_(ctx), start_(ctx->stats_.modeled_ns_total) {}
  ~OpTimer() { ctx_->stats_.last_op_ns = ctx_->stats_.modeled_ns_total - start_; }

 private:
  Context* const ctx_;
  const uint64_t start_;
};

// ---------------------------------------------------------------------------
// RPC operations (Table 2).
// ---------------------------------------------------------------------------

Result<GlobalAddr> Context::Alloc(size_t size, Slice init) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kAlloc, AllocRequest{size}, &msg->request, init);
  // Any worker can allocate: stay on the client's home ring so load maps
  // to as few workers as there are active clients.
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  AllocResponse resp;
  DecodeResponse(msg->response, &resp);
  rdma::RpcMessagePool::Release(msg);
  return resp.addr;
}

Status Context::Free(GlobalAddr* addr) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kFree, FreeRequest{*addr}, &msg->request);
  // Free is ownership-bound: the owner hint routes it straight to the
  // owning worker's ring, skipping the kForwardedRpc hop.
  Status st = RpcCallPooled(&msg, RingHintFor(*addr));
  if (msg != nullptr) rdma::RpcMessagePool::Release(msg);
  if (st.ok()) *addr = GlobalAddr{};  // the pointer is dead
  return st;
}

Status Context::Read(GlobalAddr* addr, void* buf, size_t size) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kRead,
                ReadRequest{*addr, static_cast<uint32_t>(size)},
                &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  ReadResponse resp;
  Slice payload = DecodeResponse(msg->response, &resp);
  if (payload.size() < size) {
    rdma::RpcMessagePool::Release(msg);
    return Status::Internal("short read payload");
  }
  std::memcpy(buf, payload.data(), size);
  rdma::RpcMessagePool::Release(msg);
  if (resp.addr.vaddr != addr->vaddr) stats_.pointer_corrections++;
  *addr = resp.addr;  // server-corrected pointer (§3.2.1)
  return Status::OK();
}

Status Context::Write(GlobalAddr* addr, const void* buf, size_t size) {
  OpTimer timer(this);
  // Bracket the RPC with the configured scheme's write lock (a no-op under
  // kOptimistic): scheme-abiding peers serialize here, and the server-side
  // object seqlock still guards the bytes underneath. Release targets the
  // slot that was locked — the RPC may correct the pointer.
  const GlobalAddr locked = *addr;
  CORM_RETURN_NOT_OK(scheme_->AcquireWrite(locked));
  Status st = WriteRpc(addr, buf, size);
  Status release = scheme_->ReleaseWrite(locked);
  return st.ok() ? release : st;
}

Status Context::WriteRpc(GlobalAddr* addr, const void* buf, size_t size) {
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kWrite,
                WriteRequest{*addr, static_cast<uint32_t>(size)},
                &msg->request, Slice(static_cast<const char*>(buf), size));
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  WriteResponse resp;
  DecodeResponse(msg->response, &resp);
  rdma::RpcMessagePool::Release(msg);
  if (resp.addr.vaddr != addr->vaddr) stats_.pointer_corrections++;
  *addr = resp.addr;
  return Status::OK();
}

Status Context::ReleasePtr(GlobalAddr* addr) {
  OpTimer timer(this);
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kReleasePtr, ReleasePtrRequest{*addr}, &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  ReleasePtrResponse resp;
  DecodeResponse(msg->response, &resp);
  rdma::RpcMessagePool::Release(msg);
  *addr = resp.addr;  // canonical pointer in the object's current block
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One-sided reads (§3.2.2, §3.2.3).
// ---------------------------------------------------------------------------

Status Context::ValidateAndExtract(const uint8_t* slot, uint32_t slot_size,
                                   const GlobalAddr& addr, void* buf,
                                   size_t size) {
  const ConsistencyMode mode = node_->config().consistency;
  const ObjectHeader h =
      ObjectHeader::Unpack(*reinterpret_cast<const uint64_t*>(slot));
  if (h.lock == LockState::kTombstone || h.obj_id != addr.obj_id) {
    return Status::ObjectMoved("object not at hinted offset");
  }
  if (h.lock != LockState::kFree) {
    return Status::ObjectLocked("object locked (write or compaction)");
  }
  if (!SnapshotConsistent(slot, slot_size, mode)) {
    return Status::TornRead("consistency metadata mismatch");
  }
  if (size > PayloadCapacity(slot_size, mode)) {
    return Status::InvalidArgument("read larger than object payload");
  }
  ReadPayload(slot, slot_size, buf, static_cast<uint32_t>(size), mode);
  return Status::OK();
}

Status Context::SnapshotRead(const GlobalAddr& addr, void* buf, size_t size) {
  const uint32_t slot_size = node_->classes().ClassSize(addr.class_idx);
  uint8_t stack_slot[4096];
  uint8_t* slot =
      slot_size <= sizeof(stack_slot) ? stack_slot : scratch_.data();
  CORM_RETURN_NOT_OK(RawRead(addr.r_key, addr.vaddr, slot, slot_size));
  return ValidateAndExtract(slot, slot_size, addr, buf, size);
}

Status Context::DirectRead(const GlobalAddr& addr, void* buf, size_t size) {
  OpTimer timer(this);
  stats_.direct_reads++;
  Status st = scheme_->GuardedRead(addr, buf, size);
  if (!st.ok()) CountReadFailure(st);
  return st;
}

Status Context::DirectReadBatch(const GlobalAddr* addrs, size_t n, void* bufs,
                                size_t size, Status* statuses) {
  OpTimer timer(this);
  if (n == 0) return Status::OK();
  uint8_t* out = static_cast<uint8_t*>(bufs);
  Status first;
  if (options_.local) {
    // Nothing to amortize colocated.
    for (size_t i = 0; i < n; ++i) {
      statuses[i] = DirectRead(addrs[i], out + i * size, size);
      if (!statuses[i].ok() && first.ok()) first = statuses[i];
    }
    return first;
  }
  const size_t block_bytes = node_->block_bytes();
  size_t done = 0;
  while (done < n) {
    const size_t k = std::min(n - done, kBatchChain);
    rdma::WorkRequest wrs[kBatchChain];
    for (size_t i = 0; i < k; ++i) {
      const GlobalAddr& a = addrs[done + i];
      wrs[i] = rdma::WorkRequest{};
      wrs[i].op = rdma::WorkRequest::Op::kRead;
      wrs[i].r_key = a.r_key;
      wrs[i].addr = a.vaddr;
      wrs[i].buf = batch_scratch_.data() + i * block_bytes;
      wrs[i].len = node_->classes().ClassSize(a.class_idx);
    }
    stats_.direct_reads += k;
    auto ns = qp_.PostBatch(wrs, k);
    if (!ns.ok()) {
      // Whole-chain failure (QP already broken): every op inherits it.
      for (size_t i = 0; i < k; ++i) {
        statuses[done + i] = ns.status();
        CountReadFailure(ns.status());
      }
      if (first.ok()) first = ns.status();
    } else {
      stats_.modeled_ns_total += *ns;
      stats_.direct_read_batches++;
      NodeStatShard& shard = node_->client_stat_shard();
      ++shard.doorbell_batches;
      shard.doorbell_batched_wrs += k;
      for (size_t i = 0; i < k; ++i) {
        const GlobalAddr& a = addrs[done + i];
        Status st = wrs[i].status;
        if (st.ok()) {
          st = ValidateAndExtract(
              batch_scratch_.data() + i * block_bytes,
              node_->classes().ClassSize(a.class_idx), a,
              out + (done + i) * size, size);
        }
        if (!st.ok()) {
          CountReadFailure(st);
          if (first.ok()) first = st;
        }
        statuses[done + i] = st;
      }
    }
    RecoverQp();
    done += k;
  }
  return first;
}

// ---------------------------------------------------------------------------
// sync::SyncMedium: the scheme's window into this client.
// ---------------------------------------------------------------------------

Status Context::LockCas(rdma::RKey r_key, sim::VAddr vaddr, uint64_t expected,
                        uint64_t desired, uint64_t* prior) {
  if (options_.local) {
    // Colocated: CPU CAS on the mapped word — globally coherent with
    // remote RNIC atomics (IBV_ATOMIC_GLOB, see Rnic::MttAtomic).
    sim::FrameEpoch::Guard epoch;
    uint8_t* p = node_->rnic()->address_space()->TranslatePtr(vaddr);
    uint64_t e = expected;
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(p))
        .compare_exchange_strong(e, desired, std::memory_order_acq_rel);
    *prior = e;
    return Status::OK();
  }
  auto ns = qp_.CompareSwap(r_key, vaddr, expected, desired, prior);
  if (!ns.ok()) {
    RecoverQp();
    return ns.status();
  }
  stats_.modeled_ns_total += *ns;
  return Status::OK();
}

void Context::CountSyncEvent(sync::SyncEvent event) {
  NodeStatShard& shard = node_->client_stat_shard();
  switch (event) {
    case sync::SyncEvent::kLockAcquire:
      stats_.sync_lock_acquires++;
      ++shard.sync_lock_acquires;
      break;
    case sync::SyncEvent::kLockConflict:
      stats_.sync_lock_conflicts++;
      ++shard.sync_lock_conflicts;
      break;
    case sync::SyncEvent::kLockSteal:
      stats_.sync_lock_steals++;
      ++shard.sync_lock_steals;
      break;
    case sync::SyncEvent::kLockTimeout:
      stats_.sync_lock_timeouts++;
      ++shard.sync_lock_timeouts;
      break;
  }
}

uint64_t Context::SyncJitterSeed() {
  return node_->config().seed ^ (++retry_seq_ * 0x9e3779b97f4a7c15ULL);
}

Status Context::ScanRead(GlobalAddr* addr, void* buf, size_t size) {
  OpTimer timer(this);
  stats_.scan_reads++;
  const uint32_t slot_size = node_->classes().ClassSize(addr->class_idx);
  const size_t block_bytes = node_->block_bytes();
  const sim::VAddr base = BlockBaseOf(addr->vaddr, block_bytes);
  CORM_RETURN_NOT_OK(RawRead(addr->r_key, base, scratch_.data(), block_bytes));

  const uint32_t num_slots = static_cast<uint32_t>(block_bytes / slot_size);
  for (uint32_t slot = 0; slot < num_slots; ++slot) {
    const uint8_t* sptr = scratch_.data() + slot * slot_size;
    const ObjectHeader h =
        ObjectHeader::Unpack(*reinterpret_cast<const uint64_t*>(sptr));
    if (h.obj_id != addr->obj_id || h.lock == LockState::kTombstone) continue;
    // The first live slot with the ID is the object: validate it exactly
    // as a DirectRead snapshot.
    CORM_RETURN_NOT_OK(ValidateAndExtract(sptr, slot_size, *addr, buf, size));
    const sim::VAddr corrected = base + static_cast<uint64_t>(slot) * slot_size;
    if (corrected != addr->vaddr) stats_.pointer_corrections++;
    addr->vaddr = corrected;  // pointer is direct again (§3.2)
    return Status::OK();
  }
  return Status::NotFound("object not found in block scan");
}

Status Context::ReadWithRecovery(GlobalAddr* addr, void* buf, size_t size,
                                 MovedFallback fallback) {
  // Retry with exponential backoff until the policy deadline: an object
  // can stay locked for the full duration of a block merge, which is real
  // wall time regardless of the modeled time scale. The jitter stream is
  // seeded from the node seed and a per-context sequence number, so a
  // seeded run replays the same backoff schedule.
  RetryState retry(options_.recovery_retry, SyncJitterSeed());
  while (retry.NextAttempt()) {
    Status st = DirectRead(*addr, buf, size);
    if (st.ok()) return st;
    if (st.IsObjectMoved()) {
      // Pointer correction on the client side (§3.2.2): re-fetch via scan
      // or an RPC read; both return a corrected pointer. The fallback can
      // itself hit an object mid-compaction (locked/torn) — that is as
      // transient as a failed DirectRead, so it re-enters the backoff loop
      // (§3.2.3: "the read is repeated after a backoff period").
      stats_.failovers++;
      st = fallback == MovedFallback::kScanRead ? ScanRead(addr, buf, size)
                                                : Read(addr, buf, size);
      if (st.ok()) return st;
    }
    if (st.IsTornRead() || st.IsObjectLocked() || st.IsQpBroken() ||
        st.IsObjectMoved()) {
      stats_.retries++;
      sim::Pace(retry.BackoffNs());
      std::this_thread::yield();  // let the compacting worker progress
      continue;
    }
    return st;  // NotFound / Timeout / NetworkError / ...: not retryable here
  }
  stats_.timeouts++;
  return Status::Timeout("read recovery deadline expired (object stayed "
                         "locked, torn, or unreachable)");
}

// ---------------------------------------------------------------------------
// Keyed access layer (DESIGN.md §13).
// ---------------------------------------------------------------------------

Status Context::ProbeBuckets(uint64_t key, GlobalAddr* addr) {
  const index::IndexTableCoords table = node_->index_table();
  if (table.buckets == 0) return Status::NotFound("index table absent");
  const uint64_t b1 = index::BucketOf(key, table.buckets);
  const uint64_t b2 = index::AltBucketOf(key, table.buckets);

  // Snapshot the epoch word and both candidate buckets, then re-read each
  // bucket's seq word. The chain executes in order, so an unchanged, even
  // seq across (snapshot, re-read) proves no writer touched the bucket in
  // between — sync::SeqSnapshotConsistent, the bucket-sized twin of the
  // object seqlock validation.
  uint64_t epoch = 0;
  index::IndexBucket snap[2];
  uint64_t reseq[2] = {0, 0};
  if (options_.local) {
    CORM_RETURN_NOT_OK(RawRead(table.r_key, table.base, &epoch, sizeof(epoch)));
    CORM_RETURN_NOT_OK(
        RawRead(table.r_key, table.BucketAddr(b1), &snap[0], sizeof(snap[0])));
    CORM_RETURN_NOT_OK(
        RawRead(table.r_key, table.BucketAddr(b2), &snap[1], sizeof(snap[1])));
    CORM_RETURN_NOT_OK(RawRead(table.r_key, table.BucketAddr(b1), &reseq[0],
                               sizeof(uint64_t)));
    CORM_RETURN_NOT_OK(RawRead(table.r_key, table.BucketAddr(b2), &reseq[1],
                               sizeof(uint64_t)));
  } else {
    rdma::WorkRequest wrs[5];
    for (auto& wr : wrs) {
      wr = rdma::WorkRequest{};
      wr.op = rdma::WorkRequest::Op::kRead;
      wr.r_key = table.r_key;
    }
    wrs[0].addr = table.base;
    wrs[0].buf = &epoch;
    wrs[0].len = sizeof(epoch);
    wrs[1].addr = table.BucketAddr(b1);
    wrs[1].buf = &snap[0];
    wrs[1].len = sizeof(snap[0]);
    wrs[2].addr = table.BucketAddr(b2);
    wrs[2].buf = &snap[1];
    wrs[2].len = sizeof(snap[1]);
    wrs[3].addr = table.BucketAddr(b1);
    wrs[3].buf = &reseq[0];
    wrs[3].len = sizeof(uint64_t);
    wrs[4].addr = table.BucketAddr(b2);
    wrs[4].buf = &reseq[1];
    wrs[4].len = sizeof(uint64_t);
    auto ns = qp_.PostBatch(wrs, 5);
    if (!ns.ok()) {
      RecoverQp();
      return ns.status();
    }
    stats_.modeled_ns_total += *ns;
    NodeStatShard& shard = node_->client_stat_shard();
    ++shard.doorbell_batches;
    shard.doorbell_batched_wrs += 5;
    for (const auto& wr : wrs) {
      CORM_RETURN_NOT_OK(wr.status);
    }
  }

  for (int i = 0; i < 2; ++i) {
    if (!sync::SeqSnapshotConsistent(snap[i].seq, reseq[i])) {
      return Status::TornRead("index bucket snapshot torn");
    }
  }
  for (const index::IndexBucket& bucket : snap) {
    for (const index::IndexEntry& e : bucket.entries) {
      if (!e.Live() || e.key != key) continue;
      if (e.fence_epoch != static_cast<uint16_t>(epoch)) {
        // Sealed-out entry (failover re-home): only the RPC path may
        // vouch for it — and it re-mints the entry under the new epoch.
        return Status::StalePointer("index entry fenced by epoch seal");
      }
      *addr = e.addr;
      return Status::OK();
    }
  }
  // Absence is only a hint too: a concurrent insert may be mid-publish, so
  // the caller confirms through the authoritative RPC lookup.
  return Status::NotFound("key not in index buckets");
}

Status Context::IndexLookupRpc(uint64_t key, GlobalAddr* addr) {
  stats_.index_rpc_fallbacks++;
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kIndexLookup, IndexLookupRequest{key}, &msg->request);
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  IndexLookupResponse resp;
  DecodeResponse(msg->response, &resp);
  rdma::RpcMessagePool::Release(msg);
  *addr = resp.addr;
  return Status::OK();
}

Status Context::Get(uint64_t key, void* buf, size_t size) {
  OpTimer timer(this);
  NodeStatShard& shard = node_->client_stat_shard();
  stats_.index_lookups++;
  ++shard.index_lookups;

  // Fault site: pretend every one-sided resolution step came back stale,
  // driving the op straight down the RPC fallback path.
  bool force_rpc = false;
  uint64_t delay_ns = 0;
  if (auto* inj = sim::GlobalFaultInjector();
      inj != nullptr &&
      inj->ShouldFire(sim::fault_sites::kIndexStaleHint, &delay_ns)) {
    if (delay_ns > 0) sim::Pace(delay_ns);
    force_rpc = true;
  }

  GlobalAddr addr;
  if (!force_rpc) {
    // 1. Cached hint: the steady state is this single validated read.
    auto it = hint_cache_.find(key);
    if (it != hint_cache_.end()) {
      Status st = DirectRead(it->second, buf, size);
      if (st.ok()) {
        stats_.index_one_sided_hits++;
        ++shard.index_one_sided_hits;
        return st;
      }
      hint_cache_.erase(it);
    }
    // 2. One-sided bucket probe, then the validated read on its hint.
    Status st = ProbeBuckets(key, &addr);
    if (st.ok()) {
      st = DirectRead(addr, buf, size);
      if (st.ok()) {
        stats_.index_one_sided_hits++;
        ++shard.index_one_sided_hits;
        hint_cache_[key] = addr;
        return st;
      }
    }
  }
  // 3. Authoritative RPC lookup (self-heals the bucket entry server-side),
  // then a recovering read that rides out compaction locks and moves.
  CORM_RETURN_NOT_OK(IndexLookupRpc(key, &addr));
  Status st = ReadWithRecovery(&addr, buf, size, MovedFallback::kRpcRead);
  if (st.ok()) {
    hint_cache_[key] = addr;
  } else {
    hint_cache_.erase(key);
  }
  return st;
}

Result<GlobalAddr> Context::Put(uint64_t key, const void* buf, size_t size) {
  OpTimer timer(this);
  NodeStatShard& shard = node_->client_stat_shard();
  stats_.index_lookups++;
  ++shard.index_lookups;

  // Fast path: a cached pointer goes straight to the scheme-bracketed
  // write RPC, whose server-side resolution corrects stale hints anyway.
  auto it = hint_cache_.find(key);
  if (it != hint_cache_.end()) {
    GlobalAddr addr = it->second;
    Status st = Write(&addr, buf, size);
    if (st.ok()) {
      stats_.index_one_sided_hits++;
      ++shard.index_one_sided_hits;
      hint_cache_[key] = addr;
      return addr;
    }
    hint_cache_.erase(key);
    if (!st.IsStalePointer() && !st.IsObjectMoved() && !st.IsNotFound()) {
      return st;
    }
  }

  // One kIndexPut: for a fresh key the node allocates the object with the
  // value already in it and publishes it, all in this RPC. A live key (or
  // one whose insert race this Put lost) comes back with its object, and
  // the value goes through the same bracketed Write as the hint path.
  stats_.index_rpc_fallbacks++;
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kIndexPut,
                IndexPutRequest{key, static_cast<uint32_t>(size)},
                &msg->request, Slice(static_cast<const char*>(buf), size));
  CORM_RETURN_NOT_OK(RpcCallPooled(&msg, ring_));
  IndexPutResponse resp;
  DecodeResponse(msg->response, &resp);
  rdma::RpcMessagePool::Release(msg);
  GlobalAddr addr = resp.addr;
  if (resp.existed != 0) {
    CORM_RETURN_NOT_OK(Write(&addr, buf, size));
  }
  hint_cache_[key] = addr;
  return addr;
}

Status Context::Del(uint64_t key) {
  OpTimer timer(this);
  NodeStatShard& shard = node_->client_stat_shard();
  stats_.index_lookups++;
  ++shard.index_lookups;
  hint_cache_.erase(key);

  // One kIndexRemove: the node unlinks the key, then frees its object.
  rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
  EncodeRequest(RpcOp::kIndexRemove, IndexRemoveRequest{key}, &msg->request);
  Status st = RpcCallPooled(&msg, ring_);
  if (msg != nullptr) rdma::RpcMessagePool::Release(msg);
  return st;
}

}  // namespace corm::core
