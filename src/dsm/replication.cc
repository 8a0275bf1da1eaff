#include "dsm/replication.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/retry.h"
#include "core/addr.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"

namespace corm::dsm {

namespace {

// Modeled gap between ack polls: long enough that a poll usually observes
// progress (one apply is ~a ring drain away), short enough that the ack
// latency is dominated by the replica, not the poller.
constexpr uint64_t kQuorumPollGapNs = 400;
// Ack-poll rounds between retransmissions of the unacked window.
constexpr int kQuorumRetransmitEvery = 8;
// Repairs attempted per anti-entropy sweep tick.
constexpr size_t kAntiEntropyBudget = 8;
// Bounded repair backlog; excess enqueues are dropped (the next degraded
// op re-enqueues).
constexpr size_t kMaxPendingRepairs = 1024;
// Sweep attempts before a repair task is dropped (the next degraded op on
// the object re-enqueues it, so dropping loses nothing permanent).
constexpr int kMaxRepairAttempts = 5;

// A replica attempt that failed with one of these is a node problem, not a
// data problem: the caller should try the next replica.
bool FailoverWorthy(const Status& st) {
  return st.code() == StatusCode::kNetworkError ||
         st.code() == StatusCode::kTimeout;
}

// A replica node the failure detector currently trusts enough to ship to.
bool ReplicaLive(const Cluster& cluster, int node) {
  return !cluster.IsDead(node) &&
         cluster.failure_detector().MaybeServing(node);
}

void AddrBytes(const core::GlobalAddr& addr, uint8_t out[16]) {
  static_assert(sizeof(core::GlobalAddr) == 16, "GlobalAddr wire size");
  std::memcpy(out, &addr, sizeof(core::GlobalAddr));
}

}  // namespace

ReplicatedContext::ReplicatedContext(Cluster* cluster, int replication_factor,
                                     const core::Context::Options& options,
                                     const ReplicationOptions& repl_options)
    : stack_(cluster, options),
      k_(replication_factor),
      client_options_(options),
      options_(repl_options) {
  CORM_CHECK_GT(k_, 0);
  CORM_CHECK_LE(k_, cluster->num_nodes());
}

ReplicatedContext::~ReplicatedContext() { StopAntiEntropy(); }

uint64_t ReplicatedContext::QuorumDeadlineNs() const {
  return options_.quorum_deadline_ns != 0
             ? options_.quorum_deadline_ns
             : client_options_.rpc_retry.deadline_ns;
}

core::NodeStatShard& ReplicatedContext::PrimaryShard(
    const ReplicatedAddr& addr) {
  return stack_.dsm.cluster()
      ->node(NodeOf(addr.primary()))
      ->client_stat_shard();
}

int ReplicatedContext::SessionFor(Stack& s, int node) {
  if (s.session_for_node[node] >= 0) return s.session_for_node[node];
  core::CormNode* replica = s.dsm.cluster()->node(node);
  auto coords = replica->CreateReplIngress(options_.ring_slots,
                                           options_.ring_slot_bytes);
  if (!coords.ok()) return -1;
  s.session_for_node[node] = s.shipper.AddSession(
      replica->rnic(), coords->base, coords->r_key, coords->slots,
      coords->slot_bytes, static_cast<uint32_t>(coords->id));
  return s.session_for_node[node];
}

void ReplicatedContext::BuildImage(Buffer* out, uint32_t epoch,
                                   uint64_t version, const void* buf,
                                   size_t size) {
  out->resize(sizeof(rdma::ReplObjectHeader) + size);
  rdma::ReplObjectHeader h;
  h.epoch = epoch;
  h.version = version;
  h.len = static_cast<uint32_t>(size);
  h.crc = rdma::ReplObjectCrc(version, buf, size);
  std::memcpy(out->data(), &h, sizeof(h));
  if (size != 0) std::memcpy(out->data() + sizeof(h), buf, size);
}

Status ReplicatedContext::ShipImage(Stack& s, ReplicatedAddr* addr, size_t r,
                                    uint32_t epoch, uint64_t version,
                                    const Buffer& image, AckWait* wait) {
  core::GlobalAddr* replica = &addr->replicas[r];
  wait->r = r;
  wait->session = SessionFor(s, NodeOf(*replica));
  if (wait->session >= 0 && image.size() <= s.shipper.capacity(wait->session)) {
    uint8_t ab[16];
    AddrBytes(*replica, ab);
    const uint64_t ns0 = s.shipper.modeled_ns();
    CORM_ASSIGN_OR_RETURN(
        wait->seq,
        s.shipper.Ship(wait->session, rdma::kReplRecordData, epoch, version,
                       ab, Slice(image.data(), image.size())));
    wait->ship_ns = s.shipper.modeled_ns() - ns0;
    return Status::OK();
  }
  // RPC fallback: the image exceeds the ring slot (or the session could not
  // be opened). A server-side write is durably applied when it returns, so
  // the caller treats sequence 0 as already acked. The whole image —
  // ReplObjectHeader included — is the stored payload, exactly as the log
  // applier would have written it.
  wait->seq = 0;
  return s.dsm.Write(replica, image.data(), image.size());
}

uint64_t ReplicatedContext::AwaitAcks(Stack& s, const ReplicatedAddr& addr,
                                      std::vector<AckWait>& waits,
                                      const Deadline& deadline) {
  Cluster& cluster = *s.dsm.cluster();
  core::NodeStatShard& shard = PrimaryShard(addr);
  size_t open = waits.size();
  int round = 0;
  uint64_t ack_ns = 0;
  std::vector<int>& poll_sessions = s.poll_sessions;
  while (open > 0 && !deadline.Expired()) {
    poll_sessions.clear();
    for (AckWait& w : waits) {
      if (w.state != AckWait::State::kOpen) continue;
      // A replica that dies mid-wait drops out; its copy is repaired by
      // anti-entropy.
      if (!ReplicaLive(cluster, NodeOf(addr.replicas[w.r]))) {
        w.state = AckWait::State::kDropped;
        --open;
        continue;
      }
      poll_sessions.push_back(w.session);
    }
    if (poll_sessions.empty()) break;
    // Coalesced high-water poll (DESIGN.md §12): every open replica's
    // applied_seq word is fetched in one chained post over the sessions'
    // shared CQ — one doorbell + one completion per round instead of one
    // full round trip per replica.
    const uint64_t poll_ns0 = s.shipper.modeled_ns();
    if (s.shipper.ReadAppliedBatch(poll_sessions.data(), poll_sessions.size())
            .ok()) {
      ++shard.doorbell_batches;
      shard.doorbell_batched_wrs += poll_sessions.size();
    }
    const uint64_t round_poll_ns = s.shipper.modeled_ns() - poll_ns0;
    for (AckWait& w : waits) {
      if (w.state != AckWait::State::kOpen ||
          s.shipper.acked(w.session) < w.seq) {
        continue;
      }
      w.state = AckWait::State::kAcked;
      --open;
      // Per-replica op cost = its record write + the chained high-water
      // poll that *observed* the ack. The fan-out is concurrent (the
      // writer posts every replica's WRITE back to back) and the
      // intermediate poll count is a wall-clock artifact of running
      // applier threads at host speed, so the modeled latency is the
      // slowest replica's write+ack pair — not the sum of every poll.
      ack_ns = std::max(ack_ns, w.ship_ns + round_poll_ns);
    }
    if (open == 0) break;
    if (++round % kQuorumRetransmitEvery == 0) {
      for (const AckWait& w : waits) {
        if (w.state == AckWait::State::kOpen) {
          s.shipper.Retransmit(w.session).ok();
        }
      }
    }
    sim::Pace(kQuorumPollGapNs);
  }
  return ack_ns;
}

Result<bool> ReplicatedContext::ReadImage(Stack& s, ReplicatedAddr* addr,
                                          size_t r,
                                          rdma::ReplObjectHeader* h) {
  const size_t image_len = sizeof(rdma::ReplObjectHeader) + addr->size;
  s.read.resize(image_len);
  CORM_RETURN_NOT_OK(
      s.dsm.ReadWithRecovery(&addr->replicas[r], s.read.data(), image_len));
  std::memcpy(h, s.read.data(), sizeof(*h));
  return h->len <= addr->size &&
         rdma::ReplObjectValid(*h, s.read.data() + sizeof(*h));
}

Result<ReplicatedAddr> ReplicatedContext::Alloc(size_t size) {
  ReplicatedAddr addr;
  addr.size = static_cast<uint32_t>(size);
  // Every replica is born holding a well-formed empty image (epoch 1,
  // version 0), carried in its Alloc RPC, so appliers and readers always
  // parse a valid stored header — a raw slot would make the first epoch
  // fence and the first read-validation undefined.
  BuildImage(&stack_.image, addr.epoch, 0, nullptr, 0);
  std::set<int> used;
  const FailureDetector& detector = *stack_.dsm.cluster()->failure_detector();
  // Place each replica on a distinct node the detector trusts.
  for (int r = 0; r < k_; ++r) {
    int node = -1;
    for (int attempt = 0; attempt < 4 * stack_.dsm.cluster()->num_nodes();
         ++attempt) {
      const int candidate = stack_.dsm.cluster()->PickNode();
      if (!used.count(candidate) && detector.Serving(candidate)) {
        node = candidate;
        break;
      }
    }
    if (node < 0) {
      // Unwind partial placement.
      for (auto& replica : addr.replicas) stack_.dsm.Free(&replica).ok();
      return Status::NetworkError("not enough live nodes for replication");
    }
    used.insert(node);
    auto replica =
        stack_.dsm.AllocOn(node, size + sizeof(rdma::ReplObjectHeader),
                           Slice(stack_.image.data(), stack_.image.size()));
    if (!replica.ok()) {
      for (auto& r2 : addr.replicas) stack_.dsm.Free(&r2).ok();
      return replica.status();
    }
    addr.replicas.push_back(*replica);
  }
  return addr;
}

Status ReplicatedContext::Write(ReplicatedAddr* addr, const void* buf,
                                size_t size) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  if (size > addr->size)
    return Status::InvalidArgument("write exceeds replicated object size");
  Cluster& cluster = *stack_.dsm.cluster();
  uint64_t fallback_ns = 0;

  // A dead primary fails over first, so the new epoch is sealed before this
  // write's records enter any ring.
  if (!ReplicaLive(cluster, NodeOf(addr->primary()))) {
    CORM_RETURN_NOT_OK(Failover(addr));
  }

  // The version is consumed even if the write later fails: a replica may
  // already hold a record carrying it, so a retry must never reuse it.
  const uint64_t version = ++addr->next_version;
  BuildImage(&stack_.image, addr->epoch, version, buf, size);
  core::NodeStatShard& shard = PrimaryShard(*addr);

  std::vector<AckWait>& waits = stack_.waits;
  waits.clear();
  bool any_durable = false;
  bool degraded = false;

  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const int node = NodeOf(addr->replicas[r]);
    if (!ReplicaLive(cluster, node)) {
      degraded = true;
      continue;
    }
    AckWait w;
    Status st = ShipImage(stack_, addr, r, addr->epoch, version, stack_.image,
                          &w);
    if (!st.ok()) {
      if (FailoverWorthy(st)) {
        degraded = true;
        continue;
      }
      return st;
    }
    ++shard.repl_ship_records;
    if (w.seq == 0) {
      // RPC fallback: already applied server-side.
      any_durable = true;
      fallback_ns =
          std::max(fallback_ns, stack_.dsm.context(node)->stats().last_op_ns);
    } else {
      waits.push_back(w);
    }
  }

  // Quorum ack: every still-live replica we shipped to must have applied
  // the record. Replicas that die mid-wait drop out of the quorum; the ack
  // still requires at least one durable copy.
  const uint64_t ack_ns =
      AwaitAcks(stack_, *addr, waits, Deadline(QuorumDeadlineNs()));
  size_t open = 0;
  for (const AckWait& w : waits) {
    switch (w.state) {
      case AckWait::State::kAcked:
        any_durable = true;
        break;
      case AckWait::State::kDropped:
        degraded = true;
        break;
      case AckWait::State::kOpen:
        ++open;
        break;
    }
  }

  if (degraded) {
    ++degraded_writes_;
    ++shard.repl_degraded_writes;
    EnqueueRepair(*addr);
  }
  last_op_ns_ = std::max(ack_ns, fallback_ns);
  if (open > 0) {
    // UNCERTAIN: some replica may yet apply the record. `committed` did not
    // advance, so readers are never forced to accept this version, and the
    // drawn version is burned so a retry cannot collide with it.
    ++quorum_timeouts_;
    ++shard.repl_quorum_timeouts;
    EnqueueRepair(*addr);
    return Status::Timeout("replication quorum not reached");
  }
  if (!any_durable) {
    EnqueueRepair(*addr);
    return Status::NetworkError("no live replica accepted the write");
  }
  addr->committed = version;
  ++acked_writes_;
  ++shard.repl_acked_writes;
  return Status::OK();
}

Status ReplicatedContext::Read(ReplicatedAddr* addr, void* buf, size_t size) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  if (size > addr->size)
    return Status::InvalidArgument("read exceeds replicated object size");
  Cluster& cluster = *stack_.dsm.cluster();

  Status last = Status::NetworkError("no replicas");
  bool failed_over = false;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const bool last_replica = (r + 1 == addr->replicas.size());
    // Detector-first: skip replicas already declared dead instead of
    // burning a timeout on each — unless every replica is distrusted, in
    // which case the last one is attempted anyway as a best effort.
    if (!last_replica && !ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      failed_over = true;
      last = Status::NetworkError("replica presumed dead");
      continue;
    }
    rdma::ReplObjectHeader h;
    auto valid = ReadImage(stack_, addr, r, &h);
    if (!valid.ok()) {
      last = valid.status();
      if (FailoverWorthy(last) || last.code() == StatusCode::kTornRead) {
        failed_over = true;
        continue;
      }
      return last;
    }
    // An acked write can never be un-read: the copy must checksum AND be at
    // least as new as the acked high-water mark. (A version beyond
    // `committed` is an applied-but-unacked write from this same owner —
    // newer data, safe to serve.)
    if (!*valid || h.version < addr->committed) {
      ++stale_reads_;
      ++PrimaryShard(*addr).repl_stale_reads;
      EnqueueRepair(*addr);
      last = Status::TornRead("replica image stale or torn");
      failed_over = true;
      continue;
    }
    // Valid data under a lagging epoch: serve it, but queue a repair so the
    // seal converges.
    if (h.epoch < addr->epoch) EnqueueRepair(*addr);
    const size_t n = std::min<size_t>(size, h.len);
    std::memcpy(buf, stack_.read.data() + sizeof(h), n);
    // Bytes never written read as zero (the image starts life empty).
    if (size > n) std::memset(static_cast<uint8_t*>(buf) + n, 0, size - n);
    if (failed_over) ++failovers_;
    return Status::OK();
  }
  return last;
}

Status ReplicatedContext::Free(ReplicatedAddr* addr) {
  Status result;
  for (auto& replica : addr->replicas) {
    Status st = stack_.dsm.Free(&replica);
    // Unreachable replicas leak until re-replication; report the first
    // hard error otherwise.
    if (!st.ok() && !FailoverWorthy(st) && result.ok()) {
      result = st;
    }
  }
  addr->replicas.clear();
  return result;
}

Status ReplicatedContext::Failover(ReplicatedAddr* addr) {
  if (addr->IsNull()) return Status::InvalidArgument("null replicated addr");
  Cluster& cluster = *stack_.dsm.cluster();

  // Rotate the first live replica to primary.
  int live = -1;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    if (ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      live = static_cast<int>(r);
      break;
    }
  }
  if (live < 0) return Status::NetworkError("no live replica to fail over to");
  if (live != 0) {
    std::rotate(addr->replicas.begin(), addr->replicas.begin() + live,
                addr->replicas.end());
  }
  const uint32_t old_epoch = addr->epoch;
  addr->epoch += 1;
  ++failovers_;
  ++seals_;
  core::NodeStatShard& shard = PrimaryShard(*addr);
  ++shard.repl_failovers;
  ++shard.repl_seals;

  // Seal the new epoch on every live replica: once the seal applies, any
  // record still in flight under the old epoch is fenced at apply time.
  const Deadline deadline(QuorumDeadlineNs());
  std::vector<AckWait> seals;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    const int node = NodeOf(addr->replicas[r]);
    if (!ReplicaLive(cluster, node)) continue;
    AckWait w;
    w.r = r;
    w.session = SessionFor(stack_, node);
    if (w.session < 0) continue;
    uint8_t ab[16];
    AddrBytes(addr->replicas[r], ab);
    auto seq = stack_.shipper.Ship(w.session, rdma::kReplRecordSeal,
                                   addr->epoch, /*version=*/0, ab, Slice());
    if (!seq.ok()) continue;
    w.seq = *seq;
    seals.push_back(w);
  }
  // Best effort within the deadline: a replica that misses the seal is
  // converged by anti-entropy, and its stale-epoch records still lose to
  // newer versions on apply.
  AwaitAcks(stack_, *addr, seals, deadline);

  // Fault site repl.seal_race: model the dead primary's last in-flight
  // record arriving AFTER the seal — shipped under the old epoch with a
  // version the old primary could plausibly have drawn. The apply-side
  // epoch fence must reject it (tests assert repl_fenced_records).
  if (auto* injector = sim::GlobalFaultInjector(); injector != nullptr) {
    uint64_t delay_ns = 0;
    if (injector->ShouldFire(sim::fault_sites::kReplSealRace, &delay_ns) &&
        !stack_.image.empty()) {
      const int session = SessionFor(stack_, NodeOf(addr->replicas[0]));
      if (session >= 0 &&
          stack_.image.size() <= stack_.shipper.capacity(session)) {
        uint8_t ab[16];
        AddrBytes(addr->replicas[0], ab);
        stack_.shipper
            .Ship(session, rdma::kReplRecordData, old_epoch,
                  addr->next_version + 1, ab,
                  Slice(stack_.image.data(), stack_.image.size()))
            .ok();
      }
    }
  }

  // Reconcile and re-replicate: every live replica converges on the newest
  // valid image. The seal has just raised each of them to `addr->epoch`,
  // so the stamp is the new epoch.
  const Convergence c = Converge(stack_, addr, deadline);
  if (!c.have || c.v_max < addr->committed) {
    // Transient: the committed state lives only on currently-dead replicas.
    // The epoch bump is safe to keep — retry after a replica revives.
    EnqueueRepair(*addr);
    return Status::Timeout("failover cannot reach committed state yet");
  }
  if (!c.converged) EnqueueRepair(*addr);
  addr->next_version = std::max(addr->next_version, c.v_max);
  addr->committed = std::max(addr->committed, c.v_max);
  return Status::OK();
}

ReplicatedContext::Convergence ReplicatedContext::Converge(
    Stack& s, ReplicatedAddr* addr, const Deadline& deadline) {
  Cluster& cluster = *s.dsm.cluster();
  Convergence c;

  // Pass 1: the newest valid image across live replicas.
  std::vector<uint64_t> seen(addr->replicas.size(), 0);
  std::vector<bool> readable(addr->replicas.size(), false);
  uint32_t epoch = addr->epoch;
  bool all_live = true;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    if (!ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      all_live = false;
      continue;
    }
    rdma::ReplObjectHeader h;
    auto valid = ReadImage(s, addr, r, &h);
    if (!valid.ok()) {
      const StatusCode code = valid.status().code();
      c.vanished |= code == StatusCode::kNotFound ||
                    code == StatusCode::kInvalidArgument;
      all_live = false;
      continue;
    }
    if (!*valid) continue;
    readable[r] = true;
    seen[r] = h.version;
    epoch = std::max(epoch, h.epoch);
    if (!c.have || h.version > c.v_max) {
      c.v_max = h.version;
      c.have = true;
      s.image.assign(s.read.begin(),
                     s.read.begin() + static_cast<long>(sizeof(h) + h.len));
    }
  }
  if (!c.have || c.vanished) return c;

  // Pass 2: stamp the best image with the highest epoch (the object crc
  // excludes the epoch, so the image stays self-validating) and reship it
  // to every live laggard. Reships flow through the same version-fenced
  // log as writes, so a racing newer write can never be regressed — the
  // applier drops the reship as a duplicate.
  std::memcpy(s.image.data(), &epoch, sizeof(epoch));
  c.converged = all_live;
  std::vector<AckWait> waits;
  for (size_t r = 0; r < addr->replicas.size(); ++r) {
    if (!ReplicaLive(cluster, NodeOf(addr->replicas[r]))) {
      c.converged = false;
      continue;
    }
    if (readable[r] && seen[r] >= c.v_max) continue;
    AckWait w;
    if (!ShipImage(s, addr, r, epoch, c.v_max, s.image, &w).ok()) {
      c.converged = false;
    } else if (w.seq == 0) {
      c.reshipped.push_back(r);
    } else {
      waits.push_back(w);
    }
  }
  AwaitAcks(s, *addr, waits, deadline);
  for (const AckWait& w : waits) {
    if (w.state == AckWait::State::kAcked) {
      c.reshipped.push_back(w.r);
    } else {
      c.converged = false;
    }
  }
  return c;
}

// --- Anti-entropy. ----------------------------------------------------------

void ReplicatedContext::EnqueueRepair(const ReplicatedAddr& addr) {
  LockGuard<Mutex> lock(repair_mu_);
  // Dedupe against an already-queued task for the same object (repeated
  // degraded writes to one object would otherwise flood the queue): same
  // object identity on every replica means same task — refresh its
  // snapshot instead.
  for (auto& task : repairs_) {
    if (task.snapshot.replicas.size() != addr.replicas.size()) continue;
    bool same = true;
    for (size_t r = 0; same && r < addr.replicas.size(); ++r) {
      same = task.snapshot.replicas[r].obj_id == addr.replicas[r].obj_id &&
             NodeOf(task.snapshot.replicas[r]) == NodeOf(addr.replicas[r]);
    }
    if (same) {
      task.snapshot = addr;
      task.attempts = 0;
      return;
    }
  }
  if (repairs_.size() >= kMaxPendingRepairs) return;
  repairs_.push_back(RepairTask{addr, 0});
}

size_t ReplicatedContext::pending_repairs() const {
  LockGuard<Mutex> lock(repair_mu_);
  return repairs_.size();
}

void ReplicatedContext::StartAntiEntropy(int scheduler_node) {
  if (anti_entropy_task_ >= 0) return;
  anti_entropy_node_ = scheduler_node;
  anti_entropy_task_ =
      stack_.dsm.cluster()->node(scheduler_node)->RegisterBackgroundTask(
          [this] { RunAntiEntropySweep(kAntiEntropyBudget); });
}

void ReplicatedContext::StopAntiEntropy() {
  if (anti_entropy_task_ < 0) return;
  stack_.dsm.cluster()
      ->node(anti_entropy_node_)
      ->UnregisterBackgroundTask(anti_entropy_task_);
  anti_entropy_task_ = -1;
  anti_entropy_node_ = -1;
}

size_t ReplicatedContext::RunAntiEntropySweep(size_t budget) {
  // Scheduler-thread entry. The sweep owns a private client stack — the
  // owner thread's must not be touched here — built lazily on first sweep.
  if (!repair_stack_) {
    repair_stack_ =
        std::make_unique<Stack>(stack_.dsm.cluster(), client_options_);
  }
  size_t converged = 0;
  for (size_t i = 0; i < budget; ++i) {
    RepairTask task;
    {
      LockGuard<Mutex> lock(repair_mu_);
      if (repairs_.empty()) break;
      task = std::move(repairs_.front());
      repairs_.pop_front();
    }
    if (RepairOne(&task)) {
      ++converged;
    } else if (++task.attempts < kMaxRepairAttempts) {
      LockGuard<Mutex> lock(repair_mu_);
      if (repairs_.size() < kMaxPendingRepairs)
        repairs_.push_back(std::move(task));
    }
  }
  return converged;
}

bool ReplicatedContext::RepairOne(RepairTask* task) {
  const Convergence c = Converge(*repair_stack_, &task->snapshot,
                                 Deadline(QuorumDeadlineNs()));
  // The object vanished under the sweep (freed): drop the task.
  if (c.vanished) return true;
  Cluster& cluster = *repair_stack_->dsm.cluster();
  for (size_t r : c.reshipped) {
    anti_entropy_repairs_.fetch_add(1, std::memory_order_relaxed);
    ++cluster.node(NodeOf(task->snapshot.replicas[r]))
          ->client_stat_shard()
          .repl_anti_entropy_repairs;
  }
  return c.converged;
}

}  // namespace corm::dsm
