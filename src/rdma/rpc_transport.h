// corm-hotpath
//
// RPC transport over the simulated RDMA fabric (paper §2.2.2, Fig. 3).
//
// Remote peers push RPC requests "directly into the RPC queue"; the DSM
// worker threads poll it, serve the request and reply. The queue is split
// into per-worker rings (one lock-free MPMC ring per worker) so that a
// worker drains its own ring with a batched pop — one head CAS per batch —
// and clients can target the ring of the worker that owns the addressed
// block (owner-affinity dispatch, cutting kForwardedRpc hops). A client has
// at most one outstanding request and spins on the completion flag, like an
// RDMA client polling its CQ — but the spin is *bounded* by a RetryPolicy
// deadline: when the serving node dies mid-request the call returns
// kTimeout instead of hanging, and the abandoned message's lifetime is
// settled by its state word (the server recycles it whenever it completes).
//
// Messages come from a per-thread freelist (RpcMessagePool) so the
// steady-state data plane performs no heap allocation: a client recycles
// the message it waited for into its own freelist, and its next Acquire
// reuses it, request/response buffers keeping their capacity. See DESIGN.md
// §7.2 for the pooling lifetimes.

#ifndef CORM_RDMA_RPC_TRANSPORT_H_
#define CORM_RDMA_RPC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/doorbell.h"
#include "common/mpmc_queue.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/latency_model.h"

namespace corm::rdma {

// One in-flight RPC. The server fills response/status and completes it
// (release), which the spinning client observes (acquire).
//
// Lifetime: one atomic state word, pending -> done (the server completed)
// or pending -> abandoned (the client timed out). Whichever side makes the
// second move owns the message: after done the client recycles it; after
// abandoned the server's Complete does.
struct RpcMessage {
  Buffer request;
  Buffer response;
  Status status;
  // Modeled server-side processing nanoseconds the handler charged (the
  // paper's "+0.5 us for Alloc/Free" style extras); lets clients account
  // full modeled operation latency without a wall clock.
  uint64_t server_extra_ns = 0;

  // Server side: publishes `st` and completes the call. Recycles the
  // message on this thread when the client had abandoned it; otherwise the
  // client owns it from here and the server must not touch it again.
  void Complete(Status st);
  // Client side: true once the server completed (acquire).
  bool done() const {
    return state_.load(std::memory_order_acquire) == State::kDone;
  }
  // Client side, on timeout: hands the in-flight message to the server,
  // whose Complete recycles it. False when the server completed first —
  // the client still owns the message.
  bool Abandon();

 private:
  friend class RpcMessagePool;
  enum class State : uint8_t { kPending, kDone, kAbandoned };
  std::atomic<State> state_{State::kPending};
};

// Per-thread freelist of RpcMessage objects. A client Acquires a message,
// and after a completed round (or one the server never saw) Releases it
// into its own freelist, so the next call on that thread reuses the same
// message and buffer capacity. Only an abandoned message recycles on the
// worker thread that completes it (bounded; workers never acquire, so
// those entries persist until further recycles overflow the cap and
// delete).
class RpcMessagePool {
 public:
  // A pending message, fields reset, buffers retaining any recycled
  // capacity.
  static RpcMessage* Acquire();
  // Resets and shelves `msg` on the calling thread's freelist, or deletes
  // it when the freelist is full. The caller must own `msg`.
  static void Release(RpcMessage* msg);

  // Entries on the calling thread's freelist (tests).
  static size_t LocalFreeForTesting();

 private:
  static constexpr size_t kMaxPerThread = 64;
};

// Token-style rate limiter modeling the RNIC's two-sided message rate: the
// aggregate Send/Recv throughput of the server NIC is what caps RPC ops/s
// in the paper's Fig. 12 (~700 Kreq/s), independent of worker CPU. Uses the
// global SimTimeScale; disabled at scale 0 (unit tests).
class NicMessageRateLimiter {
 public:
  // rate 0 disables limiting.
  explicit NicMessageRateLimiter(uint64_t msgs_per_sec = 0) {
    SetRate(msgs_per_sec);
  }

  void SetRate(uint64_t msgs_per_sec) {
    interval_ns_.store(
        msgs_per_sec == 0 ? 0 : 1'000'000'000ULL / msgs_per_sec,
        std::memory_order_relaxed);
  }

  // Blocks (exponential-backoff wait) until the caller's message slot is
  // due.
  void Acquire();

 private:
  std::atomic<uint64_t> interval_ns_{0};
  std::atomic<uint64_t> next_slot_ns_{0};
};

// The inbound request queue on the server node: one lock-free ring per
// worker plus a shared rate limiter. Capacity is per ring. Each ring has a
// doorbell its worker parks on; Push rings the doorbell of the ring the
// request landed in, so a parked worker wakes as soon as work arrives.
class RpcQueue {
 public:
  explicit RpcQueue(size_t ring_capacity_pow2 = 4096, int num_rings = 1);

  int num_rings() const { return static_cast<int>(rings_.size()); }
  NicMessageRateLimiter* rate_limiter() { return &limiter_; }

  // Enqueues a request and rings its ring's doorbell; false when every ring
  // is full (client backs off). `ring_hint` targets a specific worker's
  // ring (owner affinity); out of range (or -1) round-robins. A full hinted
  // ring falls through to the others before giving up.
  bool Push(RpcMessage* msg, int ring_hint = -1);

  // The doorbell of `ring`: its worker parks on it, and every producer of
  // that worker's work (ring pushes, inbox messages, replicated-log
  // records, service resume, node stop) rings it after publishing.
  Doorbell* doorbell(int ring) { return &rings_[ring]->doorbell; }
  // Rings every ring's doorbell (a node-wide state change: resume, stop).
  void RingAll();

  // Dequeues one request from any ring, or nullptr when all are empty.
  // Control-plane use (tests, the cluster restart purge); workers use
  // PollBatch.
  RpcMessage* Poll();

  // Drains up to `max` requests from `ring` only (one batched pop — a
  // single head CAS — amortizing queue synchronization over the batch).
  // Returns the number of messages written to `out`. Cross-ring stealing is
  // the *caller's* policy: the worker loop steals only from rings whose
  // owner is parked, so an idle worker cannot keep itself awake by racing
  // the ring owner for its traffic.
  size_t PollBatch(int ring, RpcMessage** out, size_t max);

  size_t ApproxDepth() const;

 private:
  struct WorkerRing {
    explicit WorkerRing(size_t capacity_pow2) : queue(capacity_pow2) {}
    MpmcQueue<RpcMessage*> queue;
    Doorbell doorbell;
  };
  // unique_ptr: neither MpmcQueue nor Doorbell is movable or copyable.
  std::vector<std::unique_ptr<WorkerRing>> rings_;
  std::atomic<uint64_t> rr_{0};  // round-robin cursor for unhinted pushes
  NicMessageRateLimiter limiter_;
};

// Modeled wire accounting for one call (client stats).
struct RpcWireStats {
  uint64_t network_ns = 0;       // modeled network round-trip time
  uint64_t server_extra_ns = 0;  // modeled server compute the handler charged
  bool dup_completion = false;   // an injected duplicate completion arrived
};

// Client-side RPC endpoint: pushes requests into a remote RpcQueue and
// spins for the completion — bounded by `policy.deadline_ns` — pacing the
// modeled network time of both legs. Consults the global fault injector at
// the rpc.* sites.
class RpcClient {
 public:
  RpcClient(RpcQueue* queue, sim::LatencyModel model,
            RetryPolicy policy = RetryPolicy{})
      : queue_(queue), model_(model), policy_(policy) {}

  // Zero-copy pooled call: `*msg` (from RpcMessagePool::Acquire, request
  // encoded in place) is sent and, on any status where the message is still
  // owned by the caller, returned with the response in msg->response — the
  // caller decodes in place and Releases it. On timeout-class failures the
  // transport has already released or abandoned the message and nulls
  // `*msg`; the caller must not touch it.
  Status CallPooled(RpcMessage** msg, int ring_hint, RpcWireStats* wire);

  const sim::LatencyModel& model() const { return model_; }
  const RetryPolicy& retry_policy() const { return policy_; }

 private:
  RpcQueue* const queue_;
  const sim::LatencyModel model_;
  const RetryPolicy policy_;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_RPC_TRANSPORT_H_
